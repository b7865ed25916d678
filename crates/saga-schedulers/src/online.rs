//! Online scheduling — the paper's future-work item "online scheduling
//! (e.g., scheduling tasks as they arrive)".
//!
//! The offline problem reveals the whole task graph up front; here every
//! task additionally has a *release time* and the scheduler is
//! non-clairvoyant: it can only place tasks that have already been released
//! (and whose predecessors are placed), it never sees future arrivals, and a
//! task cannot start before its release. The event loop advances a
//! visibility clock to the next release whenever no visible task is ready.
//!
//! Policies implement [`OnlinePolicy`] — a choice among the currently
//! visible ready tasks. [`OnlineEft`] (greedy earliest finish, the online
//! analogue of MCT) and [`OnlineOlb`] (first-idle node) are provided;
//! comparing their schedules against offline HEFT quantifies the price of
//! not knowing the future.

use crate::{util, Scheduler};
use saga_core::{later, Instance, NodeId, SchedContext, Schedule, TaskId};

/// Release times per task (indexed by [`TaskId`]), making an [`Instance`]
/// an online problem.
#[derive(Debug, Clone)]
pub struct ReleaseTimes(pub Vec<f64>);

impl ReleaseTimes {
    /// Everything available at time zero — the offline special case.
    pub fn all_zero(inst: &Instance) -> Self {
        ReleaseTimes(vec![0.0; inst.graph.task_count()])
    }

    /// Staggered arrivals: each task is released at
    /// `depth(t) * stagger + jitter`, modeling a workflow whose stages are
    /// submitted progressively.
    pub fn staggered(inst: &Instance, stagger: f64, jitter: impl Fn(usize) -> f64) -> Self {
        let g = &inst.graph;
        let mut level = vec![0usize; g.task_count()];
        for &t in &g.topological_order() {
            let lt = level[t.index()];
            for e in g.successors(t) {
                let l = &mut level[e.task.index()];
                *l = (*l).max(lt + 1);
            }
        }
        ReleaseTimes(
            level
                .iter()
                .enumerate()
                .map(|(i, &l)| l as f64 * stagger + jitter(i))
                .collect(),
        )
    }

    /// Validates a schedule against the release constraint
    /// (`start >= release` for every task, on top of `Schedule::verify`).
    #[expect(
        clippy::disallowed_methods,
        reason = "release times are caller data, not model weights: `staggered` gives NaN for an infinite stagger (`0 * inf` at depth 0)"
    )]
    pub fn verify(&self, inst: &Instance, sched: &Schedule) -> Result<(), String> {
        sched.verify(inst).map_err(|e| e.to_string())?;
        for t in inst.graph.tasks() {
            let a = sched.assignment(t);
            let r = self.0[t.index()];
            if a.start + 1e-9 * r.abs().max(1.0) < r {
                return Err(format!("task {t} starts at {} before release {r}", a.start));
            }
        }
        Ok(())
    }
}

/// A non-clairvoyant dispatch policy.
pub trait OnlinePolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Chooses a `(task, node, start)` among `visible` (non-empty) ready
    /// tasks of `inst`, given the placements so far in `ctx`;
    /// `min_start[t]` is the earliest legal start (release-aware).
    fn choose(
        &self,
        inst: &Instance,
        ctx: &SchedContext,
        visible: &[TaskId],
        min_start: &dyn Fn(TaskId, NodeId) -> f64,
    ) -> (TaskId, NodeId, f64);
}

/// Greedy earliest-finish dispatch (online MCT).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineEft;

impl OnlinePolicy for OnlineEft {
    fn name(&self) -> &'static str {
        "OnlineEFT"
    }

    fn choose(
        &self,
        inst: &Instance,
        _ctx: &SchedContext,
        visible: &[TaskId],
        min_start: &dyn Fn(TaskId, NodeId) -> f64,
    ) -> (TaskId, NodeId, f64) {
        let mut best: Option<(TaskId, NodeId, f64, f64)> = None;
        for &t in visible {
            for v in inst.network.nodes() {
                let start = min_start(t, v);
                let finish = start + inst.network.exec_time(inst.graph.cost(t), v);
                let better = match best {
                    None => true,
                    Some((_, _, _, bf)) => finish < bf,
                };
                if better {
                    best = Some((t, v, start, finish));
                }
            }
        }
        let (t, v, s, _) = best.expect("visible set is non-empty");
        (t, v, s)
    }
}

/// First-idle-node dispatch (online OLB).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineOlb;

impl OnlinePolicy for OnlineOlb {
    fn name(&self) -> &'static str {
        "OnlineOLB"
    }

    fn choose(
        &self,
        _inst: &Instance,
        ctx: &SchedContext,
        visible: &[TaskId],
        min_start: &dyn Fn(TaskId, NodeId) -> f64,
    ) -> (TaskId, NodeId, f64) {
        let v = util::first_idle_node(ctx);
        // earliest-released visible task first (FIFO), ties by id
        let t = *visible
            .iter()
            .min_by(|&&a, &&c| min_start(a, v).total_cmp(&min_start(c, v)).then(a.cmp(&c)))
            .expect("visible set is non-empty");
        (t, v, min_start(t, v))
    }
}

/// Runs the online event loop on `ctx` (reset for `inst` here):
/// placement decisions see only released tasks, and every start respects
/// `max(release, data-ready, node-available)`.
#[expect(
    clippy::disallowed_methods,
    reason = "release times are caller data, not model weights: `staggered` gives NaN for an infinite stagger (`0 * inf` at depth 0)"
)]
pub fn simulate_online(
    inst: &Instance,
    releases: &ReleaseTimes,
    policy: &dyn OnlinePolicy,
    ctx: &mut SchedContext,
) -> Schedule {
    let n = inst.graph.task_count();
    ctx.reset(inst);
    let mut clock = 0.0f64;
    while ctx.placed_count() < n {
        let visible: Vec<TaskId> = ctx
            .ready()
            .iter()
            .copied()
            .filter(|t| releases.0[t.index()] <= clock)
            .collect();
        if visible.is_empty() {
            // advance to the next arrival among ready tasks
            clock = ctx
                .ready()
                .iter()
                .map(|t| releases.0[t.index()])
                .fold(f64::INFINITY, f64::min);
            continue;
        }
        let min_start = |t: TaskId, v: NodeId| -> f64 {
            let data = ctx.data_ready_time(t, v);
            let avail = ctx.earliest_start_append(v, 0.0);
            later(data, avail).max(releases.0[t.index()])
        };
        let (t, v, start) = policy.choose(inst, ctx, &visible, &min_start);
        debug_assert!(start >= releases.0[t.index()]);
        ctx.place(t, v, start);
        clock = clock.max(releases.0[t.index()]);
    }
    ctx.snapshot_schedule()
}

/// Convenience wrapper: an online policy with fixed releases, viewed as a
/// [`Scheduler`] (useful for plugging into the benchmarking harness when
/// releases are all zero).
pub struct OnlineScheduler<P: OnlinePolicy + Send + Sync> {
    policy: P,
}

impl<P: OnlinePolicy + Send + Sync> OnlineScheduler<P> {
    /// Wraps a policy.
    pub fn new(policy: P) -> Self {
        OnlineScheduler { policy }
    }
}

impl<P: OnlinePolicy + Send + Sync> Scheduler for OnlineScheduler<P> {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        simulate_online(inst, &ReleaseTimes::all_zero(inst), &self.policy, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;

    #[test]
    fn zero_releases_give_valid_schedules_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            for policy in [&OnlineEft as &dyn OnlinePolicy, &OnlineOlb] {
                let r = ReleaseTimes::all_zero(&inst);
                let s = simulate_online(&inst, &r, policy, &mut SchedContext::new());
                r.verify(&inst, &s)
                    .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            }
        }
    }

    #[test]
    fn staggered_releases_are_respected() {
        let inst = fixtures::fig1();
        let r = ReleaseTimes::staggered(&inst, 2.0, |i| 0.1 * i as f64);
        for policy in [&OnlineEft as &dyn OnlinePolicy, &OnlineOlb] {
            let s = simulate_online(&inst, &r, policy, &mut SchedContext::new());
            r.verify(&inst, &s)
                .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            for t in inst.graph.tasks() {
                assert!(s.assignment(t).start >= r.0[t.index()] - 1e-9);
            }
        }
    }

    #[test]
    fn online_eft_matches_mct_when_everything_is_released() {
        // with all releases zero and no insertion, OnlineEFT's greedy rule
        // is a ready-set MCT — makespans must be close (not identical: MCT
        // processes in topological order, OnlineEFT picks min finish first);
        // both must at least be valid and finite here
        let inst = fixtures::fig1();
        let on = OnlineScheduler::new(OnlineEft).schedule(&inst);
        let off = crate::Mct.schedule(&inst);
        on.verify(&inst).unwrap();
        assert!(on.makespan().is_finite() && off.makespan().is_finite());
    }

    #[test]
    fn delaying_releases_can_only_hurt() {
        let inst = fixtures::fig1();
        let zero = ReleaseTimes::all_zero(&inst);
        let late = ReleaseTimes::staggered(&inst, 5.0, |_| 0.0);
        let mut ctx = SchedContext::new();
        let m0 = simulate_online(&inst, &zero, &OnlineEft, &mut ctx).makespan();
        let m1 = simulate_online(&inst, &late, &OnlineEft, &mut ctx).makespan();
        assert!(m1 >= m0 - 1e-9, "late arrivals produced a faster schedule");
    }

    #[test]
    fn online_price_vs_offline_heft() {
        // the online scheduler can't beat clairvoyant HEFT by much on these
        // instances, and must stay within a sane factor
        for inst in fixtures::smoke_instances() {
            let on = OnlineScheduler::new(OnlineEft).schedule(&inst).makespan();
            let off = crate::Heft.schedule(&inst).makespan();
            if off.is_finite() {
                assert!(on < 50.0 * off + 1e-9, "online {on} vs offline {off}");
            }
        }
    }

    #[test]
    fn clock_advances_through_empty_visibility_windows() {
        // single chain, each task released long after the previous finishes
        let g = saga_core::TaskGraph::chain(&[1.0, 1.0], &[0.0]);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let r = ReleaseTimes(vec![10.0, 20.0]);
        let s = simulate_online(&inst, &r, &OnlineEft, &mut SchedContext::new());
        assert!(s.assignment(saga_core::TaskId(0)).start >= 10.0);
        assert!(s.assignment(saga_core::TaskId(1)).start >= 20.0);
        r.verify(&inst, &s).unwrap();
    }
}
