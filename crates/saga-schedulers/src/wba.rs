//! WBA — Workflow-Based Application scheduling (Blythe et al. 2005).
//!
//! A greedy randomized scheduler from the scientific-workflow world: at each
//! step it evaluates, for every ready task and every node, how much the
//! placement would increase the current schedule makespan, then samples a
//! placement from a distribution favouring the smallest increases (options
//! are weighted by `I_max - I`, so the least-damaging choices are most
//! likely and the worst choice has weight zero). Complexity at most
//! `O(|T| |D| |V|)` per the paper's observation.
//!
//! The RNG is seeded (default 0xB1) so experiments are reproducible; PISA
//! perturbs instances, not scheduler seeds.
//!
//! Placement is append-only, so after a placement only the chosen node's
//! tail moves. Each ready task's finish row over all nodes is composed once,
//! when the task becomes ready, from [`util::FrontierSweep`]'s cached
//! data-ready row; after each placement only the placed node's column of
//! the ready rows is recomposed. The option pass turns the rows into the
//! step's increases, `f - current` when a finish `f` passes the current
//! makespan and `0` otherwise, and folds their extremes in four lanes
//! (exact in any order: an increase is never NaN or `-0.0`, even when `f`
//! and `current` are both `+inf`). The chosen option's start is recomposed
//! from the same inputs (same expressions, same bits). The current makespan
//! is a running max over placed finish times (same fold, same value)
//! instead of an O(|T|) rescan per step — bit-identical decisions and RNG
//! stream.
//!
//! When `I_min` and `I_max` are finite and differ, every increase lies
//! between them and so is finite: the weight of an option is `I_max - I`
//! as it stands, and the total is their plain sum. Otherwise (an infinite
//! increase on a zero-speed network, or all increases equal) the step
//! draws uniformly among the options.
//!
//! Incremental evaluation replays the recorded run's unchanged prefix
//! through [`util::replay_frontier_prefix`]. The selection weighs options
//! across the whole ready set, so the replay is frontier-sensitive: it
//! stops once a placement-dirty task is ready. Each step draws exactly one
//! `next_u64` on every branch (integer `gen_range` and `gen::<f64>()` are
//! one word each in the vendored `StdRng`, pinned by its
//! `one_word_per_draw` test), so after `k` replayed steps the RNG is
//! advanced by `k` words and the loop resumes with the stream a full run
//! would have. Only weight edits replay: structural edits give a full
//! region, and an added dependency would remove its target from frontiers
//! the recorded run drew against, which the frontier check on the new run
//! could not see.

use crate::{util, KernelRun};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use saga_core::{earlier, later, DirtyRegion, Instance, NodeId, RunTrace, SchedContext, TaskId};

/// The WBA scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Wba {
    /// Seed for the placement-sampling RNG.
    pub seed: u64,
}

impl Default for Wba {
    fn default() -> Self {
        Wba { seed: 0xB1 }
    }
}

/// Composes ready task `t`'s append finish on every node into its row of
/// `finishes`.
fn fill_finish_row(
    ctx: &SchedContext,
    sweep: &util::FrontierSweep,
    finishes: &mut [f64],
    t: TaskId,
) {
    let nv = ctx.node_count();
    let (tails, ready, exec) = (ctx.append_tails(), sweep.row(nv, t), ctx.exec_row(t));
    for (v, f) in finishes[t.index() * nv..][..nv].iter_mut().enumerate() {
        *f = later(tails[v], ready[v]) + exec[v];
    }
}

/// The smallest and largest of `xs` (`(inf, -inf)` when empty), folded in
/// four interleaved lanes. The order does not matter for option increases
/// (see the [module docs](self)): they are never NaN and never `-0.0`.
fn extremes(xs: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let chunks = xs.chunks_exact(4);
    for &x in chunks.remainder() {
        lo[0] = earlier(lo[0], x);
        hi[0] = later(hi[0], x);
    }
    for c in chunks {
        for k in 0..4 {
            lo[k] = earlier(lo[k], c[k]);
            hi[k] = later(hi[k], c[k]);
        }
    }
    (
        earlier(earlier(lo[0], lo[1]), earlier(lo[2], lo[3])),
        later(later(hi[0], hi[1]), later(hi[2], hi[3])),
    )
}

/// The WBA decision loop from whatever partial state `ctx` is in: `rng`
/// must sit exactly one draw past its seed per placed task, and `current`
/// must be the running max over the placed finishes (both hold trivially
/// on an empty context). Append-only, so every candidate finish comes from
/// the ready tasks' finish rows (see the [module docs](self)).
fn wba_loop(ctx: &mut SchedContext, rng: &mut StdRng, mut current: f64) {
    let n = ctx.task_count();
    let nv = ctx.node_count();
    let mut sweep = util::FrontierSweep::new(ctx);
    // `finishes[t * |V| + v]`, valid for ready tasks
    let mut finishes = ctx.take_f64();
    finishes.resize(n * nv, 0.0);
    for &t in ctx.ready() {
        fill_finish_row(ctx, &sweep, &mut finishes, t);
    }
    // Per-step option increases, in a pooled buffer. Option `i` is (ready
    // task `i / nv`, node `i % nv`) — the ready set is stable while a
    // step's options are built and consumed, so the identity is recovered
    // from the index instead of storing tuples (which would need their
    // own, unpooled allocation).
    let mut increases = ctx.take_f64();
    while ctx.placed_count() < n {
        increases.clear();
        for &t in ctx.ready() {
            let row = &finishes[t.index() * nv..][..nv];
            increases.extend(
                row.iter()
                    .map(|&f| if f > current { f - current } else { 0.0 }),
            );
        }
        let (i_min, i_max) = extremes(&increases);
        // exactly one `next_u64` per step on every branch (see the module
        // docs): the replay in `run_recorded` relies on it
        let chosen = if !i_min.is_finite() || !i_max.is_finite() || i_max == i_min {
            // uniformly random among options (covers infinite increases
            // on zero-speed networks and the all-equal case)
            rng.gen_range(0..increases.len())
        } else {
            // weight by (I_max - I): zero for the worst, largest for the
            // best; sample proportionally. Every increase lies in
            // [I_min, I_max], so every weight is finite.
            let total: f64 = increases.iter().map(|&i| i_max - i).sum();
            if total <= 0.0 {
                rng.gen_range(0..increases.len())
            } else {
                let mut x = rng.gen::<f64>() * total;
                let mut pick = increases.len() - 1;
                for (idx, &i) in increases.iter().enumerate() {
                    let w = i_max - i;
                    if x < w {
                        pick = idx;
                        break;
                    }
                    x -= w;
                }
                pick
            }
        };
        let (t, v) = (ctx.ready()[chosen / nv], chosen % nv);
        let start = sweep.start(ctx, t, v);
        ctx.place(t, NodeId(v as u32), start);
        sweep.note_placed(ctx, t);
        // only `v`'s tail moved: recompose that column of every ready row,
        // then the whole rows of the tasks that just became ready
        let tail = ctx.append_tails()[v];
        for &r in ctx.ready() {
            finishes[r.index() * nv + v] = later(tail, sweep.row(nv, r)[v]) + ctx.exec_row(r)[v];
        }
        for (s, _) in ctx.succs(t) {
            if ctx.is_ready(s) {
                fill_finish_row(ctx, &sweep, &mut finishes, s);
            }
        }
        current = later(current, ctx.finish_time(t));
    }
    ctx.give_f64(finishes);
    ctx.give_f64(increases);
    sweep.release(ctx);
}

impl KernelRun for Wba {
    fn kernel_name(&self) -> &'static str {
        "WBA"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut rng = StdRng::seed_from_u64(self.seed);
        wba_loop(ctx, &mut rng, 0.0);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        ctx.begin_recording();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current = 0.0f64;
        util::replay_frontier_prefix(ctx, trace, dirty);
        // the replayed steps are the recorded run's first steps: one draw
        // each, and the same running-max fold over their finishes
        for k in 0..ctx.placed_count() {
            rng.next_u64();
            current = later(current, ctx.finish_time(trace.task(k)));
        }
        wba_loop(ctx, &mut rng, current);
        ctx.take_recording(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;
    use crate::Scheduler;

    #[test]
    fn schedules_are_valid_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            let s = Wba::default().schedule(&inst);
            s.verify(&inst).expect("WBA schedule must be valid");
        }
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let inst = fixtures::random_instance(5, 10, 3, 0.3);
        let a = Wba { seed: 7 }.schedule(&inst);
        let b = Wba { seed: 7 }.schedule(&inst);
        assert_eq!(a.makespan(), b.makespan());
        for t in inst.graph.tasks() {
            assert_eq!(a.assignment(t).node, b.assignment(t).node);
        }
    }

    #[test]
    fn different_seeds_can_differ() {
        let inst = fixtures::random_instance(5, 12, 4, 0.25);
        let makespans: Vec<f64> = (0..8)
            .map(|s| Wba { seed: s }.schedule(&inst).makespan())
            .collect();
        let first = makespans[0];
        assert!(
            makespans.iter().any(|&m| (m - first).abs() > 1e-12),
            "8 seeds all identical is vanishingly unlikely"
        );
    }

    #[test]
    fn favours_low_increase_placements() {
        // a single huge task: placing it on the slow node would blow up the
        // makespan, so the weighting should essentially always avoid it
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 100.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.01, 1.0], 1.0), g);
        let mut fast = 0;
        for seed in 0..20 {
            let s = Wba { seed }.schedule(&inst);
            if s.assignment(t).node == saga_core::NodeId(1) {
                fast += 1;
            }
        }
        assert!(fast >= 19, "only {fast}/20 runs used the fast node");
    }

    #[test]
    fn handles_zero_speed_networks() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.0, 0.0], 0.0), g);
        let s = Wba::default().schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.makespan().is_infinite());
    }
}
