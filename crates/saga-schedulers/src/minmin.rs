//! MinMin (Braun et al. 2001), generalized to precedence constraints.
//!
//! Repeatedly: for every *ready* task compute its minimum completion time
//! (MCT) over all nodes, then schedule the task whose MCT is smallest on the
//! corresponding node. The original formulation targets independent tasks;
//! as in SAGA we apply it to the ready frontier of the DAG. Complexity
//! `O(|T|^2 |V|)`.
//!
//! Placement is append-only, so each step scans every ready task's row in
//! one tight loop over the kernel's append-tail row, the task's cached
//! data-ready row ([`util::FrontierSweep`]) and its execution row; only
//! the chosen placement's start is recomposed.
//!
//! Incremental evaluation replays the recorded run's unchanged prefix and
//! checks each replayed decision against the dirty tasks that are ready:
//! a dirty task's fresh best finish is computed from its new inputs, and
//! the replay continues while that finish provably loses to the recorded
//! choice under the scan's first-extremum tie-break in ready (task-id)
//! order. It stops when the recorded task itself is dirty (its recorded
//! placement used stale inputs). Each ready dirty task's data-ready row is
//! kept in one pooled buffer for the whole replay, at any network width.

use crate::{util, KernelRun};
use saga_core::incremental::MAX_DIRTY;
use saga_core::{later, DirtyRegion, Instance, NodeId, RunTrace, SchedContext, TaskId};

/// The MinMin scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMin;

/// The lowest-id node of minimum append finish for a task, from the node
/// tails, the task's data-ready row and its execution row: `(node,
/// finish)`. The first node seeds the incumbent and only a strictly
/// smaller finish displaces it.
#[inline]
fn best_finish(tails: &[f64], ready: &[f64], exec: &[f64]) -> (usize, f64) {
    let nv = tails.len();
    let (ready, exec) = (&ready[..nv], &exec[..nv]);
    let mut bv = 0;
    let mut bf = later(tails[0], ready[0]) + exec[0];
    for v in 1..nv {
        let f = later(tails[v], ready[v]) + exec[v];
        if f < bf {
            bv = v;
            bf = f;
        }
    }
    (bv, bf)
}

/// The shared MinMin/MaxMin selection loop from whatever partial state
/// `ctx` is in: pick the ready task whose best finish is extremal (the
/// first one in ready order on ties) and place it on its best node.
fn min_max_loop(ctx: &mut SchedContext, sweep: &mut util::FrontierSweep, want_max: bool) {
    let n = ctx.task_count();
    let nv = ctx.node_count();
    while ctx.placed_count() < n {
        let tails = ctx.append_tails();
        let mut chosen: Option<(TaskId, usize, f64)> = None;
        for &t in ctx.ready() {
            let (v, f) = best_finish(tails, sweep.row(nv, t), ctx.exec_row(t));
            let better = match chosen {
                None => true,
                Some((_, _, bf)) => {
                    if want_max {
                        f > bf
                    } else {
                        f < bf
                    }
                }
            };
            if better {
                chosen = Some((t, v, f));
            }
        }
        let (t, v, _) = chosen.expect("ready set cannot be empty in a DAG");
        let start = sweep.start(ctx, t, v);
        ctx.place(t, NodeId(v as u32), start);
        sweep.note_placed(ctx, t);
    }
}

/// Replays the longest prefix of `trace` that a full MinMin/MaxMin run on
/// the perturbed instance provably repeats (see the [module docs](self)).
///
/// Every replayed task is clean, so by induction over the identical prefix
/// each clean task's inputs, and hence its best finish, are bitwise what
/// the recorded run scanned: the recorded task `t` was the first extremum
/// among them. Only ready dirty tasks can change the selection, and each
/// loses to `t` when its fresh best finish `fd` is strictly worse than
/// `t`'s finish `f`, or equal with the dirty task later in ready order.
/// A NaN on either side fails every comparison and stops the replay.
///
/// A dirty task's data-ready row is computed once, when the task first
/// shows up ready: all of its predecessors are placed by then and the
/// replay never places it, so the row cannot change while the replay runs.
fn replay_prefix(ctx: &mut SchedContext, trace: &RunTrace, dirty: &DirtyRegion, want_max: bool) {
    if dirty.is_full() || !trace.matches(ctx.task_count(), ctx.node_count()) {
        return;
    }
    let nv = ctx.node_count();
    // one pooled row per dirty task: `rows[i * |V|..][..|V|]`
    let mut rows = ctx.take_f64();
    rows.resize(MAX_DIRTY * nv, 0.0);
    let mut cached = [false; MAX_DIRTY];
    'replay: for k in 0..trace.len() {
        let (t, v, start) = (trace.task(k), trace.node(k), trace.start(k));
        if dirty.contains(t) {
            break;
        }
        let f = start + ctx.exec_row(t)[v.index()];
        // dirty tasks are never placed here (the replay stops at the first
        // one), so readiness alone puts them in the frontier
        for (i, &d) in dirty.tasks().iter().enumerate() {
            if !ctx.is_ready(d) {
                continue;
            }
            let row = &mut rows[i * nv..][..nv];
            if !cached[i] {
                ctx.data_ready_times_into(d, row);
                cached[i] = true;
            }
            let (_, fd) = best_finish(ctx.append_tails(), row, ctx.exec_row(d));
            let loses = match (want_max, d < t) {
                (false, true) => f < fd,
                (false, false) => f <= fd,
                (true, true) => fd < f,
                (true, false) => fd <= f,
            };
            if !loses {
                break 'replay;
            }
        }
        ctx.place(t, v, start);
    }
    ctx.give_f64(rows);
}

/// Shared MinMin/MaxMin sweep (`want_max = false` for MinMin, `true` for
/// MaxMin).
pub(crate) fn min_max_run(inst: &Instance, ctx: &mut SchedContext, want_max: bool) {
    ctx.reset(inst);
    let mut sweep = util::FrontierSweep::new(ctx);
    min_max_loop(ctx, &mut sweep, want_max);
    sweep.release(ctx);
}

/// [`min_max_run`] with trace recording and the incremental prefix replay
/// of [`replay_prefix`].
pub(crate) fn min_max_run_recorded(
    inst: &Instance,
    ctx: &mut SchedContext,
    want_max: bool,
    trace: &mut RunTrace,
    dirty: &DirtyRegion,
) {
    ctx.reset(inst);
    ctx.begin_recording();
    replay_prefix(ctx, trace, dirty, want_max);
    let mut sweep = util::FrontierSweep::new(ctx);
    min_max_loop(ctx, &mut sweep, want_max);
    sweep.release(ctx);
    ctx.take_recording(trace);
}

impl KernelRun for MinMin {
    fn kernel_name(&self) -> &'static str {
        "MinMin"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        min_max_run(inst, ctx, false);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        min_max_run_recorded(inst, ctx, false, trace, dirty);
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
            let s = MinMin.schedule(&inst);
            s.verify(&inst).expect("MinMin schedule must be valid");
        }
    }

    #[test]
    fn schedules_shortest_tasks_first() {
        // independent tasks of increasing cost on one node: MinMin picks the
        // cheapest first, so start times are ordered by cost
        let mut g = saga_core::TaskGraph::new();
        let big = g.add_task("big", 3.0);
        let small = g.add_task("small", 1.0);
        let mid = g.add_task("mid", 2.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let s = MinMin.schedule(&inst);
        assert!(s.assignment(small).start < s.assignment(mid).start);
        assert!(s.assignment(mid).start < s.assignment(big).start);
    }

    #[test]
    fn respects_precedence_over_greed() {
        // a cheap task hidden behind an expensive one cannot jump the queue
        let mut g = saga_core::TaskGraph::new();
        let gate = g.add_task("gate", 5.0);
        let cheap = g.add_task("cheap", 0.1);
        g.add_dependency(gate, cheap, 1.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let s = MinMin.schedule(&inst);
        assert!(s.assignment(cheap).start >= s.assignment(gate).finish - 1e-9);
    }
}
