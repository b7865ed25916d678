//! MinMin (Braun et al. 2001), generalized to precedence constraints.
//!
//! Repeatedly: for every *ready* task compute its minimum completion time
//! (MCT) over all nodes, then schedule the task whose MCT is smallest on the
//! corresponding node. The original formulation targets independent tasks;
//! as in SAGA we apply it to the ready frontier of the DAG. Complexity
//! `O(|T|^2 |V|)`.

use crate::{util, KernelRun};
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext};

/// The MinMin scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMin;

/// The shared MinMin/MaxMin selection loop from whatever partial state
/// `ctx` is in: pick the ready task whose best EFT is extremal and place
/// it. Append-only, so the [`util::FrontierSweep`] cache answers every
/// `(start, finish)` from cached data-ready rows.
fn min_max_loop(ctx: &mut SchedContext, sweep: &mut util::FrontierSweep, want_max: bool) {
    let n = ctx.task_count();
    let fused = util::fused_rows_profitable(ctx);
    while ctx.placed_count() < n {
        let mut chosen = None;
        for &t in ctx.ready() {
            // per-task best node: minimum finish, lower id on ties
            let (v, s, f) = if fused {
                sweep.best_node_eft(ctx, t)
            } else {
                sweep.best_node(ctx, t, |(_, f), (_, bf)| f < bf)
            };
            let better = match chosen {
                None => true,
                Some((_, _, _, bf)) => {
                    if want_max {
                        f > bf
                    } else {
                        f < bf
                    }
                }
            };
            if better {
                chosen = Some((t, v, s, f));
            }
        }
        let (t, v, s, _) = chosen.expect("ready set cannot be empty in a DAG");
        ctx.place(t, v, s);
        sweep.note_placed(ctx, t);
    }
}

/// Shared MinMin/MaxMin sweep (`want_max = false` for MinMin, `true` for
/// MaxMin).
pub(crate) fn min_max_run(inst: &Instance, ctx: &mut SchedContext, want_max: bool) {
    ctx.reset(inst);
    let mut sweep = util::FrontierSweep::new(ctx);
    min_max_loop(ctx, &mut sweep, want_max);
    sweep.release(ctx);
}

/// [`min_max_run`] with trace recording and incremental prefix replay.
/// The selection compares only EFT compositions of *ready* tasks, so the
/// generic frontier stop rule is exact: until a dirty task is ready (or
/// about to be placed), every per-step comparison is bitwise unchanged.
pub(crate) fn min_max_run_recorded(
    inst: &Instance,
    ctx: &mut SchedContext,
    want_max: bool,
    trace: &mut RunTrace,
    dirty: &DirtyRegion,
) {
    ctx.reset(inst);
    ctx.begin_recording();
    util::replay_frontier_prefix(ctx, trace, dirty, true, |_, _| false);
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
