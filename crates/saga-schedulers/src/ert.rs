//! ERT — Earliest Ready Task (Lee, Hwang, Chow & Anger 1988).
//!
//! The comparator in the FCP/FLB evaluation. At every step, schedule the
//! ready task whose data becomes available earliest (its *ready* time, not
//! its start or finish time), on the node where that earliest readiness is
//! achieved; ties go to the node finishing the task sooner.
//!
//! Placement is append-only, so the sweep runs on
//! [`util::FrontierSweep`]'s cached data-ready rows: each ready task's row
//! is computed once when it enters the frontier instead of once per
//! `(step, node)` query — bit-identical values, minus the
//! O(ready × nodes × preds) rescans.

use crate::{util, KernelRun};
use saga_core::{Instance, SchedContext};

/// The ERT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ert;

impl KernelRun for Ert {
    fn kernel_name(&self) -> &'static str {
        "ERT"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let n = ctx.task_count();
        let nv = ctx.node_count();
        let fused = util::fused_rows_profitable(ctx);
        let mut rows = util::NodeRows::new(ctx);
        let mut sweep = util::FrontierSweep::new(ctx);
        while ctx.placed_count() < n {
            let mut chosen: Option<(saga_core::TaskId, saga_core::NodeId, f64, f64, f64)> = None;
            for &t in ctx.ready() {
                let ready_row = sweep.row(nv, t);
                if fused {
                    // one branchless compose per task; the selection loop
                    // reads the finished rows instead of recomposing per node
                    sweep.fused_rows(ctx, t, &mut rows);
                }
                for (v, &data_ready) in ready_row.iter().enumerate() {
                    let (s, f) = if fused {
                        (rows.starts()[v], rows.finishes()[v])
                    } else {
                        let s = sweep.start(ctx, t, v);
                        (s, s + ctx.exec_row(t)[v])
                    };
                    let better = match chosen {
                        None => true,
                        Some((_, _, _, cr, cf)) => data_ready < cr || (data_ready == cr && f < cf),
                    };
                    if better {
                        chosen = Some((t, saga_core::NodeId(v as u32), s, data_ready, f));
                    }
                }
            }
            let (t, v, s, _, _) = chosen.expect("ready set cannot be empty in a DAG");
            ctx.place(t, v, s);
            sweep.note_placed(ctx, t);
        }
        sweep.release(ctx);
        rows.release(ctx);
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
            let s = Ert.schedule(&inst);
            s.verify(&inst).expect("ERT schedule must be valid");
        }
    }

    #[test]
    fn prefers_task_with_earliest_data() {
        // two children of one parent: the one with the cheap message is
        // ready earlier on a remote node, but both are ready at the parent's
        // finish locally — so readiness ties and the faster finish wins;
        // make the cheap-message child also cheaper to execute
        let mut g = saga_core::TaskGraph::new();
        let p = g.add_task("p", 1.0);
        let cheap = g.add_task("cheap", 0.5);
        let heavy = g.add_task("heavy", 2.0);
        g.add_dependency(p, cheap, 0.1).unwrap();
        g.add_dependency(p, heavy, 10.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let s = Ert.schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.assignment(cheap).start <= s.assignment(heavy).start + 1e-9);
    }

    #[test]
    fn single_source_starts_at_zero() {
        let inst = fixtures::fig1();
        let s = Ert.schedule(&inst);
        assert_eq!(s.assignment(saga_core::TaskId(0)).start, 0.0);
    }
}
