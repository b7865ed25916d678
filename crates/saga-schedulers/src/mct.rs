//! MCT — Minimum Completion Time (Armstrong, Hensgen & Kidd 1998).
//!
//! Assigns tasks in arbitrary (here: topological, for precedence safety)
//! order to the node with the smallest completion time given previously
//! scheduled tasks — "HEFT without insertion or its priority function", as
//! the paper puts it. Complexity `O(|T|^2 |V|)`.
//!
//! Append-only, so the node selection is [`util::best_eft_node`] with the
//! append policy: one batched data-ready row pass per task, then one
//! incumbent-pruned scan of the nodes' append starts.

use crate::{util, KernelRun};
use saga_core::{Instance, SchedContext};

/// The MCT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mct;

impl KernelRun for Mct {
    fn kernel_name(&self) -> &'static str {
        "MCT"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        // popping the lowest-id ready task at each step reproduces the
        // smallest-id-tie-break topological order without materializing it
        let n = ctx.task_count();
        let mut row = util::ReadyRow::new(ctx);
        while ctx.placed_count() < n {
            let t = ctx.ready()[0];
            let (v, s, _) = util::best_eft_node(ctx, t, false, &mut row);
            ctx.place(t, v, s);
        }
        row.release(ctx);
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
            let s = Mct.schedule(&inst);
            s.verify(&inst).expect("MCT schedule must be valid");
        }
    }

    #[test]
    fn balances_independent_equal_tasks() {
        let mut g = saga_core::TaskGraph::new();
        for i in 0..4 {
            g.add_task(format!("t{i}"), 1.0);
        }
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let s = Mct.schedule(&inst);
        assert!((s.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn differs_from_heft_by_lacking_insertion() {
        // An instance where HEFT's gap-filling beats MCT's append-only rule:
        // a data-delayed big task leaves a gap only HEFT exploits.
        let mut g = saga_core::TaskGraph::new();
        let s0 = g.add_task("s", 1.0);
        let big = g.add_task("big", 1.0);
        let small = g.add_task("small", 1.0);
        g.add_dependency(s0, big, 10.0).unwrap();
        g.add_dependency(s0, small, 0.0).unwrap();
        // one fast node, one slow helper node
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 0.01], 1.0), g);
        let heft = crate::Heft.schedule(&inst);
        let mct = Mct.schedule(&inst);
        heft.verify(&inst).unwrap();
        mct.verify(&inst).unwrap();
        assert!(heft.makespan() <= mct.makespan() + 1e-9);
    }
}
