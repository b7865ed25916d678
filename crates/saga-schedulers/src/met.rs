//! MET — Minimum Execution Time (Armstrong, Hensgen & Kidd 1998).
//!
//! Assigns each task to the node with the smallest execution time regardless
//! of availability. Under the related-machines model that is always the
//! fastest node, so MET degenerates to a serial schedule there — the
//! behavior the original unrelated-machines formulation only exhibits
//! accidentally. Tasks are visited in topological order and appended at the
//! earliest feasible time. Complexity `O(|T| |V|)`.

use crate::KernelRun;
use saga_core::{Instance, NodeId, SchedContext};

/// The MET scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Met;

impl KernelRun for Met {
    fn kernel_name(&self) -> &'static str {
        "MET"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let n = ctx.task_count();
        while ctx.placed_count() < n {
            // lowest-id ready = topological order; then the argmin over
            // nodes of the cached execution time alone
            let t = ctx.ready()[0];
            let mut best = NodeId(0);
            let mut best_exec = f64::INFINITY;
            for (vi, &e) in ctx.exec_row(t).iter().enumerate() {
                if e < best_exec {
                    best_exec = e;
                    best = NodeId(vi as u32);
                }
            }
            let (s, _) = ctx.eft(t, best, false);
            ctx.place(t, best, s);
        }
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
            let s = Met.schedule(&inst);
            s.verify(&inst).expect("MET schedule must be valid");
        }
    }

    #[test]
    fn related_machines_collapse_to_fastest_node() {
        let inst = fixtures::fig1();
        let s = Met.schedule(&inst);
        let fast = inst.network.fastest_node();
        for t in inst.graph.tasks() {
            assert_eq!(s.assignment(t).node, fast);
        }
    }

    #[test]
    fn zero_cost_tasks_pick_lowest_id_node() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("z", 0.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 5.0], 1.0), g);
        let s = Met.schedule(&inst);
        // exec time 0 everywhere; deterministic tie-break takes node 0
        assert_eq!(
            s.assignment(saga_core::TaskId(0)).node,
            saga_core::NodeId(0)
        );
    }
}
