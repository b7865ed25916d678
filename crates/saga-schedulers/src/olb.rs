//! OLB — Opportunistic Load Balancing (Armstrong, Hensgen & Kidd 1998).
//!
//! Assigns tasks in arbitrary (topological) order to the node that becomes
//! *available* earliest, ignoring both execution time and data transfer —
//! the paper calls it "probably useful only as a baseline". Complexity
//! `O(|T| |V|)`.

use crate::{util, KernelRun};
use saga_core::{Instance, SchedContext};

/// The OLB scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Olb;

impl KernelRun for Olb {
    fn kernel_name(&self) -> &'static str {
        "OLB"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let n = ctx.task_count();
        while ctx.placed_count() < n {
            let t = ctx.ready()[0]; // lowest-id ready = topological order
            let v = util::first_idle_node(ctx);
            let (s, _) = ctx.eft(t, v, false);
            ctx.place(t, v, s);
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
            let s = Olb.schedule(&inst);
            s.verify(&inst).expect("OLB schedule must be valid");
        }
    }

    #[test]
    fn round_robins_independent_tasks() {
        let mut g = saga_core::TaskGraph::new();
        for i in 0..4 {
            g.add_task(format!("t{i}"), 1.0);
        }
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let s = Olb.schedule(&inst);
        // two nodes, four unit tasks -> two per node
        assert!((s.makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ignores_node_speed() {
        // OLB happily puts the first task on a glacially slow node if it is
        // idle — that is its defining weakness.
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.01, 1.0], 1.0), g);
        let s = Olb.schedule(&inst);
        // first task lands on node 0 (slow) because both are idle and ties
        // break by id; its makespan dwarfs the fast-node alternative
        assert!(s.makespan() >= 100.0 - 1e-9);
    }
}
