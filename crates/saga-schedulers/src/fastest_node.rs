//! FastestNode — the paper's simple serial baseline.
//!
//! Schedules every task, in topological order, back-to-back on the single
//! fastest compute node. No communication is ever paid (all data stays
//! local), which is exactly why PISA finds instances where it beats
//! sophisticated schedulers that over-parallelize.
//!
//! Only [`Scheduler::schedule_into`] places tasks. The makespan entry
//! points, which the annealer calls, sum the execution times on the
//! fastest node in topological order instead: the same additions, so the
//! same bits, without a placement.

use crate::Scheduler;
use saga_core::{Instance, SchedContext, Schedule};

/// The FastestNode baseline scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestNode;

impl Scheduler for FastestNode {
    fn name(&self) -> &'static str {
        "FastestNode"
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        ctx.reset(inst);
        let v = ctx.fastest_node();
        let n = ctx.task_count();
        while ctx.placed_count() < n {
            let t = ctx.ready()[0]; // lowest-id ready = topological order
            let (s, _) = ctx.eft(t, v, false);
            ctx.place(t, v, s);
        }
        ctx.snapshot_schedule()
    }

    /// The placement loop's makespan without placing: each task starts
    /// when the one before it in topological order finishes (its inputs
    /// are all local and finished by then), so the makespan is the sum
    /// `m = m + exec(t, fastest)` in that order, the same additions the
    /// loop makes. The trait's incremental entry points come here too,
    /// since there is no placement left to replay.
    fn makespan_into(&self, inst: &Instance, ctx: &mut SchedContext) -> f64 {
        ctx.reset(inst);
        let v = ctx.fastest_node();
        ctx.topo_order()
            .iter()
            .fold(0.0, |m, &t| m + ctx.exec_time(t, v))
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
            let s = FastestNode.schedule(&inst);
            s.verify(&inst).expect("FastestNode schedule must be valid");
        }
    }

    #[test]
    fn all_tasks_on_the_fastest_node() {
        let inst = fixtures::fig1();
        let s = FastestNode.schedule(&inst);
        let fast = inst.network.fastest_node();
        for t in inst.graph.tasks() {
            assert_eq!(s.assignment(t).node, fast);
        }
    }

    #[test]
    fn makespan_is_total_cost_over_fastest_speed() {
        let inst = fixtures::fig1();
        let s = FastestNode.schedule(&inst);
        let fast = inst.network.fastest_node();
        let expect = inst.graph.total_cost() / inst.network.speed(fast);
        assert!((s.makespan() - expect).abs() < 1e-9);
    }

    #[test]
    fn never_pays_communication() {
        // even with zero-strength links, the serial schedule is finite
        let mut g = saga_core::TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_dependency(a, b, 100.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 0.0), g);
        let s = FastestNode.schedule(&inst);
        assert!((s.makespan() - 2.0).abs() < 1e-12);
    }
}
