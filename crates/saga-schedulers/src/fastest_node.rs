//! FastestNode — the paper's simple serial baseline.
//!
//! Schedules every task, in topological order, back-to-back on the single
//! fastest compute node. No communication is ever paid (all data stays
//! local), which is exactly why PISA finds instances where it beats
//! sophisticated schedulers that over-parallelize.

use crate::KernelRun;
use saga_core::{Instance, SchedContext};

/// The FastestNode baseline scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestNode;

fn serial_loop(ctx: &mut SchedContext) {
    let v = ctx.fastest_node();
    let n = ctx.task_count();
    while ctx.placed_count() < n {
        let t = ctx.ready()[0]; // lowest-id ready = topological order
        let (s, _) = ctx.eft(t, v, false);
        ctx.place(t, v, s);
    }
}

impl KernelRun for FastestNode {
    fn kernel_name(&self) -> &'static str {
        "FastestNode"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        serial_loop(ctx);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut saga_core::RunTrace,
        dirty: &saga_core::DirtyRegion,
    ) {
        ctx.reset(inst);
        ctx.begin_recording();
        crate::util::replay_frontier_prefix(ctx, trace, dirty, false);
        serial_loop(ctx);
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
