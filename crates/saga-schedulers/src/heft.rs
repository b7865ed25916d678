//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu 1999).
//!
//! List scheduling in two phases: (1) prioritize tasks by *upward rank* —
//! the task's average execution time plus the largest (average comm +
//! successor rank) over its successors; (2) in rank order, place each task on
//! the node minimizing its earliest finish time, allowed to fill idle gaps
//! (insertion-based policy). Complexity `O(|T|^2 |V|)`.
//!
//! The per-step node selection is [`util::best_eft_node`] with the
//! insertion policy: one batched data-ready row pass per task, then per-node
//! gap scans only where the incumbent bound admits a win.

use crate::{util, KernelRun};
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext};

/// The HEFT scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Heft;

/// HEFT's priority list: a topological order stably sorted by descending
/// upward rank. Descending upward rank is a valid topological order when
/// ranks are finite, but infinite ranks (zero-speed networks) compare equal
/// and would collapse the ordering — starting from a topological order and
/// sorting stably keeps precedence order on ties (`total_cmp` keeps the
/// comparator transitive even with infinities).
fn priority_order(ctx: &mut SchedContext, rank: &mut Vec<f64>, order: &mut Vec<saga_core::TaskId>) {
    ctx.upward_ranks_into(rank);
    order.extend_from_slice(ctx.topo_order());
    order.sort_by(|&a, &b| rank[b.index()].total_cmp(&rank[a.index()]));
}

impl KernelRun for Heft {
    fn kernel_name(&self) -> &'static str {
        "HEFT"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut rank = ctx.take_f64();
        let mut order = ctx.take_tasks();
        priority_order(ctx, &mut rank, &mut order);
        let mut row = util::ReadyRow::new(ctx);
        // `sort_by` is stable, so equal ranks keep topological order and
        // every predecessor is placed before its successors.
        for &t in &order {
            let (v, s, _) = util::best_eft_node(ctx, t, true, &mut row);
            ctx.place(t, v, s);
        }
        row.release(ctx);
        ctx.give_f64(rank);
        ctx.give_tasks(order);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        let mut rank = ctx.take_f64();
        let mut order = ctx.take_tasks();
        priority_order(ctx, &mut rank, &mut order);
        ctx.begin_recording();
        let n = ctx.task_count();
        let mut k = 0;
        // HEFT places in a statically computed order, so the recorded run
        // can be replayed as long as the fresh priority list agrees with it
        // position by position and the placed task's own inputs (execution
        // row, predecessor edges) are untouched — the EFT sweep then sees
        // bitwise-identical timelines and data-ready times by induction.
        if !dirty.is_full() && trace.matches(n, ctx.node_count()) {
            while k < n {
                let t = order[k];
                if trace.task(k) != t || dirty.contains(t) {
                    break;
                }
                ctx.place(t, trace.node(k), trace.start(k));
                k += 1;
            }
        }
        let mut row = util::ReadyRow::new(ctx);
        for &t in &order[k..] {
            let (v, s, _) = util::best_eft_node(ctx, t, true, &mut row);
            ctx.place(t, v, s);
        }
        row.release(ctx);
        ctx.take_recording(trace);
        ctx.give_f64(rank);
        ctx.give_tasks(order);
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
            let s = Heft.schedule(&inst);
            s.verify(&inst).expect("HEFT schedule must be valid");
        }
    }

    #[test]
    fn single_task_goes_to_fastest_node() {
        let inst = fixtures::random_instance(4, 1, 3, 0.0);
        let s = Heft.schedule(&inst);
        let a = s.assignment(saga_core::TaskId(0));
        assert_eq!(a.node, inst.network.fastest_node());
        assert_eq!(a.start, 0.0);
    }

    #[test]
    fn chain_on_heterogeneous_nodes_stays_on_fastest() {
        // With free communication HEFT still keeps a chain on the fastest
        // node: EFT there is always lowest.
        let g = saga_core::TaskGraph::chain(&[1.0, 1.0, 1.0], &[0.0, 0.0]);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 4.0], 1.0), g);
        let s = Heft.schedule(&inst);
        for t in inst.graph.tasks() {
            assert_eq!(s.assignment(t).node, saga_core::NodeId(1));
        }
        assert!((s.makespan() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parallel_tasks_spread_across_nodes() {
        // Two equal independent tasks, two equal nodes: HEFT runs them in
        // parallel, halving the serial makespan.
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let s = Heft.schedule(&inst);
        assert!((s.makespan() - 1.0).abs() < 1e-12);
        assert_ne!(
            s.assignment(saga_core::TaskId(0)).node,
            s.assignment(saga_core::TaskId(1)).node
        );
    }

    #[test]
    fn insertion_fills_gaps() {
        // b (big) then c (small) scheduled on the same node; a later task can
        // slot into the idle gap left before b's data-delayed start.
        // Construct: source s on node then two children; the higher-rank
        // child leaves a gap the lower-rank child fits into.
        let mut g = saga_core::TaskGraph::new();
        let s0 = g.add_task("s", 1.0);
        let big = g.add_task("big", 4.0);
        let small = g.add_task("small", 1.0);
        g.add_dependency(s0, big, 8.0).unwrap();
        g.add_dependency(s0, small, 0.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let sched = Heft.schedule(&inst);
        sched.verify(&inst).unwrap();
        // small must not wait for big anywhere: with insertion its EFT is <= 2.
        assert!(sched.assignment(small).finish <= 2.0 + 1e-9);
    }

    #[test]
    fn fig1_makespan_matches_hand_trace() {
        let inst = fixtures::fig1();
        let s = Heft.schedule(&inst);
        s.verify(&inst).unwrap();
        // Hand trace (upward ranks order t1, t3, t2, t4): t1,t3 on v3,
        // t2 on v2, t4 back on v3 after waiting for t2's message:
        // start = 2.6333 + 1.3/1.2, finish + 0.8/1.5 ≈ 4.2497.
        // Note this *exceeds* FastestNode's serial 5.9/1.5 ≈ 3.93 — Fig. 1's
        // weak links already make HEFT over-parallelize, foreshadowing the
        // paper's adversarial findings.
        assert!(
            (s.makespan() - 4.2497).abs() < 1e-3,
            "makespan {}",
            s.makespan()
        );
    }
}
