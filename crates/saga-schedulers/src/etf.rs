//! ETF — Earliest Task First (Hwang, Chow, Anger & Lee 1989).
//!
//! At every step, among all ready tasks and all nodes, pick the (task, node)
//! pair with the earliest possible *start* time — in contrast with HEFT's
//! earliest *finish* time — and schedule it there (append-only, as in the
//! original). Ties are broken by the higher static priority (upward rank).
//! ETF carries the paper's only formal bound, proved for homogeneous
//! processors: `w_ETF <= (2 - 1/n) w_opt^(i) + C`. Complexity `O(|T| |V|^2)`
//! per the original analysis (our frontier scan is `O(|T|^2 |V|)` worst
//! case, identical on the paper's instance sizes).

use crate::{util, KernelRun};
use saga_core::{Instance, NodeId, SchedContext, TaskId};

/// The ETF scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Etf;

impl KernelRun for Etf {
    fn kernel_name(&self) -> &'static str {
        "ETF"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut rank = ctx.take_f64();
        ctx.upward_ranks_into(&mut rank);
        // append-only sweep: every (start, finish) comes from the cached
        // data-ready rows
        let mut sweep = util::FrontierSweep::new(ctx);
        let n = ctx.task_count();
        let fused = util::fused_rows_profitable(ctx);
        let mut rows = util::NodeRows::new(ctx);
        while ctx.placed_count() < n {
            let mut chosen: Option<(TaskId, NodeId, f64)> = None;
            for &t in ctx.ready() {
                // per-task best node: earliest start, earlier finish on ties
                let (v, s, _) = if fused {
                    sweep.best_node_est(ctx, t, &mut rows)
                } else {
                    sweep.best_node(ctx, t, |(s, f), (bs, bf)| s < bs || (s == bs && f < bf))
                };
                let better = match chosen {
                    None => true,
                    Some((ct, _, cs)) => s < cs || (s == cs && rank[t.index()] > rank[ct.index()]),
                };
                if better {
                    chosen = Some((t, v, s));
                }
            }
            let (t, v, s) = chosen.expect("ready set cannot be empty in a DAG");
            ctx.place(t, v, s);
            sweep.note_placed(ctx, t);
        }
        sweep.release(ctx);
        rows.release(ctx);
        ctx.give_f64(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;
    use crate::Scheduler;
    use saga_core::ranking;

    #[test]
    fn schedules_are_valid_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            let s = Etf.schedule(&inst);
            s.verify(&inst).expect("ETF schedule must be valid");
        }
    }

    #[test]
    fn starts_a_task_immediately_on_an_idle_node() {
        // ETF's defining move: it would rather start *now* on a slow node
        // than wait for a fast one.
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 100.0], 1.0), g);
        let s = Etf.schedule(&inst);
        // both tasks can start at 0, so they are spread across both nodes
        let n0 = s.assignment(saga_core::TaskId(0)).node;
        let n1 = s.assignment(saga_core::TaskId(1)).node;
        assert_ne!(n0, n1);
        assert_eq!(s.assignment(saga_core::TaskId(0)).start, 0.0);
        assert_eq!(s.assignment(saga_core::TaskId(1)).start, 0.0);
    }

    #[test]
    fn est_tie_broken_by_upward_rank() {
        // two ready tasks, both can start at 0; the higher-rank (longer
        // remaining path) one goes first onto the fast node
        let mut g = saga_core::TaskGraph::new();
        let short = g.add_task("short", 1.0);
        let head = g.add_task("head", 1.0);
        let tail = g.add_task("tail", 10.0);
        g.add_dependency(head, tail, 0.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let s = Etf.schedule(&inst);
        assert!(s.assignment(head).start < s.assignment(short).start);
    }

    #[test]
    fn homogeneous_bound_holds_on_random_instances() {
        // sanity-check the Hwang et al. bound shape on communication-free
        // homogeneous instances: ETF <= (2 - 1/n) * OPT_nocomm, where
        // OPT_nocomm >= total/n and >= critical path exec length.
        for seed in 0..5u64 {
            let mut inst = fixtures::random_instance(seed, 8, 3, 0.3);
            // homogenize: unit speeds, free comm
            let speeds = vec![1.0; inst.network.node_count()];
            inst.network = saga_core::Network::complete(&speeds, f64::INFINITY);
            let s = Etf.schedule(&inst);
            s.verify(&inst).unwrap();
            let nnodes = inst.network.node_count() as f64;
            let lb = saga_core::later(
                inst.graph.total_cost() / nnodes,
                ranking::critical_path(&inst).length,
            );
            assert!(
                s.makespan() <= (2.0 - 1.0 / nnodes) * lb + 1e-9,
                "seed {seed}: {} > (2-1/n) * {lb}",
                s.makespan()
            );
        }
    }
}
