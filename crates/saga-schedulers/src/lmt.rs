//! LMT — Levelized Min Time.
//!
//! Another comparator from the HEFT/CPoP evaluation (the PISA paper notes it
//! could not locate the original publication; the standard description is a
//! two-phase *levelized* scheduler). Tasks are partitioned into precedence
//! levels (longest path depth from a source); within each level — whose
//! tasks are mutually independent — tasks are taken largest-cost-first and
//! each is assigned to the node minimizing its completion time.

use crate::{util, KernelRun};
use saga_core::{later, Instance, SchedContext};

/// The Levelized Min Time scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lmt;

/// Longest-path depth of every task from the source frontier (reference
/// implementation used by the unit tests; the scheduler computes the same
/// quantity into pooled buffers).
#[cfg(test)]
fn levels(inst: &Instance) -> Vec<usize> {
    let g = &inst.graph;
    let mut level = vec![0usize; g.task_count()];
    for &t in &g.topological_order() {
        let lt = level[t.index()];
        for e in g.successors(t) {
            let l = &mut level[e.task.index()];
            *l = (*l).max(lt + 1);
        }
    }
    level
}

impl KernelRun for Lmt {
    fn kernel_name(&self) -> &'static str {
        "LMT"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        // longest-path depth of every task, as exact small floats so the
        // buffer pools cover it
        let mut level = ctx.take_f64();
        level.resize(ctx.task_count(), 0.0);
        for &t in ctx.topo_order() {
            let lt = level[t.index()];
            for (s, _) in ctx.succs(t) {
                let l = &mut level[s.index()];
                *l = later(*l, lt + 1.0);
            }
        }
        let max_level = level.iter().copied().fold(0.0f64, later);
        let mut tier = ctx.take_tasks();
        let mut rows = util::NodeRows::new(ctx);
        let mut l = 0.0f64;
        while l <= max_level {
            tier.clear();
            tier.extend(ctx.tasks().filter(|t| level[t.index()] == l));
            tier.sort_by(|&a, &c| {
                inst.graph
                    .cost(c)
                    .total_cmp(&inst.graph.cost(a))
                    .then(a.cmp(&c))
            });
            for &t in &tier {
                let (v, s, _) = util::best_eft_node(ctx, t, false, &mut rows);
                ctx.place(t, v, s);
            }
            l += 1.0;
        }
        rows.release(ctx);
        ctx.give_f64(level);
        ctx.give_tasks(tier);
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
            let s = Lmt.schedule(&inst);
            s.verify(&inst).expect("LMT schedule must be valid");
        }
    }

    #[test]
    fn levels_follow_longest_paths() {
        let inst = fixtures::fig1();
        let l = levels(&inst);
        // t1 (source) 0; t2, t3 at 1; t4 at 2
        assert_eq!(l, vec![0, 1, 1, 2]);
    }

    #[test]
    fn within_level_big_tasks_go_first() {
        // two independent tasks (same level), one node: the bigger starts
        // first under LMT's largest-first tie-breaking
        let mut g = saga_core::TaskGraph::new();
        let small = g.add_task("small", 1.0);
        let big = g.add_task("big", 5.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let s = Lmt.schedule(&inst);
        assert!(s.assignment(big).start < s.assignment(small).start);
    }

    #[test]
    fn levelization_can_cost_against_heft() {
        // LMT cannot start a level-2 task before finishing placing level-1
        // tasks, so HEFT is at least as good on the Fig. 1 instance
        let inst = fixtures::fig1();
        let lmt = Lmt.schedule(&inst).makespan();
        let heft = crate::Heft.schedule(&inst).makespan();
        assert!(heft <= lmt + 1e-9);
    }
}
