//! MH — Mapping Heuristic (El-Rewini & Lewis 1990).
//!
//! The comparator Topcuoglu et al. evaluated HEFT/CPoP against; the paper
//! describes it as "similar to HEFT without insertion". Tasks are ordered
//! once by static upward rank, then each is appended (no gap-filling) to the
//! node minimizing its completion time ([`util::best_eft_node`] with the
//! append policy). Implemented here so the repository can reproduce the
//! historical comparisons its Table I cites.

use crate::{util, KernelRun};
use saga_core::{Instance, SchedContext};

/// The Mapping Heuristic scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mh;

impl KernelRun for Mh {
    fn kernel_name(&self) -> &'static str {
        "MH"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut rank = ctx.take_f64();
        ctx.upward_ranks_into(&mut rank);
        let mut order = ctx.take_tasks();
        order.extend_from_slice(ctx.topo_order());
        order.sort_by(|&a, &b| rank[b.index()].total_cmp(&rank[a.index()]));
        let mut row = util::ReadyRow::new(ctx);
        for &t in &order {
            let (v, s, _) = util::best_eft_node(ctx, t, false, &mut row);
            ctx.place(t, v, s);
        }
        row.release(ctx);
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
            let s = Mh.schedule(&inst);
            s.verify(&inst).expect("MH schedule must be valid");
        }
    }

    #[test]
    fn heft_with_insertion_never_loses_to_mh_on_gap_instances() {
        // on an instance with an exploitable gap, HEFT (insertion) <= MH
        let mut g = saga_core::TaskGraph::new();
        let s0 = g.add_task("s", 1.0);
        let big = g.add_task("big", 4.0);
        let small = g.add_task("small", 1.0);
        g.add_dependency(s0, big, 8.0).unwrap();
        g.add_dependency(s0, small, 0.0).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0], 1.0), g);
        let heft = crate::Heft.schedule(&inst).makespan();
        let mh = Mh.schedule(&inst).makespan();
        assert!(heft <= mh + 1e-9);
    }

    #[test]
    fn equals_heft_when_no_gaps_exist() {
        // a pure chain leaves no gaps, so insertion cannot help
        let g = saga_core::TaskGraph::chain(&[1.0, 2.0, 3.0], &[0.5, 0.5]);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 2.0], 1.0), g);
        assert_eq!(
            Mh.schedule(&inst).makespan(),
            crate::Heft.schedule(&inst).makespan()
        );
    }
}
