//! BnbSearch — binary search over the makespan with a branch-and-bound
//! feasibility oracle. **Substitute for the paper's SMT scheduler.**
//!
//! SAGA's `SMT` scheduler asks an SMT solver whether a schedule with
//! makespan `<= M` exists and binary-searches `M` to a `(1 + eps)`-optimal
//! schedule. No SMT solver is available offline, so the decision oracle here
//! is a depth-first search over (ready task, node) decisions that prunes any
//! partial schedule already exceeding `M` — same interface, same role
//! (an exponential-time reference answer), different engine. Documented in
//! DESIGN.md under substitutions.

use crate::Scheduler;
use saga_core::Instance;
use saga_core::{later, SchedContext, Schedule, TaskId};

/// The (1+eps)-optimal binary-search scheduler.
#[derive(Debug, Clone, Copy)]
pub struct BnbSearch {
    /// Relative gap at which the binary search stops.
    pub epsilon: f64,
    /// Safety cap on oracle states per feasibility query; a capped query is
    /// treated as infeasible (the result stays a valid upper bound).
    pub max_states: u64,
}

impl Default for BnbSearch {
    fn default() -> Self {
        BnbSearch {
            epsilon: 0.01,
            max_states: 500_000,
        }
    }
}

struct Oracle {
    bound: f64,
    states: u64,
    max_states: u64,
    found: Option<Schedule>,
}

impl Oracle {
    /// Depth-first feasibility search by place/unplace on the shared
    /// context — no per-state cloning.
    fn dfs(&mut self, ctx: &mut SchedContext) -> bool {
        if self.found.is_some() || self.states >= self.max_states {
            return self.found.is_some();
        }
        self.states += 1;
        if ctx.placed_count() == ctx.task_count() {
            self.found = Some(ctx.snapshot_schedule());
            return true;
        }
        for ti in 0..ctx.task_count() as u32 {
            let t = TaskId(ti);
            if ctx.is_placed(t) || !ctx.is_ready(t) {
                continue;
            }
            for v in 0..ctx.node_count() as u32 {
                let v = saga_core::NodeId(v);
                let (s, f) = ctx.eft(t, v, false);
                if f > self.bound + 1e-12 * later(self.bound.abs(), 1.0) {
                    continue;
                }
                ctx.place(t, v, s);
                let hit = self.dfs(ctx);
                ctx.unplace(t);
                if hit {
                    return true;
                }
            }
        }
        false
    }
}

impl BnbSearch {
    /// A safe lower bound on the optimal makespan: the larger of (a) the
    /// critical path executed entirely on the fastest node with free
    /// communication and (b) the total work spread over all node speeds.
    /// A term that is `inf / inf` (a summed cost that overflowed, over an
    /// infinite speed) counts as 0, which bounds every makespan.
    fn lower_bound(inst: &Instance) -> f64 {
        let fastest = inst.network.speed(inst.network.fastest_node());
        if fastest == 0.0 {
            return 0.0;
        }
        // longest chain of task costs (no comm), over the fastest speed
        let order = inst.graph.topological_order();
        let mut chain = vec![0.0f64; inst.graph.task_count()];
        for &t in order.iter().rev() {
            let mut best = 0.0f64;
            for e in inst.graph.successors(t) {
                best = later(best, chain[e.task.index()]);
            }
            chain[t.index()] = inst.graph.cost(t) + best;
        }
        let cp = chain.iter().copied().fold(0.0f64, later) / fastest;
        let total_speed: f64 = inst.network.speeds().iter().sum();
        let area = if total_speed > 0.0 {
            inst.graph.total_cost() / total_speed
        } else {
            0.0
        };
        let term = |x: f64| if x.is_nan() { 0.0 } else { x };
        later(term(cp), term(area))
    }
}

impl Scheduler for BnbSearch {
    fn name(&self) -> &'static str {
        "BnB"
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        // initial upper bound: best of the fast heuristics
        let mut best = crate::Heft.schedule_into(inst, ctx);
        for h in [
            crate::FastestNode.schedule_into(inst, ctx),
            crate::Cpop.schedule_into(inst, ctx),
        ] {
            if h.makespan() < best.makespan() {
                best = h;
            }
        }
        let mut ub = best.makespan();
        if !ub.is_finite() {
            return best; // nothing finite to search below
        }
        let mut lb = Self::lower_bound(inst);
        while ub - lb > self.epsilon * later(lb, 1e-12) {
            let mid = 0.5 * (lb + ub);
            let mut oracle = Oracle {
                bound: mid,
                states: 0,
                max_states: self.max_states,
                found: None,
            };
            ctx.reset(inst);
            oracle.dfs(ctx);
            match oracle.found {
                Some(s) => {
                    ub = s.makespan();
                    best = s;
                }
                None => lb = mid,
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;

    #[test]
    fn schedules_are_valid_on_small_instances() {
        for inst in [fixtures::fig1(), fixtures::random_instance(3, 5, 2, 0.4)] {
            let s = BnbSearch::default().schedule(&inst);
            s.verify(&inst).expect("BnB schedule must be valid");
        }
    }

    #[test]
    fn close_to_brute_force_optimum() {
        for seed in 0..4u64 {
            let inst = fixtures::random_instance(seed, 5, 2, 0.4);
            let opt = crate::BruteForce::default().schedule(&inst).makespan();
            let bnb = BnbSearch::default().schedule(&inst).makespan();
            assert!(
                bnb <= opt * 1.02 + 1e-9,
                "BnB {bnb} not within (1+eps) of OPT {opt} (seed {seed})"
            );
        }
    }

    #[test]
    fn lower_bound_is_a_true_lower_bound() {
        for seed in 0..4u64 {
            let inst = fixtures::random_instance(seed, 5, 2, 0.4);
            let lb = BnbSearch::lower_bound(&inst);
            let opt = crate::BruteForce::default().schedule(&inst).makespan();
            assert!(lb <= opt + 1e-9, "LB {lb} above OPT {opt}");
        }
    }

    /// Costs whose chain and total overflow to `+inf`, on a network with an
    /// infinite speed: `inf / inf` used to make the bound NaN, which ended
    /// the bisection at once and returned the heuristic incumbent.
    #[test]
    fn overflowing_costs_over_an_infinite_speed_keep_the_bound_and_the_search() {
        let mut g = saga_core::TaskGraph::new();
        let a = g.add_task("a", 1e300);
        let b = g.add_task("b", f64::MAX);
        g.add_dependency(a, b, 1.0).unwrap();
        let inst =
            saga_core::Instance::new(saga_core::Network::complete(&[f64::INFINITY, 1.0], 1.0), g);
        let lb = BnbSearch::lower_bound(&inst);
        let opt = crate::BruteForce::default().schedule(&inst).makespan();
        assert!(!lb.is_nan(), "the bound is a number");
        assert!(lb <= opt, "LB {lb} above OPT {opt}");
        let bnb = BnbSearch::default();
        let s = bnb.schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.makespan() <= (1.0 + bnb.epsilon) * opt);
    }

    #[test]
    fn degenerate_zero_speed_network_returns_valid_schedule() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.0], 1.0), g);
        let s = BnbSearch::default().schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.makespan().is_infinite());
    }
}
