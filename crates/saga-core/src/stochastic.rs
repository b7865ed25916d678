//! Stochastic problem instances — the paper's first-named future-work item
//! ("support for stochastic problem instances, with stochastic task costs,
//! data sizes, computation speeds, and communication costs").
//!
//! A [`StochasticInstance`] attaches a [`Dist`] to every weight of a
//! deterministic template. Three evaluation modes matter for offline
//! scheduling under uncertainty:
//!
//! * [`StochasticInstance::realize`] — draw one concrete [`Instance`];
//! * [`StochasticInstance::expected_instance`] — the mean-weight instance a
//!   static scheduler plans against;
//! * [`simulate_fixed`] — execute a *fixed* schedule (assignments + per-node
//!   order decided up front) under a different realization, re-deriving
//!   start/finish times — the makespan the plan actually achieves when
//!   reality deviates from the means.

use crate::dist::{clipped_gaussian, standard_normal};
use crate::{later, Assignment, Instance, NodeId, Schedule, TaskId};
use rand::Rng;

/// A weight distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// A deterministic weight.
    Fixed(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// The paper's clipped gaussian.
    ClippedGaussian {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        std: f64,
        /// Clip floor.
        min: f64,
        /// Clip ceiling.
        max: f64,
    },
}

impl Dist {
    /// Draws one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Fixed(x) => x,
            Dist::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    rng.gen_range(lo..=hi)
                }
            }
            Dist::ClippedGaussian {
                mean,
                std,
                min,
                max,
            } => clipped_gaussian(rng, mean, std, min, max),
        }
    }

    /// The distribution mean (clipping bias of the gaussian approximated by
    /// its unclipped mean clamped into range — exact for symmetric clips).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Fixed(x) => x,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::ClippedGaussian { mean, min, max, .. } => mean.clamp(min, max),
        }
    }

    /// A relative-jitter helper: `ClippedGaussian(mean, cv * mean)` clipped
    /// to `[(1 - 3cv) * mean, (1 + 3cv) * mean]` (never below 0).
    #[expect(
        clippy::disallowed_methods,
        reason = "`inf * 0.0` is NaN for a `+inf` mean at `cv = 1/3`, and the clamp maps it to 0"
    )]
    pub fn jitter(mean: f64, cv: f64) -> Dist {
        Dist::ClippedGaussian {
            mean,
            std: cv * mean,
            min: (mean * (1.0 - 3.0 * cv)).max(0.0),
            max: mean * (1.0 + 3.0 * cv),
        }
    }

    /// Exercises the RNG identically to [`Dist::sample`] without using the
    /// value (keeps realization streams aligned across elements).
    fn burn<R: Rng + ?Sized>(rng: &mut R) {
        let _ = standard_normal(rng);
    }
}

/// An instance whose weights are random variables over a fixed topology.
#[derive(Debug, Clone)]
pub struct StochasticInstance {
    /// Template topology (weights unused during realization).
    template: Instance,
    task_costs: Vec<Dist>,
    dep_costs: Vec<(TaskId, TaskId, Dist)>,
    speeds: Vec<Dist>,
    /// Finite links only; infinite links stay infinite.
    links: Vec<(NodeId, NodeId, Dist)>,
}

impl StochasticInstance {
    /// Wraps a deterministic instance with every weight jittered at
    /// coefficient-of-variation `cv` around its current value.
    pub fn jittered(inst: &Instance, cv: f64) -> Self {
        let task_costs = inst
            .graph
            .tasks()
            .map(|t| Dist::jitter(inst.graph.cost(t), cv))
            .collect();
        let dep_costs = inst
            .graph
            .dependencies()
            .map(|(a, b, c)| (a, b, Dist::jitter(c, cv)))
            .collect();
        let speeds = inst
            .network
            .nodes()
            .map(|v| Dist::jitter(inst.network.speed(v), cv))
            .collect();
        let mut links = Vec::new();
        for u in inst.network.nodes() {
            for v in inst.network.nodes() {
                if u < v && inst.network.link(u, v).is_finite() {
                    links.push((u, v, Dist::jitter(inst.network.link(u, v), cv)));
                }
            }
        }
        StochasticInstance {
            template: inst.clone(),
            task_costs,
            dep_costs,
            speeds,
            links,
        }
    }

    /// Builds from explicit distributions.
    ///
    /// # Panics
    /// Panics if the distribution lists do not match the template's shape.
    pub fn new(
        template: Instance,
        task_costs: Vec<Dist>,
        dep_costs: Vec<(TaskId, TaskId, Dist)>,
        speeds: Vec<Dist>,
        links: Vec<(NodeId, NodeId, Dist)>,
    ) -> Self {
        assert_eq!(task_costs.len(), template.graph.task_count());
        assert_eq!(dep_costs.len(), template.graph.dependency_count());
        assert_eq!(speeds.len(), template.network.node_count());
        StochasticInstance {
            template,
            task_costs,
            dep_costs,
            speeds,
            links,
        }
    }

    /// The fixed topology shared by all realizations.
    pub fn template(&self) -> &Instance {
        &self.template
    }

    /// Draws a concrete instance.
    #[expect(
        clippy::disallowed_methods,
        reason = "a sample over a `+inf` template weight can be NaN (`inf + inf * z` for a negative normal draw `z`), and the clamp maps it to 0"
    )]
    pub fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> Instance {
        let mut inst = self.template.clone();
        for (t, d) in self.template.graph.tasks().zip(&self.task_costs) {
            let v = d.sample(rng).max(0.0);
            inst.graph.set_cost(t, v).expect("non-negative sample");
        }
        for (a, b, d) in &self.dep_costs {
            let v = d.sample(rng).max(0.0);
            inst.graph
                .set_dependency_cost(*a, *b, v)
                .expect("edge exists in template");
        }
        for (v, d) in self.template.network.nodes().zip(&self.speeds) {
            inst.network.set_speed(v, d.sample(rng).max(0.0));
        }
        for (u, v, d) in &self.links {
            inst.network.set_link(*u, *v, d.sample(rng).max(0.0));
        }
        // keep the stream length fixed regardless of template weights
        Dist::burn(rng);
        inst
    }

    /// The deterministic mean-weight instance (what a static scheduler sees).
    #[expect(
        clippy::disallowed_methods,
        reason = "a `Dist` is caller data: the mean of a uniform over `-inf..=inf` is NaN (`0.5 * (-inf + inf)`), and the clamp maps it to 0"
    )]
    pub fn expected_instance(&self) -> Instance {
        let mut inst = self.template.clone();
        for (t, d) in self.template.graph.tasks().zip(&self.task_costs) {
            inst.graph.set_cost(t, d.mean().max(0.0)).unwrap();
        }
        for (a, b, d) in &self.dep_costs {
            inst.graph
                .set_dependency_cost(*a, *b, d.mean().max(0.0))
                .unwrap();
        }
        for (v, d) in self.template.network.nodes().zip(&self.speeds) {
            inst.network.set_speed(v, d.mean().max(0.0));
        }
        for (u, v, d) in &self.links {
            inst.network.set_link(*u, *v, d.mean().max(0.0));
        }
        inst
    }
}

/// Executes a fixed plan under a (possibly different) realization: node
/// assignments and per-node execution order are kept, start times are
/// re-derived as `max(previous task on the node finishes, all input data
/// arrives)`. Returns the re-timed schedule.
///
/// # Panics
/// Panics if `plan` does not cover exactly the tasks of `realized`.
pub fn simulate_fixed(plan: &Schedule, realized: &Instance) -> Schedule {
    let g = &realized.graph;
    let n = &realized.network;
    assert_eq!(plan.assignments().len(), g.task_count());

    // execution order: per node, the plan's recorded order; across nodes we
    // process tasks in a precedence-respecting sweep
    let mut node_next: Vec<usize> = vec![0; plan.node_count()];
    let mut node_free: Vec<f64> = vec![0.0; plan.node_count()];
    let mut finish: Vec<Option<f64>> = vec![None; g.task_count()];
    let mut out: Vec<Assignment> = Vec::with_capacity(g.task_count());

    let mut progressed = true;
    while out.len() < g.task_count() {
        assert!(
            progressed,
            "fixed plan deadlocked under realization (cyclic node orders)"
        );
        progressed = false;
        for v in 0..plan.node_count() {
            let queue = plan.node_tasks(NodeId(v as u32));
            while node_next[v] < queue.len() {
                let t = queue[node_next[v]];
                // ready iff every predecessor has finished
                let mut data_ready = 0.0f64;
                let mut ready = true;
                for e in g.predecessors(t) {
                    match finish[e.task.index()] {
                        None => {
                            ready = false;
                            break;
                        }
                        Some(f) => {
                            let from = plan.assignment(e.task).node;
                            let arrive = f + n.comm_time(e.cost, from, NodeId(v as u32));
                            data_ready = later(data_ready, arrive);
                        }
                    }
                }
                if !ready {
                    break;
                }
                let start = later(node_free[v], data_ready);
                let fin = start + n.exec_time(g.cost(t), NodeId(v as u32));
                node_free[v] = fin;
                finish[t.index()] = Some(fin);
                out.push(Assignment {
                    task: t,
                    node: NodeId(v as u32),
                    start,
                    finish: fin,
                });
                node_next[v] += 1;
                progressed = true;
            }
        }
    }
    Schedule::from_assignments(plan.node_count(), out)
}

/// Monte-Carlo estimate of the makespan a statically planned schedule
/// achieves over `samples` realizations: returns `(mean, p95)`.
pub fn static_plan_makespan<R: Rng + ?Sized>(
    plan: &Schedule,
    stoch: &StochasticInstance,
    samples: usize,
    rng: &mut R,
) -> (f64, f64) {
    assert!(samples > 0);
    let mut ms: Vec<f64> = (0..samples)
        .map(|_| {
            let realized = stoch.realize(rng);
            simulate_fixed(plan, &realized).makespan()
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let mean = ms.iter().sum::<f64>() / samples as f64;
    let p95 = ms[((samples - 1) as f64 * 0.95).round() as usize];
    (mean, p95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, TaskGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 3.0);
        let c = g.add_task("c", 1.0);
        g.add_dependency(a, b, 1.0).unwrap();
        g.add_dependency(a, c, 1.0).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 1.0), g)
    }

    #[test]
    fn dist_means_and_bounds() {
        assert_eq!(Dist::Fixed(3.0).mean(), 3.0);
        assert_eq!(Dist::Uniform { lo: 1.0, hi: 3.0 }.mean(), 2.0);
        let j = Dist::jitter(10.0, 0.1);
        assert_eq!(j.mean(), 10.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let x = j.sample(&mut rng);
            assert!((7.0..=13.0).contains(&x));
        }
    }

    #[test]
    fn zero_cv_realizations_equal_template() {
        let inst = base();
        let stoch = StochasticInstance::jittered(&inst, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let r = stoch.realize(&mut rng);
        assert_eq!(r.to_json(), inst.to_json());
        assert_eq!(stoch.expected_instance().to_json(), inst.to_json());
    }

    #[test]
    fn realizations_vary_but_topology_is_fixed() {
        let inst = base();
        let stoch = StochasticInstance::jittered(&inst, 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let r1 = stoch.realize(&mut rng);
        let r2 = stoch.realize(&mut rng);
        assert_ne!(r1.graph.cost(TaskId(0)), r2.graph.cost(TaskId(0)));
        assert_eq!(r1.graph.dependency_count(), inst.graph.dependency_count());
        assert_eq!(r1.network.node_count(), inst.network.node_count());
    }

    #[test]
    fn simulate_fixed_reproduces_plan_on_expected_instance() {
        // executing the plan on the very instance it was planned for yields
        // times at least as good (ties) for append-style schedules
        let inst = base();
        let plan = {
            // simple hand plan: a on v1, b on v1, c on v0
            let mut ctx = crate::SchedContext::new();
            ctx.reset(&inst);
            ctx.place(TaskId(0), NodeId(1), 0.0);
            let (s, _) = ctx.eft(TaskId(1), NodeId(1), false);
            ctx.place(TaskId(1), NodeId(1), s);
            let (s, _) = ctx.eft(TaskId(2), NodeId(0), false);
            ctx.place(TaskId(2), NodeId(0), s);
            ctx.snapshot_schedule()
        };
        let sim = simulate_fixed(&plan, &inst);
        sim.verify(&inst).unwrap();
        assert!((sim.makespan() - plan.makespan()).abs() < 1e-9);
    }

    #[test]
    fn simulated_schedules_are_valid_under_perturbed_reality() {
        let inst = base();
        let stoch = StochasticInstance::jittered(&inst, 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = {
            let mut ctx = crate::SchedContext::new();
            ctx.reset(&inst);
            for t in inst.graph.topological_order() {
                let (s, _) = ctx.eft(t, NodeId(t.index() as u32 % 2), false);
                ctx.place(t, NodeId(t.index() as u32 % 2), s);
            }
            ctx.snapshot_schedule()
        };
        for _ in 0..20 {
            let realized = stoch.realize(&mut rng);
            let sim = simulate_fixed(&plan, &realized);
            sim.verify(&realized).unwrap();
        }
    }

    #[test]
    fn static_plan_makespan_mean_below_p95() {
        let inst = base();
        let stoch = StochasticInstance::jittered(&inst, 0.25);
        let plan = {
            let mut ctx = crate::SchedContext::new();
            ctx.reset(&inst);
            for t in inst.graph.topological_order() {
                let (s, _) = ctx.eft(t, NodeId(0), false);
                ctx.place(t, NodeId(0), s);
            }
            ctx.snapshot_schedule()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let (mean, p95) = static_plan_makespan(&plan, &stoch, 200, &mut rng);
        assert!(mean > 0.0 && p95 >= mean);
    }

    #[test]
    fn jitter_preserves_infinite_links() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = Instance::new(Network::complete(&[1.0, 1.0], f64::INFINITY), g);
        let stoch = StochasticInstance::jittered(&inst, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let r = stoch.realize(&mut rng);
        assert!(r.network.link(NodeId(0), NodeId(1)).is_infinite());
    }
}
