//! Adversarial comparison under metrics other than makespan — the paper's
//! future-work direction "other performance metrics (e.g., throughput,
//! energy consumption, cost)". Each objective is a ratio
//! `metric(target's schedule) / metric(baseline's schedule)` (inverted for
//! throughput, where larger is better), pluggable into the
//! [`maximize_in`](crate::annealer::maximize_in()) generic annealer.

use crate::annealer::{maximize_in, AnnealScratch, PairTraces, PisaConfig, PisaResult};
use crate::makespan_ratio;
use crate::perturb::Perturber;
use rand::rngs::StdRng;
use saga_core::metrics::{energy, rental_cost, throughput, EnergyModel};
use saga_core::{DirtyRegion, Instance};
use saga_schedulers::Scheduler;

/// The schedule-quality metric being compared adversarially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Total execution time (the paper's headline metric).
    Makespan,
    /// Energy under a speed-proportional power model with the given idle
    /// fraction and per-unit communication energy.
    Energy {
        /// Idle power as a fraction of active power.
        idle_fraction: f64,
        /// Joules per data unit moved across nodes.
        comm_energy_per_unit: f64,
    },
    /// Rental cost with price proportional to node speed (fast nodes cost
    /// proportionally more per unit time).
    RentalCost,
    /// Task throughput; the adversarial ratio is inverted
    /// (`baseline / target`) because larger throughput is better.
    Throughput,
}

impl Objective {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Makespan => "makespan",
            Objective::Energy { .. } => "energy",
            Objective::RentalCost => "cost",
            Objective::Throughput => "throughput",
        }
    }

    /// Evaluates the metric of `sched` on `inst` (lower is better for every
    /// variant except `Throughput`).
    pub fn evaluate(self, inst: &Instance, sched: &saga_core::Schedule) -> f64 {
        match self {
            Objective::Makespan => sched.makespan(),
            Objective::Energy {
                idle_fraction,
                comm_energy_per_unit,
            } => {
                let model =
                    EnergyModel::speed_proportional(inst, idle_fraction, comm_energy_per_unit);
                energy(inst, sched, &model)
            }
            Objective::RentalCost => {
                let price: Vec<f64> = inst.network.speeds().to_vec();
                rental_cost(inst, sched, &price)
            }
            Objective::Throughput => throughput(inst, sched),
        }
    }

    /// The adversarial ratio of `target` against `baseline` on `inst` under
    /// this metric (always "how much worse is the target", > 1 is worse).
    /// Both schedules come from scratch in a fresh scheduling context.
    pub fn ratio(self, target: &dyn Scheduler, baseline: &dyn Scheduler, inst: &Instance) -> f64 {
        let mut ctx = saga_core::SchedContext::new();
        ctx.pin_tables(inst);
        let ts = target.schedule_into(inst, &mut ctx);
        let bs = baseline.schedule_into(inst, &mut ctx);
        self.compose(inst, &ts, &bs)
    }

    /// [`Objective::ratio`] with incremental delta-evaluation on a context
    /// the annealer keeps warm across evaluations: the
    /// kernel refreshes only the table pieces `dirty` names and both
    /// schedulers replay the unchanged prefix of their recorded runs before
    /// materializing the (bit-identical) schedules the metric needs. A
    /// context on the `incremental: false` reference path takes
    /// [`DirtyRegion::full`] for every call, as in
    /// [`Pisa::ratio_incremental`](crate::Pisa::ratio_incremental): the
    /// kernel and the schedulers widen it.
    pub fn ratio_incremental(
        self,
        target: &dyn Scheduler,
        baseline: &dyn Scheduler,
        inst: &Instance,
        ctx: &mut saga_core::SchedContext,
        traces: &mut PairTraces,
        dirty: &DirtyRegion,
    ) -> f64 {
        ctx.pin_tables_dirty(inst, dirty);
        let ts = target.schedule_incremental_into(inst, ctx, &mut traces.target, dirty);
        let bs = baseline.schedule_incremental_into(inst, ctx, &mut traces.baseline, dirty);
        ctx.unpin_tables();
        self.compose(inst, &ts, &bs)
    }

    /// The adversarial ratio from the two materialized schedules.
    fn compose(self, inst: &Instance, ts: &saga_core::Schedule, bs: &saga_core::Schedule) -> f64 {
        let (a, b) = match self {
            // larger throughput is better: invert
            Objective::Throughput => (self.evaluate(inst, bs), self.evaluate(inst, ts)),
            _ => (self.evaluate(inst, ts), self.evaluate(inst, bs)),
        };
        makespan_ratio(a, b)
    }
}

/// Runs the PISA annealing schedule maximizing the metric ratio of `target`
/// against `baseline`.
pub fn metric_search(
    objective: Objective,
    target: &dyn Scheduler,
    baseline: &dyn Scheduler,
    perturber: &dyn Perturber,
    config: PisaConfig,
    init: &dyn Fn(&mut StdRng) -> Instance,
) -> PisaResult {
    let mut ctx = saga_core::SchedContext::new();
    let mut scratch = AnnealScratch::default();
    metric_search_in(
        objective,
        target,
        baseline,
        perturber,
        config,
        init,
        &mut ctx,
        &mut scratch,
    )
}

/// [`metric_search`] borrowing the scheduling context and scratch instances
/// from the caller — the batch-runner entry point.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors `metric_search` plus the two borrows"
)]
pub fn metric_search_in(
    objective: Objective,
    target: &dyn Scheduler,
    baseline: &dyn Scheduler,
    perturber: &dyn Perturber,
    config: PisaConfig,
    init: &dyn Fn(&mut StdRng) -> Instance,
    ctx: &mut saga_core::SchedContext,
    scratch: &mut AnnealScratch,
) -> PisaResult {
    let mut traces = std::mem::take(&mut scratch.traces);
    let res = maximize_in(
        &mut |inst, dirty| {
            objective.ratio_incremental(target, baseline, inst, ctx, &mut traces, dirty)
        },
        perturber,
        config,
        init,
        scratch,
    );
    scratch.traces = traces;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::{initial_instance, GeneralPerturber};
    use rand::SeedableRng;
    use saga_schedulers::{FastestNode, Heft};

    const ENERGY: Objective = Objective::Energy {
        idle_fraction: 0.2,
        comm_energy_per_unit: 1.0,
    };

    #[test]
    fn objective_names() {
        assert_eq!(Objective::Makespan.name(), "makespan");
        assert_eq!(ENERGY.name(), "energy");
        assert_eq!(Objective::RentalCost.name(), "cost");
        assert_eq!(Objective::Throughput.name(), "throughput");
    }

    #[test]
    fn makespan_objective_matches_pisa_ratio() {
        let mut rng = StdRng::seed_from_u64(0);
        let inst = initial_instance(&mut rng);
        let via_metric = Objective::Makespan.ratio(&Heft, &FastestNode, &inst);
        let perturber = GeneralPerturber::default();
        let pisa = crate::Pisa {
            target: &Heft,
            baseline: &FastestNode,
            perturber: &perturber,
            config: PisaConfig::default(),
        };
        assert_eq!(via_metric, pisa.ratio(&inst));
    }

    #[test]
    fn throughput_ratio_is_inverted_consistently() {
        // identical schedulers => ratio exactly 1 under every objective
        let mut rng = StdRng::seed_from_u64(1);
        let inst = initial_instance(&mut rng);
        for obj in [
            Objective::Makespan,
            ENERGY,
            Objective::RentalCost,
            Objective::Throughput,
        ] {
            let r = obj.ratio(&Heft, &Heft, &inst);
            assert!((r - 1.0).abs() < 1e-12, "{}: {r}", obj.name());
        }
    }

    #[test]
    fn energy_search_finds_wasteful_instances_for_heft() {
        // FastestNode keeps one node busy and the rest idle-only; HEFT
        // spreads work and pays communication energy — an adversarial
        // energy gap must exist
        let perturber = GeneralPerturber::default();
        let res = metric_search(
            ENERGY,
            &Heft,
            &FastestNode,
            &perturber,
            PisaConfig {
                i_max: 200,
                restarts: 2,
                seed: 3,
                ..PisaConfig::default()
            },
            &|rng| initial_instance(rng),
        );
        assert!(
            res.ratio > 1.0,
            "no energy-adversarial instance: {}",
            res.ratio
        );
    }

    #[test]
    fn metric_search_is_deterministic() {
        let perturber = GeneralPerturber::default();
        let cfg = PisaConfig {
            i_max: 100,
            restarts: 1,
            seed: 5,
            ..PisaConfig::default()
        };
        let a = metric_search(
            Objective::RentalCost,
            &Heft,
            &FastestNode,
            &perturber,
            cfg,
            &|r| initial_instance(r),
        );
        let b = metric_search(
            Objective::RentalCost,
            &Heft,
            &FastestNode,
            &perturber,
            cfg,
            &|r| initial_instance(r),
        );
        assert_eq!(a.ratio, b.ratio);
    }
}
