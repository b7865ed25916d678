//! Search-strategy ablation: is simulated annealing actually pulling its
//! weight in PISA, or would a dumber search find the same adversarial
//! instances? (A design-choice question DESIGN.md calls out; the paper
//! names genetic algorithms and other meta-heuristics as future work.)
//!
//! Three strategies share the PISA objective, perturbations and budget:
//!
//! * [`Strategy::Annealing`] — PISA proper (Metropolis acceptance, cooling);
//! * [`Strategy::HillClimb`] — accept only strict improvements;
//! * [`Strategy::RandomWalk`] — accept every perturbation (best-so-far is
//!   still tracked, so this is random search through instance space).

use crate::annealer::{AnnealScratch, Pisa, PisaConfig, PisaResult};
use crate::perturb::Perturber;
use rand::rngs::StdRng;
use saga_core::Instance;
use saga_schedulers::Scheduler;

/// An adversarial-search acceptance strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Metropolis acceptance with geometric cooling (PISA).
    Annealing,
    /// Greedy: accept only improvements over the current instance.
    HillClimb,
    /// Accept everything; equivalent to a random walk with memory.
    RandomWalk,
}

impl Strategy {
    /// All strategies, for sweep loops.
    pub const ALL: [Strategy; 3] = [
        Strategy::Annealing,
        Strategy::HillClimb,
        Strategy::RandomWalk,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Annealing => "annealing",
            Strategy::HillClimb => "hill-climb",
            Strategy::RandomWalk => "random-walk",
        }
    }

    /// Whether a step from ratio `cur` to `candidate` (no better than the
    /// run's best) is kept at temperature `t`. Only annealing draws from
    /// `rng`.
    pub(crate) fn accepts(self, cur: f64, candidate: f64, t: f64, rng: &mut StdRng) -> bool {
        match self {
            Strategy::Annealing => crate::annealer::accept(cur, candidate, t, rng),
            Strategy::HillClimb => candidate > cur,
            Strategy::RandomWalk => true,
        }
    }
}

/// Runs the adversarial search with the chosen `strategy`, using the same
/// restart/iteration budget as [`Pisa::run`] so results are comparable:
/// every strategy steps through the annealing loop, which cools on the
/// same schedule whatever the acceptance rule.
pub fn search(
    target: &dyn Scheduler,
    baseline: &dyn Scheduler,
    perturber: &dyn Perturber,
    config: PisaConfig,
    strategy: Strategy,
    init: &dyn Fn(&mut StdRng) -> Instance,
) -> PisaResult {
    let pisa = Pisa {
        target,
        baseline,
        perturber,
        config,
    };
    let mut ctx = saga_core::SchedContext::new();
    pisa.run_with(strategy, &mut ctx, &mut AnnealScratch::default(), init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::{initial_instance, GeneralPerturber};
    use saga_schedulers::{Cpop, Heft};

    fn quick(seed: u64) -> PisaConfig {
        PisaConfig {
            i_max: 150,
            restarts: 2,
            seed,
            ..PisaConfig::default()
        }
    }

    #[test]
    fn all_strategies_return_valid_results() {
        let p = GeneralPerturber::default();
        for strategy in Strategy::ALL {
            let res = search(&Heft, &Cpop, &p, quick(1), strategy, &|rng| {
                initial_instance(rng)
            });
            assert!(res.ratio >= res.initial_ratio, "{}", strategy.name());
            assert!(res.evaluations > 1);
        }
    }

    #[test]
    fn budgets_are_comparable() {
        let p = GeneralPerturber::default();
        let a = search(&Heft, &Cpop, &p, quick(2), Strategy::Annealing, &|rng| {
            initial_instance(rng)
        });
        let h = search(&Heft, &Cpop, &p, quick(2), Strategy::HillClimb, &|rng| {
            initial_instance(rng)
        });
        // same restart count, same per-run iteration budget
        assert_eq!(a.evaluations, h.evaluations);
    }

    #[test]
    fn strategies_are_deterministic() {
        let p = GeneralPerturber::default();
        for strategy in Strategy::ALL {
            let a = search(&Heft, &Cpop, &p, quick(3), strategy, &|rng| {
                initial_instance(rng)
            });
            let b = search(&Heft, &Cpop, &p, quick(3), strategy, &|rng| {
                initial_instance(rng)
            });
            assert_eq!(a.ratio, b.ratio, "{}", strategy.name());
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Annealing.name(), "annealing");
        assert_eq!(Strategy::ALL.len(), 3);
    }
}
