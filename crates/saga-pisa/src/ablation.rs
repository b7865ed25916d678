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

use crate::annealer::{AnnealScratch, PairTraces, Pisa, PisaConfig, PisaResult};
use crate::perturb::Perturber;
use rand::rngs::StdRng;
use rand::Rng;
use saga_core::{DirtyRegion, Instance};
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
}

/// Runs the adversarial search with the chosen `strategy`, using the same
/// restart/iteration budget as [`Pisa::run`] so results are comparable.
pub fn search(
    target: &dyn Scheduler,
    baseline: &dyn Scheduler,
    perturber: &dyn Perturber,
    config: PisaConfig,
    strategy: Strategy,
    init: &dyn Fn(&mut StdRng) -> Instance,
) -> PisaResult {
    let mut ctx = saga_core::SchedContext::new();
    let mut scratch = AnnealScratch::default();
    search_in(
        target,
        baseline,
        perturber,
        config,
        strategy,
        init,
        &mut ctx,
        &mut scratch,
    )
}

/// [`search`] borrowing the scheduling context and scratch instances from
/// the caller — the batch-runner entry point (one warm context per worker,
/// reused across every cell and restart).
#[allow(clippy::too_many_arguments)] // mirrors `search` plus the two borrows
pub fn search_in(
    target: &dyn Scheduler,
    baseline: &dyn Scheduler,
    perturber: &dyn Perturber,
    config: PisaConfig,
    strategy: Strategy,
    init: &dyn Fn(&mut StdRng) -> Instance,
    ctx: &mut saga_core::SchedContext,
    scratch: &mut AnnealScratch,
) -> PisaResult {
    let pisa = Pisa {
        target,
        baseline,
        perturber,
        config,
    };
    if strategy == Strategy::Annealing {
        return pisa.run_in(ctx, scratch, init);
    }
    let mut traces = std::mem::take(&mut scratch.traces);
    let res = crate::annealer::best_over_restarts(config, init, scratch, |start, rng, scratch| {
        run_flat(&pisa, start, rng, strategy, ctx, &mut traces, scratch)
    });
    scratch.traces = traces;
    res
}

/// Temperature-free search loop, budget-matched to the annealing run (which
/// stops when `T` crosses `T_min` or at `I_max`, whichever comes first).
/// Returns `(best ratio, initial ratio, evaluations)`; the best instance is
/// left in `scratch.best`.
fn run_flat(
    pisa: &Pisa<'_>,
    start: &Instance,
    rng: &mut StdRng,
    strategy: Strategy,
    ctx: &mut saga_core::SchedContext,
    traces: &mut PairTraces,
    scratch: &mut AnnealScratch,
) -> (f64, f64, usize) {
    let cfg = &pisa.config;
    let natural = ((cfg.t_min / cfg.t_max).ln() / cfg.alpha.ln()).ceil() as usize;
    let iters = natural.min(cfg.i_max);
    let initial_ratio = pisa.ratio_incremental(start, ctx, traces, &DirtyRegion::full());
    let mut evaluations = 1;
    crate::annealer::fill(&mut scratch.current, start);
    crate::annealer::fill(&mut scratch.candidate, start);
    crate::annealer::fill(&mut scratch.best, start);
    let current = scratch.current.as_mut().expect("filled above");
    let candidate = scratch.candidate.as_mut().expect("filled above");
    let best = scratch.best.as_mut().expect("filled above");
    let mut cur_ratio = initial_ratio;
    let mut best_ratio = initial_ratio;
    // dirt accumulated since the traces' last evaluation — same protocol
    // as the annealing loop's (see `run_annealing`)
    let mut pending = DirtyRegion::clean();
    for _ in 0..iters {
        let accepts = |r: f64, cur: f64| match strategy {
            Strategy::HillClimb => r > cur,
            Strategy::RandomWalk => true,
            Strategy::Annealing => unreachable!("handled by Pisa::run_in"),
        };
        // in-place fast path with bitwise undo, mirroring the annealer's
        if let Some(undo) = pisa.perturber.perturb_undoable(current, rng) {
            let mut dirty = undo.dirty_region();
            dirty.merge(&pending);
            let r = pisa.ratio_incremental(current, ctx, traces, &dirty);
            evaluations += 1;
            pending = DirtyRegion::clean();
            if r > best_ratio {
                best.clone_from(current);
                best_ratio = r;
            }
            if accepts(r, cur_ratio) {
                cur_ratio = r;
            } else {
                undo.revert(current);
                pending = undo.revert_dirty_region();
            }
        } else {
            candidate.clone_from(current);
            pisa.perturber.perturb(candidate, rng);
            let r = pisa.ratio_incremental(candidate, ctx, traces, &DirtyRegion::full());
            evaluations += 1;
            if r > best_ratio {
                best.clone_from(candidate);
                best_ratio = r;
            }
            if accepts(r, cur_ratio) {
                std::mem::swap(current, candidate);
                cur_ratio = r;
                pending = DirtyRegion::clean();
            } else {
                pending = DirtyRegion::full();
            }
        }
    }
    let _ = (cur_ratio, rng.gen::<u8>()); // keep rng streams distinct per restart
    (best_ratio, initial_ratio, evaluations)
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
