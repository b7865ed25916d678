//! The simulated-annealing core of PISA (the paper's Algorithm 1).

use crate::ablation::Strategy;
use crate::makespan_ratio;
use crate::perturb::Perturber;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext};
use saga_schedulers::Scheduler;

/// Annealing-schedule constants. Defaults are exactly the paper's:
/// `T_max = 10`, `T_min = 0.1`, `I_max = 1000`, `alpha = 0.99`, 5 restarts.
#[derive(Debug, Clone, Copy)]
pub struct PisaConfig {
    /// Initial temperature.
    pub t_max: f64,
    /// Temperature at which a run stops.
    pub t_min: f64,
    /// Hard iteration cap per run.
    pub i_max: usize,
    /// Geometric cooling factor.
    pub alpha: f64,
    /// Independent restarts from fresh initial instances.
    pub restarts: usize,
    /// Base RNG seed (restart `k` uses `seed + k`).
    pub seed: u64,
}

impl Default for PisaConfig {
    fn default() -> Self {
        PisaConfig {
            t_max: 10.0,
            t_min: 0.1,
            i_max: 1000,
            alpha: 0.99,
            restarts: 5,
            seed: 0x9153A,
        }
    }
}

impl PisaConfig {
    /// A cheaper schedule for CI and examples: 2 restarts of 250 iterations.
    pub fn quick(seed: u64) -> Self {
        PisaConfig {
            i_max: 250,
            restarts: 2,
            seed,
            ..PisaConfig::default()
        }
    }
}

/// Outcome of a PISA search.
#[derive(Debug, Clone)]
pub struct PisaResult {
    /// The instance maximizing the makespan ratio.
    pub instance: Instance,
    /// `m(S_A) / m(S_B)` on that instance.
    pub ratio: f64,
    /// Ratio of the initial instance of the best restart (for "how much did
    /// annealing help" diagnostics).
    pub initial_ratio: f64,
    /// Candidate evaluations performed by the winning restart (initial
    /// evaluation included).
    pub evaluations: usize,
}

/// The two per-scheduler run traces an adversarial pair evaluation carries
/// between annealing iterations: the target's and the baseline's recorded
/// previous runs, replayed incrementally when the perturbation's dirty
/// region allows (see [`Pisa::ratio_incremental`]).
#[derive(Debug, Default)]
pub struct PairTraces {
    /// The target scheduler's recorded run.
    pub target: RunTrace,
    /// The baseline scheduler's recorded run.
    pub baseline: RunTrace,
}

/// Reusable instance slots for the annealing loop. A search keeps three
/// persistent instances (current, per-run best, cross-restart best) plus
/// the pair's two run traces; borrowing them from the caller
/// lets a batch runner amortize the buffers across every restart of every
/// cell a worker executes, instead of reallocating them per run.
#[derive(Debug, Default)]
pub struct AnnealScratch {
    pub(crate) current: Option<Instance>,
    pub(crate) best: Option<Instance>,
    pub(crate) best_overall: Option<Instance>,
    pub(crate) traces: PairTraces,
}

/// Copies `src` into `slot`, reusing the slot's buffers when warm.
pub(crate) fn fill(slot: &mut Option<Instance>, src: &Instance) {
    match slot {
        Some(inst) => inst.clone_from(src),
        None => *slot = Some(src.clone()),
    }
}

/// The PISA search engine for one ordered scheduler pair.
pub struct Pisa<'a> {
    /// Scheduler whose failures we are hunting (`A`, the numerator).
    pub target: &'a dyn Scheduler,
    /// Baseline scheduler (`B`, the denominator).
    pub baseline: &'a dyn Scheduler,
    /// Mutation strategy.
    pub perturber: &'a dyn Perturber,
    /// Annealing constants.
    pub config: PisaConfig,
}

impl Pisa<'_> {
    /// The objective on one instance, from scratch in a fresh scheduling
    /// context. The two scheduler runs share one cost-table build via
    /// [`SchedContext::pin_tables`].
    pub fn ratio(&self, inst: &Instance) -> f64 {
        let mut ctx = SchedContext::new();
        ctx.pin_tables(inst);
        let a = self.target.makespan_into(inst, &mut ctx);
        let b = self.baseline.makespan_into(inst, &mut ctx);
        makespan_ratio(a, b)
    }

    /// [`ratio`](Self::ratio) with incremental delta-evaluation, reusing a
    /// scheduling context the annealer keeps warm across evaluations:
    /// `dirty` describes everything that changed in `inst` since the last
    /// call with these `traces` (the annealer derives it from the
    /// perturbation undo records), the kernel refreshes exactly the stale
    /// cost-table pieces, and each scheduler replays the unchanged prefix
    /// of its recorded previous run. Value-identical to `ratio` by
    /// construction (and pinned by the golden PISA-cell fixture); a
    /// [`DirtyRegion::full`] region *is* `ratio` plus trace recording.
    /// A context on the `incremental: false` reference path
    /// ([`EvalPaths::widen`](saga_core::EvalPaths::widen)) takes that full
    /// region for every call: the kernel and the schedulers widen it.
    pub fn ratio_incremental(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        traces: &mut PairTraces,
        dirty: &DirtyRegion,
    ) -> f64 {
        // No ratio-level clean shortcut: a composite scheduler's outer trace
        // holds its first *component's* makespan (Duplex stores MinMin there
        // and MaxMin in the sub-trace), so the per-scheduler clean skips
        // inside `makespan_incremental` — which compose correctly — are the
        // ones that handle an unchanged instance.
        ctx.pin_tables_dirty(inst, dirty);
        let a = self
            .target
            .makespan_incremental(inst, ctx, &mut traces.target, dirty);
        let b = self
            .baseline
            .makespan_incremental(inst, ctx, &mut traces.baseline, dirty);
        ctx.unpin_tables();
        makespan_ratio(a, b)
    }

    /// Runs all restarts from initial instances produced by `init` and
    /// returns the best result.
    ///
    /// Acceptance follows the standard Metropolis rule for
    /// maximization, `exp(-(r_cur - r') / T)` — see DESIGN.md for why the
    /// paper's printed formula is replaced (it is non-monotonic in solution
    /// quality).
    pub fn run(&self, init: &dyn Fn(&mut StdRng) -> Instance) -> PisaResult {
        let mut ctx = SchedContext::new();
        let mut scratch = AnnealScratch::default();
        self.run_in(&mut ctx, &mut scratch, init)
    }

    /// [`run`](Self::run) borrowing the scheduling context and the annealing
    /// scratch instances from the caller — the batch-runner entry point: a
    /// worker thread keeps one warm context and one scratch across every
    /// cell it executes, so back-to-back cells allocate nothing.
    pub fn run_in(
        &self,
        ctx: &mut SchedContext,
        scratch: &mut AnnealScratch,
        init: &dyn Fn(&mut StdRng) -> Instance,
    ) -> PisaResult {
        self.run_with(Strategy::Annealing, ctx, scratch, init)
    }

    /// [`run_in`](Self::run_in) under `strategy`'s acceptance rule.
    pub(crate) fn run_with(
        &self,
        strategy: Strategy,
        ctx: &mut SchedContext,
        scratch: &mut AnnealScratch,
        init: &dyn Fn(&mut StdRng) -> Instance,
    ) -> PisaResult {
        let mut traces = std::mem::take(&mut scratch.traces);
        let res = maximize_with(
            strategy,
            &mut |inst, dirty| self.ratio_incremental(inst, ctx, &mut traces, dirty),
            self.perturber,
            self.config,
            init,
            scratch,
        );
        scratch.traces = traces;
        res
    }
}

/// Generic adversarial annealer: maximizes an arbitrary instance objective
/// (makespan ratio, energy ratio, throughput gap, ...) with PISA's schedule.
/// [`Pisa::run_in`] is `maximize_in` with the makespan-ratio objective; the
/// metric-ratio objectives of [`crate::metric`] plug in here too. All
/// restarts (and, for a batch runner, all cells) share the caller's scratch
/// instance buffers; the winning restart's best instance is kept in the
/// scratch and cloned out exactly once, into the returned [`PisaResult`].
///
/// The objective receives, alongside the instance, the [`DirtyRegion`]
/// covering everything that changed since the objective's *previous* call
/// in this search (the first call of each restart gets
/// [`DirtyRegion::full`]) — incremental objectives like
/// [`Pisa::ratio_incremental`] reuse their recorded runs through it, and
/// plain objectives simply ignore it.
pub fn maximize_in(
    objective: &mut dyn FnMut(&Instance, &DirtyRegion) -> f64,
    perturber: &dyn Perturber,
    config: PisaConfig,
    init: &dyn Fn(&mut StdRng) -> Instance,
    scratch: &mut AnnealScratch,
) -> PisaResult {
    maximize_with(
        Strategy::Annealing,
        objective,
        perturber,
        config,
        init,
        scratch,
    )
}

/// [`maximize_in`] under `strategy`'s acceptance rule: the restart loop.
/// Restart `k` seeds its RNG with `seed + k`, draws a start from `init`
/// and runs [`run_annealing`]. Strictly better ratios win (ties keep the
/// earlier restart); the winner's instance is kept in
/// `scratch.best_overall` and cloned out exactly once.
pub(crate) fn maximize_with(
    strategy: Strategy,
    objective: &mut dyn FnMut(&Instance, &DirtyRegion) -> f64,
    perturber: &dyn Perturber,
    config: PisaConfig,
    init: &dyn Fn(&mut StdRng) -> Instance,
    scratch: &mut AnnealScratch,
) -> PisaResult {
    let mut best: Option<(f64, f64, usize)> = None;
    for k in 0..config.restarts {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(k as u64));
        let start = init(&mut rng);
        let run = run_annealing(
            objective, perturber, config, strategy, &start, &mut rng, scratch,
        );
        if best.is_none_or(|(best_ratio, _, _)| run.0 > best_ratio) {
            best = Some(run);
            std::mem::swap(&mut scratch.best, &mut scratch.best_overall);
        }
    }
    let (ratio, initial_ratio, evaluations) = best.expect("restarts >= 1");
    PisaResult {
        instance: scratch
            .best_overall
            .as_ref()
            .expect("winning restart stored its best instance")
            .clone(),
        ratio,
        initial_ratio,
        evaluations,
    }
}

/// The annealing loop proper: one run from `start`, perturbing the
/// scratch's `current` instance in place and reverting a rejected step
/// through its undo record, with the best kept by a buffer-reusing
/// `clone_from`, so a run's steady state performs no instance allocation
/// at all. A step that beats the run's best is always kept; any other goes
/// to `strategy`'s acceptance rule. Every strategy cools on the same
/// schedule, so all stop after the same number of steps. Returns
/// `(best ratio, initial ratio, evaluations)`; the best instance is left
/// in `scratch.best`.
fn run_annealing(
    objective: &mut dyn FnMut(&Instance, &DirtyRegion) -> f64,
    perturber: &dyn Perturber,
    config: PisaConfig,
    strategy: Strategy,
    start: &Instance,
    rng: &mut StdRng,
    scratch: &mut AnnealScratch,
) -> (f64, f64, usize) {
    let initial_ratio = objective(start, &DirtyRegion::full());
    let mut evaluations = 1;
    fill(&mut scratch.current, start);
    fill(&mut scratch.best, start);
    let current = scratch.current.as_mut().expect("filled above");
    let best = scratch.best.as_mut().expect("filled above");
    let mut cur_ratio = initial_ratio;
    let mut best_ratio = initial_ratio;
    // Everything that changed in `current` since the objective last saw an
    // instance: empty after an evaluation is accepted (the traces describe
    // exactly the accepted state), the perturbation's own dirty region
    // after a rejection (the traces describe the rejected candidate, one
    // perturbation away from `current`, and a revert dirties what the
    // perturbation did).
    let mut pending = DirtyRegion::clean();

    let mut t = config.t_max;
    let mut iter = 0;
    while t > config.t_min && iter < config.i_max {
        // perturb the current instance in place and revert on rejection:
        // no per-iteration instance copy, and the revert is bitwise
        let undo = perturber
            .perturb_undoable(current, rng)
            .expect(UNDO_CONTRACT);
        let mut dirty = undo.dirty_region();
        dirty.merge(&pending);
        let r = objective(current, &dirty);
        evaluations += 1;
        pending = DirtyRegion::clean();
        if r > best_ratio {
            best.clone_from(current);
            best_ratio = r;
            cur_ratio = r;
        } else if strategy.accepts(cur_ratio, r, t, rng) {
            cur_ratio = r;
        } else {
            undo.revert(current);
            pending = undo.dirty_region();
        }
        t *= config.alpha;
        iter += 1;
    }
    (best_ratio, initial_ratio, evaluations)
}

/// The panic message for a [`Perturber`] that breaks its contract.
const UNDO_CONTRACT: &str =
    "Perturber::perturb_undoable must return Some: the search reverts rejected steps through it";

/// Metropolis acceptance for a maximization over ratios; handles the
/// infinite ratios that zero-weight instances produce.
pub(crate) fn accept(cur: f64, candidate: f64, t: f64, rng: &mut StdRng) -> bool {
    if candidate >= cur {
        return true;
    }
    if candidate.is_infinite() {
        return true; // cur must be infinite too (>= case), defensive
    }
    if cur.is_infinite() {
        return false; // never step down from an unbounded ratio
    }
    let p = (-(cur - candidate) / t).exp();
    rng.gen::<f64>() < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perturb::{initial_instance, GeneralPerturber};
    use saga_schedulers::{Cpop, FastestNode, Heft};

    #[test]
    fn accept_is_monotonic_in_quality_and_temperature() {
        let mut rng = StdRng::seed_from_u64(0);
        // equal or better always accepted
        assert!(accept(1.0, 1.0, 0.1, &mut rng));
        assert!(accept(1.0, 2.0, 0.1, &mut rng));
        // large drop at tiny temperature: essentially never
        let mut hits = 0;
        for _ in 0..1000 {
            if accept(5.0, 1.0, 0.1, &mut rng) {
                hits += 1;
            }
        }
        assert_eq!(hits, 0, "p = e^-40");
        // same drop at high temperature: often
        let mut hits = 0;
        for _ in 0..1000 {
            if accept(5.0, 1.0, 10.0, &mut rng) {
                hits += 1;
            }
        }
        assert!(hits > 400, "p = e^-0.4 ~ 0.67, got {hits}/1000");
        // infinite current is never abandoned
        assert!(!accept(f64::INFINITY, 1.0, 10.0, &mut rng));
    }

    #[test]
    fn finds_heft_losing_to_cpop() {
        // the paper's headline claim, in miniature: even a short search
        // finds an instance where HEFT is >= 1.2x worse than CPoP
        // (seed chosen for the workspace's vendored StdRng stream; this
        // seed's short run lands at ratio ~5.0, far clear of the bound)
        let pisa = Pisa {
            target: &Heft,
            baseline: &Cpop,
            perturber: &GeneralPerturber::default(),
            config: PisaConfig::quick(2),
        };
        let res = pisa.run(&|rng| initial_instance(rng));
        assert!(
            res.ratio >= 1.2,
            "expected an adversarial instance, best ratio {}",
            res.ratio
        );
        // and the ratio is real: recompute from the instance
        let again = pisa.ratio(&res.instance);
        assert!(
            (again - res.ratio).abs() < 1e-9 || (again.is_infinite() && res.ratio.is_infinite())
        );
    }

    #[test]
    fn best_ratio_never_below_initial() {
        let pisa = Pisa {
            target: &FastestNode,
            baseline: &Heft,
            perturber: &GeneralPerturber::default(),
            config: PisaConfig::quick(2),
        };
        let res = pisa.run(&|rng| initial_instance(rng));
        assert!(res.ratio >= res.initial_ratio);
        assert!(res.evaluations > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let pisa = Pisa {
            target: &Heft,
            baseline: &FastestNode,
            perturber: &GeneralPerturber::default(),
            config: PisaConfig::quick(3),
        };
        let a = pisa.run(&|rng| initial_instance(rng));
        let b = pisa.run(&|rng| initial_instance(rng));
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(a.instance.to_json(), b.instance.to_json());
    }

    #[test]
    fn iteration_budget_is_respected() {
        // with alpha = 0.99, T falls below 0.1 after ~459 iterations, so a
        // 250-cap run performs at most 251 evaluations (initial + 250)
        let pisa = Pisa {
            target: &Heft,
            baseline: &Cpop,
            perturber: &GeneralPerturber::default(),
            config: PisaConfig {
                restarts: 1,
                i_max: 250,
                ..PisaConfig::default()
            },
        };
        let res = pisa.run(&|rng| initial_instance(rng));
        assert!(res.evaluations <= 251, "{}", res.evaluations);
        // and the paper's full schedule stops at T_min, not I_max
        let full = PisaConfig::default();
        let natural_stop = ((full.t_min / full.t_max).ln() / full.alpha.ln()).ceil() as usize;
        assert!(
            natural_stop < full.i_max,
            "T_min binds first: {natural_stop}"
        );
    }
}
