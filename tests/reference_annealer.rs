//! The annealer against Algorithm 1 as written.
//!
//! The annealer skips the objective on steps whose outcome is already
//! decided: a perturbation that left the instance unchanged scores the
//! current ratio, and once a restart's best is +∞ neither its remaining
//! steps nor any later restart can replace it. It also evaluates
//! incrementally, through dirty regions and recorded runs. The reference
//! loop below does none of that: every step perturbs a copy of the current
//! instance and evaluates it from scratch through `Pisa::ratio`, on a
//! fresh context, and every restart runs to the end of its schedule. Both
//! must return the same bits (ratio, initial ratio, step count, witness),
//! and the annealer must call its objective exactly as often as the steps
//! that were not decided beforehand.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::Instance;
use saga::pisa::ablation::{search, Strategy};
use saga::pisa::annealer::{maximize_in, AnnealScratch, PairTraces, Pisa, PisaConfig, PisaResult};
use saga::pisa::constraints::{homogenize_for_pair, restrict_for_pair};
use saga::pisa::perturb::{initial_instance, GeneralPerturber, WeightRange};
use saga::pisa::{pairwise_cells, CellKind, SearchCell};
use saga::schedulers::by_name;

/// The acceptance rules, written out: Metropolis for annealing.
fn accepts(strategy: Strategy, cur: f64, candidate: f64, t: f64, rng: &mut StdRng) -> bool {
    match strategy {
        Strategy::Annealing => {
            candidate >= cur || rng.gen::<f64>() < (-(cur - candidate) / t).exp()
        }
        Strategy::HillClimb => candidate > cur,
        Strategy::RandomWalk => true,
    }
}

/// Algorithm 1 with every step evaluated from scratch, and the number of
/// objective calls whose outcome was not decided beforehand: each
/// initial evaluation of a restart that starts while the best is finite,
/// and each step that changes the instance while its restart's best is
/// finite.
fn reference(
    pisa: &Pisa,
    strategy: Strategy,
    init: &dyn Fn(&mut StdRng) -> Instance,
) -> (PisaResult, usize) {
    let c = pisa.config;
    let mut best: Option<PisaResult> = None;
    let mut calls = 0;
    for k in 0..c.restarts {
        let mut rng = StdRng::seed_from_u64(c.seed.wrapping_add(k as u64));
        let mut current = init(&mut rng);
        let initial_ratio = pisa.ratio(&current);
        let decided = best.as_ref().is_some_and(|b| b.ratio == f64::INFINITY);
        calls += usize::from(!decided);
        let (mut cur, mut run_best, mut run_inst) = (initial_ratio, initial_ratio, current.clone());
        let (mut t, mut steps) = (c.t_max, 1);
        while t > c.t_min && steps <= c.i_max {
            let mut candidate = current.clone();
            pisa.perturber.perturb(&mut candidate, &mut rng);
            let changed = candidate.to_json() != current.to_json();
            calls += usize::from(!decided && run_best < f64::INFINITY && changed);
            let r = pisa.ratio(&candidate);
            if r > run_best {
                run_best = r;
                run_inst = candidate.clone();
                cur = r;
                current = candidate;
            } else if accepts(strategy, cur, r, t, &mut rng) {
                cur = r;
                current = candidate;
            }
            t *= c.alpha;
            steps += 1;
        }
        if best.as_ref().is_none_or(|b| run_best > b.ratio) {
            best = Some(PisaResult {
                instance: run_inst,
                ratio: run_best,
                initial_ratio,
                evaluations: steps,
            });
        }
    }
    (best.expect("restarts >= 1"), calls)
}

/// `maximize_in` with the incremental makespan-ratio objective, as
/// `Pisa::run_in` calls it, and the number of objective calls it made.
fn counted(pisa: &Pisa, init: &dyn Fn(&mut StdRng) -> Instance) -> (PisaResult, usize) {
    let mut ctx = saga::core::SchedContext::new();
    let mut traces = PairTraces::default();
    let mut calls = 0;
    let res = maximize_in(
        &mut |inst, dirty| {
            calls += 1;
            pisa.ratio_incremental(inst, &mut ctx, &mut traces, dirty)
        },
        pisa.perturber,
        pisa.config,
        init,
        &mut AnnealScratch::default(),
    );
    (res, calls)
}

fn assert_same(label: &str, got: &PisaResult, want: &PisaResult) {
    assert_eq!(got.ratio.to_bits(), want.ratio.to_bits(), "{label} ratio");
    assert_eq!(
        got.initial_ratio.to_bits(),
        want.initial_ratio.to_bits(),
        "{label} initial ratio"
    );
    assert_eq!(got.evaluations, want.evaluations, "{label} evaluations");
    assert_eq!(
        got.instance.to_json(),
        want.instance.to_json(),
        "{label} witness"
    );
}

/// A cell's result from `SearchCell::run`, on a context and scratch warmed
/// by the cells before it.
fn run_cells(cells: &[SearchCell]) -> Vec<PisaResult> {
    let mut ctx = saga::core::SchedContext::new();
    let mut scratch = AnnealScratch::default();
    cells
        .iter()
        .map(|c| c.run(&mut ctx, &mut scratch))
        .collect()
}

fn names(cell: &SearchCell) -> (&str, &str) {
    match &cell.kind {
        CellKind::Pair { target, baseline }
        | CellKind::Ablation {
            target, baseline, ..
        } => (target, baseline),
        other => panic!("no pair cell: {other:?}"),
    }
}

/// The reduced-budget fig4 pairs the first test runs: three reach +∞
/// (OLB~CPoP in its first restart, so two restarts are skipped whole) and
/// two stop at a large finite ratio, so every step of theirs runs.
const FIG4_PAIRS: [(&str, bool); 5] = [
    ("pair/OLB~CPoP", true),
    ("pair/WBA~CPoP", true),
    ("pair/ETF~MET", true),
    ("pair/OLB~ETF", false),
    ("pair/WBA~MinMin", false),
];

#[test]
fn fig4_pairs_match_the_reference() {
    let config = PisaConfig {
        i_max: 150,
        restarts: 3,
        seed: saga::pisa::FIG4_SEED,
        ..PisaConfig::default()
    };
    let cells: Vec<SearchCell> = pairwise_cells(&saga::schedulers::benchmark_schedulers(), config)
        .into_iter()
        .filter(|c| FIG4_PAIRS.iter().any(|(label, _)| c.label == *label))
        .collect();
    assert_eq!(cells.len(), FIG4_PAIRS.len());
    for (cell, got) in cells.iter().zip(run_cells(&cells)) {
        let (target, baseline) = names(cell);
        let (t, b) = (by_name(target).unwrap(), by_name(baseline).unwrap());
        let perturber = restrict_for_pair(GeneralPerturber::default(), target, baseline);
        let pisa = Pisa {
            target: &*t,
            baseline: &*b,
            perturber: &perturber,
            config: cell.config,
        };
        let init = |rng: &mut StdRng| {
            let mut inst = initial_instance(rng);
            homogenize_for_pair(&mut inst, target, baseline);
            inst
        };
        let (want, want_calls) = reference(&pisa, Strategy::Annealing, &init);
        assert_same(&cell.label, &got, &want);
        let (again, calls) = counted(&pisa, &init);
        assert_same(&cell.label, &again, &want);
        assert_eq!(calls, want_calls, "{} objective calls", cell.label);
        let unbounded = FIG4_PAIRS.iter().any(|&(l, inf)| l == cell.label && inf);
        let steps = config.restarts * want.evaluations;
        if unbounded {
            assert_eq!(want.ratio, f64::INFINITY, "{}", cell.label);
            assert!(calls < steps, "{}: {calls} calls", cell.label);
        } else {
            assert!(
                want.ratio > 50.0 && want.ratio.is_finite(),
                "{}",
                cell.label
            );
        }
    }
}

#[test]
fn ablation_strategies_match_the_reference() {
    let config = PisaConfig {
        i_max: 150,
        restarts: 3,
        seed: 0xAB1A,
        ..PisaConfig::default()
    };
    let mut cells = Vec::new();
    for strategy in [Strategy::HillClimb, Strategy::RandomWalk] {
        for (target, baseline) in [("OLB", "CPoP"), ("HEFT", "CPoP"), ("WBA", "MinMin")] {
            let seed = config.seed + cells.len() as u64;
            let config = PisaConfig { seed, ..config };
            cells.push((
                strategy,
                SearchCell::ablation(strategy, target, baseline, config),
            ));
        }
    }
    let results = run_cells(&cells.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>());
    let mut unbounded = 0;
    for ((strategy, cell), got) in cells.iter().zip(results) {
        let (target, baseline) = names(cell);
        let (t, b) = (by_name(target).unwrap(), by_name(baseline).unwrap());
        let pisa = Pisa {
            target: &*t,
            baseline: &*b,
            perturber: &GeneralPerturber::default(),
            config: cell.config,
        };
        let (want, _) = reference(&pisa, *strategy, &|rng| initial_instance(rng));
        assert_same(&cell.label, &got, &want);
        unbounded += usize::from(want.ratio == f64::INFINITY);
    }
    assert!(unbounded > 0, "no ablation cell reached +inf");
}

#[test]
fn narrow_weight_ranges_match_the_reference() {
    // weight-only nudges of a hundredth of the unit range, from starts
    // whose every nudged weight sits on a bound: a nudge clamps back half
    // the time
    let (lo, hi) = (0.45, 0.55);
    let range = WeightRange::new(lo, hi);
    let onto_bounds = |w: f64| if w < 0.5 { lo } else { hi };
    let init = |rng: &mut StdRng| {
        let mut inst = initial_instance(rng);
        for v in inst.network.nodes().collect::<Vec<_>>() {
            inst.network
                .set_speed(v, onto_bounds(inst.network.speed(v)));
        }
        let g = &mut inst.graph;
        for t in g.tasks().collect::<Vec<_>>() {
            g.set_cost(t, onto_bounds(g.cost(t))).unwrap();
        }
        for (a, b, c) in g.dependencies().collect::<Vec<_>>() {
            g.set_dependency_cost(a, b, onto_bounds(c)).unwrap();
        }
        inst
    };
    let perturber = GeneralPerturber {
        edge_weights: false,
        add_dependency: false,
        remove_dependency: false,
        node_range: range,
        task_range: range,
        dep_range: range,
        ..GeneralPerturber::default()
    };
    for (target, baseline, seed) in [("HEFT", "CPoP", 7), ("MinMin", "MaxMin", 8)] {
        let (t, b) = (by_name(target).unwrap(), by_name(baseline).unwrap());
        let config = PisaConfig {
            i_max: 200,
            restarts: 2,
            seed,
            ..PisaConfig::default()
        };
        let pisa = Pisa {
            target: &*t,
            baseline: &*b,
            perturber: &perturber,
            config,
        };
        let label = format!("{target}~{baseline}");
        // hill climbing rejects every step that does not improve, so a
        // clamped step often follows a rejected one
        let (climbed, _) = reference(&pisa, Strategy::HillClimb, &init);
        let got = search(&*t, &*b, &perturber, config, Strategy::HillClimb, &init);
        assert_same(&format!("{label} hill-climb"), &got, &climbed);
        let (want, want_calls) = reference(&pisa, Strategy::Annealing, &init);
        let got = pisa.run_in(
            &mut saga::core::SchedContext::new(),
            &mut AnnealScratch::default(),
            &init,
        );
        assert_same(&label, &got, &want);
        let (again, calls) = counted(&pisa, &init);
        assert_same(&label, &again, &want);
        assert_eq!(calls, want_calls, "{label} objective calls");
        assert!(want.ratio.is_finite(), "{label}");
        let steps = config.restarts * want.evaluations;
        assert!(
            calls * 10 < steps * 9,
            "{label}: {calls} calls in {steps} steps"
        );
    }
}
