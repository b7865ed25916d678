//! Golden-determinism suite: the scheduling kernel must be a pure
//! performance refactor.
//!
//! `tests/golden_makespans.csv` records the bit pattern of every scheduler's
//! makespan on a fixed battery of instances — the paper-figure smoke set
//! plus 20 seeded random instances of varied shape — captured on the
//! pre-kernel schedule-builder implementation. Any change to scheduler
//! decisions (tie-breaking, float evaluation order, ready-set ordering)
//! flips bits here and fails the suite.
//!
//! Both fixtures are checked twice in the same process: each scheduler in
//! a fresh context, and through one pinned row per instance
//! (`with_pinned`, then `makespan_into` in roster order), the path `fig2`
//! takes, where parameterless schedulers' makespans are memoized on the
//! context.
//!
//! Regenerate (only when a behavior change is *intended* and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_determinism -- --ignored
//! ```

mod common;

use common::{assert_matches_golden, regenerate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saga::core::{Instance, SchedContext};
use saga::datasets;
use saga::schedulers::util::fixtures;
use saga::schedulers::{self, Scheduler};

/// The instance battery: `(label, instance, tiny)`; exact solvers run only
/// on `tiny` instances.
fn battery() -> Vec<(String, Instance, bool)> {
    let mut v: Vec<(String, Instance, bool)> = Vec::new();
    for (i, inst) in fixtures::smoke_instances().into_iter().enumerate() {
        v.push((format!("smoke{i}"), inst, false));
    }
    // 20 seeded random instances spanning sizes 10..=50 tasks, 2..=5 nodes
    let tasks = [10, 20, 30, 40, 50];
    let nodes = [2, 3, 4, 5];
    let p_edge = [0.1, 0.2, 0.3];
    for k in 0..20usize {
        let seed = 1000 + k as u64;
        let t = tasks[k % tasks.len()];
        let n = nodes[k % nodes.len()];
        let p = p_edge[k % p_edge.len()];
        v.push((
            format!("rand_s{seed}_t{t}_n{n}"),
            fixtures::random_instance(seed, t, n, p),
            false,
        ));
    }
    // tiny instances for the exponential reference solvers
    for seed in 1..=4u64 {
        v.push((
            format!("tiny_s{seed}"),
            fixtures::random_instance(seed, 5, 2, 0.4),
            true,
        ));
    }
    v
}

fn roster() -> Vec<Box<dyn Scheduler>> {
    let mut all = schedulers::benchmark_schedulers();
    all.extend(schedulers::historical_schedulers());
    all
}

/// Larger instances (150–250 tasks) exercising the frontier-sweep ports of
/// the PR 3 refactor: wide ready sets and deep predecessor fans are where
/// cached data-ready rows could plausibly diverge from the direct queries.
/// Recorded on the pre-port implementations of ERT/GDL/WBA/FLB (and the
/// rest of the roster, for free).
fn large_battery() -> Vec<(String, Instance)> {
    let shapes = [
        (150usize, 4usize, 0.05f64),
        (150, 8, 0.10),
        (200, 5, 0.03),
        (200, 6, 0.08),
        (250, 4, 0.02),
        (250, 8, 0.05),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(k, &(t, n, p))| {
            let seed = 7000 + k as u64;
            (
                format!("large_s{seed}_t{t}_n{n}"),
                fixtures::random_instance(seed, t, n, p),
            )
        })
        .collect()
}

/// Wide networks (48–142 nodes): one seeded instance from each IoT
/// generator (edge/fog/cloud networks with infinite cloud links) and one
/// seeded random instance on 48 heterogeneous nodes. Schedulers whose cost
/// tables scan node pairs (BIL's level table) switch to their wide-network
/// path here; the rows were recorded before that path existed.
fn wide_battery() -> Vec<(String, Instance)> {
    let iot = ["etl", "predict", "stats", "train"];
    let mut v: Vec<(String, Instance)> = datasets::all_generators()
        .into_iter()
        .filter(|gen| iot.contains(&gen.name))
        .enumerate()
        .map(|(k, gen)| {
            let seed = 8000 + k as u64;
            let inst = gen.sample(&mut StdRng::seed_from_u64(seed));
            let n = inst.network.node_count();
            (format!("wide_{}_s{seed}_n{n}", gen.name), inst)
        })
        .collect();
    let (seed, t, n, p) = (8100u64, 60usize, 48usize, 0.1f64);
    v.push((
        format!("wide_s{seed}_t{t}_n{n}"),
        fixtures::random_instance(seed, t, n, p),
    ));
    v
}

/// How a fixture's makespans are evaluated.
#[derive(Clone, Copy)]
enum Eval {
    /// Each scheduler's `schedule_into` in its own fresh context.
    Fresh,
    /// One pinned row per instance, the path `fig2` takes: `with_pinned`,
    /// then every scheduler's `makespan_into` in roster order on the one
    /// context (parameterless schedulers' makespans are memoized there).
    PinnedRow,
}

/// `schedulers`' makespans on `inst`, in order, evaluated by `eval`.
fn makespans(eval: Eval, schedulers: &[Box<dyn Scheduler>], inst: &Instance) -> Vec<f64> {
    match eval {
        Eval::Fresh => schedulers
            .iter()
            .map(|s| s.schedule_into(inst, &mut SchedContext::new()).makespan())
            .collect(),
        Eval::PinnedRow => SchedContext::new().with_pinned(inst, |ctx| {
            schedulers
                .iter()
                .map(|s| s.makespan_into(inst, ctx))
                .collect()
        }),
    }
}

/// A fixture line: `scheduler,instance,bits`.
fn line(s: &dyn Scheduler, label: &str, m: f64) -> String {
    format!("{},{},{:016x}", s.name(), label, m.to_bits())
}

/// One `scheduler,instance,bits` line per (roster scheduler, large
/// instance), in a fixed order.
fn current_large_lines(eval: Eval) -> Vec<String> {
    let roster = roster();
    let mut lines = Vec::new();
    // one block per battery, so a battery added later appends its rows and
    // leaves the earlier blocks byte-identical
    for battery in [large_battery(), wide_battery()] {
        let rows: Vec<Vec<f64>> = battery
            .iter()
            .map(|(_, inst)| makespans(eval, &roster, inst))
            .collect();
        for (i, s) in roster.iter().enumerate() {
            for ((label, _), row) in battery.iter().zip(&rows) {
                lines.push(line(&**s, label, row[i]));
            }
        }
    }
    lines
}

fn golden_large_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_makespans_large.csv")
}

/// One `scheduler,instance,bits` line per measurement, in a fixed order.
/// A tiny instance's row runs the exact solvers after the roster.
fn current_lines(eval: Eval) -> Vec<String> {
    let battery = battery();
    let mut schedulers = roster();
    let n_roster = schedulers.len();
    schedulers.extend(schedulers::exact_schedulers());
    let rows: Vec<Vec<f64>> = battery
        .iter()
        .map(|(_, inst, tiny)| {
            let n = if *tiny { schedulers.len() } else { n_roster };
            makespans(eval, &schedulers[..n], inst)
        })
        .collect();
    let mut lines = Vec::new();
    for (i, s) in schedulers.iter().enumerate() {
        for ((label, _, tiny), row) in battery.iter().zip(&rows) {
            if i < n_roster || *tiny {
                lines.push(line(&**s, label, row[i]));
            }
        }
    }
    lines
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_makespans.csv")
}

#[test]
fn makespans_match_golden_bits() {
    assert_matches_golden(&golden_path(), &current_lines(Eval::Fresh), "makespans");
}

#[test]
fn large_makespans_match_golden_bits() {
    assert_matches_golden(
        &golden_large_path(),
        &current_large_lines(Eval::Fresh),
        "large-instance makespans",
    );
}

/// Both fixtures through one pinned row per instance: the memoized
/// `makespan_into` calls of a Fig. 2 row must reproduce the fresh-context
/// bits.
#[test]
fn makespans_match_golden_bits_through_pinned_rows() {
    assert_matches_golden(
        &golden_path(),
        &current_lines(Eval::PinnedRow),
        "pinned-row makespans",
    );
}

#[test]
fn large_makespans_match_golden_bits_through_pinned_rows() {
    assert_matches_golden(
        &golden_large_path(),
        &current_large_lines(Eval::PinnedRow),
        "pinned-row large-instance makespans",
    );
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden_large() {
    regenerate(&golden_large_path(), &current_large_lines(Eval::Fresh));
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden() {
    regenerate(&golden_path(), &current_lines(Eval::Fresh));
}
