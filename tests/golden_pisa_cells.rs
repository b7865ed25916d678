//! Golden PISA-cell suite: the SearchCell runtime must be a pure
//! performance refactor.
//!
//! `tests/golden_pisa_cells.csv` records the bit pattern of the best ratio
//! (and the initial ratio and evaluation count) of a battery of
//! quick-config adversarial searches — general pairwise cells, Section VII
//! application cells, metric-objective cells, and ablation-strategy cells —
//! captured on the **pre-refactor** drivers (fresh `SchedContext` per cell,
//! clone-per-iteration annealing, per-call allocation in the perturbation
//! operators, no pooling). Every cell's seed comes from the engine's
//! `derive_seed(BASE_SEED, cell index)` stream, exactly as the cells below
//! assign them, so any divergence introduced by context borrowing, scratch
//! reuse, in-place perturbation undo, the kernel's selective table refresh,
//! incremental delta-evaluation (dirty-region table refresh + recorded-run
//! prefix replay, the default path since PR 5), or engine sharding flips
//! bits here and fails the suite.
//!
//! The battery also runs, in the same process, on the reference
//! evaluation path: in order on one context built with
//! `EvalPaths { incremental: false }` (every evaluation rebuilds its
//! tables and re-runs both schedulers from scratch). It must reproduce the
//! same fixture bits.
//!
//! Regenerate (only when a behavior change is *intended* and reviewed):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_pisa_cells -- --ignored
//! ```

mod common;

use common::{assert_matches_golden, regenerate};
use saga::core::{EvalPaths, SchedContext};
use saga::pisa::ablation::Strategy;
use saga::pisa::annealer::{AnnealScratch, PisaConfig};
use saga::pisa::metric::Objective;
use saga::pisa::{PisaResult, SearchCell};
use saga_experiments::engine::{derive_seed, BatchEngine, CellCheckpoint};

/// Base seed every cell's stream is derived from.
const BASE_SEED: u64 = 0x415A;

fn pair_config(seed: u64) -> PisaConfig {
    PisaConfig {
        i_max: 120,
        restarts: 2,
        seed,
        ..PisaConfig::default()
    }
}

fn short_config(seed: u64) -> PisaConfig {
    PisaConfig {
        i_max: 100,
        restarts: 1,
        seed,
        ..PisaConfig::default()
    }
}

fn ablation_config(seed: u64) -> PisaConfig {
    PisaConfig {
        i_max: 100,
        restarts: 2,
        seed,
        ..PisaConfig::default()
    }
}

/// The battery, as `SearchCell`s, in the fixed fixture order; cell `k`
/// (over the whole battery) runs on `derive_seed(BASE_SEED, k)` — the exact
/// seeds the pre-refactor recording used.
fn battery_cells() -> Vec<SearchCell> {
    let mut cells = Vec::new();
    let mut idx = 0u64;
    let seed = |idx: &mut u64| {
        let s = derive_seed(BASE_SEED, *idx);
        *idx += 1;
        s
    };

    // general pairwise cells over a 4-scheduler roster (baseline-major,
    // diagonal skipped — `pairwise_cells` order)
    let roster = ["HEFT", "CPoP", "FastestNode", "MinMin"];
    for bname in roster {
        for tname in roster {
            if bname == tname {
                continue;
            }
            cells.push(SearchCell::pair(tname, bname, pair_config(seed(&mut idx))));
        }
    }
    // Section VII application cells: rigid structure, trace-scaled weights
    for (workflow, ccr) in [("blast", 0.5), ("seismology", 1.0)] {
        for (tname, bname) in [("CPoP", "FastestNode"), ("MinMin", "CPoP")] {
            cells.push(SearchCell::app(
                workflow,
                ccr,
                tname,
                bname,
                short_config(seed(&mut idx)),
            ));
        }
    }
    // metric-objective cells (HEFT vs FastestNode under all four metrics)
    for obj in [
        Objective::Makespan,
        Objective::Energy {
            idle_fraction: 0.2,
            comm_energy_per_unit: 1.0,
        },
        Objective::RentalCost,
        Objective::Throughput,
    ] {
        cells.push(SearchCell::metric(
            obj,
            "HEFT",
            "FastestNode",
            short_config(seed(&mut idx)),
        ));
    }
    // ablation-strategy cells (HEFT vs CPoP under all three strategies)
    for strategy in Strategy::ALL {
        cells.push(SearchCell::ablation(
            strategy,
            "HEFT",
            "CPoP",
            ablation_config(seed(&mut idx)),
        ));
    }
    // Section VII cells with WBA on either side of the ratio, appended so
    // every earlier cell keeps its seed index (recorded while WBA still
    // re-ran every evaluation from scratch)
    for (workflow, ccr, tname, bname) in [
        ("blast", 0.5, "WBA", "HEFT"),
        ("seismology", 1.0, "MinMin", "WBA"),
    ] {
        cells.push(SearchCell::app(
            workflow,
            ccr,
            tname,
            bname,
            short_config(seed(&mut idx)),
        ));
    }
    cells
}

/// A cell's `label,ratio_bits,initial_bits,evaluations` fixture line.
fn line(cell: &SearchCell, res: &PisaResult) -> String {
    format!(
        "{},{:016x},{:016x},{}",
        cell.label,
        res.ratio.to_bits(),
        res.initial_ratio.to_bits(),
        res.evaluations
    )
}

/// One fixture line per battery cell, produced by the pooled engine
/// runtime (`BatchEngine::run_cells`) on the default evaluation paths.
fn current_lines() -> Vec<String> {
    let cells = battery_cells();
    let engine = BatchEngine::new();
    let results = engine.run_cells(&cells, None, None).unwrap();
    cells
        .iter()
        .zip(&results)
        .map(|(cell, res)| line(cell, res))
        .collect()
}

/// One fixture line per battery cell, running the cells in order through
/// `SearchCell::run` on one context built with `paths`.
fn lines_on_paths(paths: EvalPaths) -> Vec<String> {
    let mut ctx = SchedContext::with_paths(paths);
    let mut scratch = AnnealScratch::default();
    battery_cells()
        .iter()
        .map(|cell| line(cell, &cell.run(&mut ctx, &mut scratch)))
        .collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_pisa_cells.csv")
}

#[test]
fn pisa_cells_match_golden_bits() {
    assert_matches_golden(&golden_path(), &current_lines(), "PISA cells");
}

#[test]
fn pisa_cells_match_golden_bits_without_incremental_evaluation() {
    let full_rebuild = EvalPaths { incremental: false };
    assert_matches_golden(
        &golden_path(),
        &lines_on_paths(full_rebuild),
        "PISA cells on the full-rebuild path",
    );
}

#[test]
fn checkpointed_battery_replays_identically() {
    // the same battery through a write-then-resume checkpoint cycle: the
    // replayed results (parsed back from JSONL) must reproduce the fixture
    // bits too — resume cannot perturb a paper-scale run's output
    let cells = battery_cells();
    let engine = BatchEngine::new();
    let path = std::env::temp_dir().join(format!("saga_golden_cells_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ck = CellCheckpoint::open(&path, false).unwrap();
    let fresh = engine.run_cells(&cells, None, Some(&ck)).unwrap();
    drop(ck);
    let ck = CellCheckpoint::open(&path, true).unwrap();
    assert_eq!(ck.loaded(), cells.len());
    let replayed = engine.run_cells(&cells, None, Some(&ck)).unwrap();
    for ((cell, a), b) in cells.iter().zip(&fresh).zip(&replayed) {
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{}", cell.label);
        assert_eq!(a.evaluations, b.evaluations, "{}", cell.label);
        assert_eq!(a.instance.to_json(), b.instance.to_json(), "{}", cell.label);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
#[ignore = "writes the golden fixture; run with GOLDEN_REGEN=1 when a behavior change is intended"]
fn regenerate_golden_pisa_cells() {
    regenerate(&golden_path(), &current_lines());
}
