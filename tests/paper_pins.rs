//! Paper-scale pins: every pinned file in `tests/paper/` but 40, from the
//! one library call its binary makes, at the binary's defaults, compared
//! byte for byte. [`PINS`] is the table of (files → call); each call
//! returns the text of its binary's files (`saga_experiments::Output`):
//!
//! | grid | binary | call | pinned files |
//! |---|---|---|---|
//! | Fig. 2 | `fig2` | `benchmarking::fig2_rows` → `fig2_output` | `fig2_max_ratios.csv`, `fig2_median_ratios.csv` |
//! | Fig. 4 | `fig4` | `grids::Fig4` | `fig4_pairwise.csv`, `fig4_witnesses.jsonl` |
//! | Section VII, genome | `app_pisa genome` | `grids::AppPisa` | 5 × `app_pisa_genome_ccr<c>.csv` |
//! | Fig. 7 | `fig7` | `grids::ForkJoin::fig7` | `fig7_makespans.csv` |
//! | Fig. 8 | `fig8` | `grids::ForkJoin::fig8` | `fig8_makespans.csv` |
//! | online scheduling | `online_eval` | `grids::OnlineEval` | `online_blast.csv` |
//! | stochastic instances | `stochastic_eval` | `grids::StochasticEval` | `stochastic_montage.csv` |
//! | other metrics | `metric_pisa` | `grids::MetricPisa` | `metric_pisa.csv` |
//! | other meta-heuristics | `ablation_search` | `grids::AblationSearch` | `ablation_search.csv` |
//!
//! The other eight Section VII workflows' 40 CSVs come from the same call;
//! CI's engine smoke runs `app_pisa all` and `cmp`s all 45.
//! [`only_the_other_workflows_app_pisa_csvs_are_left_to_ci`] checks that
//! the table lists every other file in `tests/paper/`.
//!
//! The CSVs round every number to 6 decimal places, so two grids also pin
//! an FNV-1a digest of the numbers behind them: **fig2** (100 instances of
//! each of the 16 datasets, base seed `0xF162`) over the bits of every
//! makespan in every row, in key order (dataset in roster order, then
//! instance index), so any moved bit in any of the 1600 × 15 makespans
//! fails it; **fig4** (the 210 ordered pairs of the 15 benchmark
//! schedulers, 5 restarts × 1000 iterations, base seed `FIG4_SEED`) over
//! every cell's ratio bits, initial-ratio bits and evaluation count, cells
//! in `SearchCell::key` order.
//!
//! The pins were recorded from the release binaries. To regenerate after
//! an intended, reviewed change, run the binaries at their defaults
//! (`for b in fig2 fig4 fig7 fig8 online_eval stochastic_eval metric_pisa
//! ablation_search; do cargo run --release -p saga-experiments --bin $b;
//! done` and `cargo run --release -p saga-experiments --bin app_pisa --
//! all`), copy the changed files from `results/` into `tests/paper/`, and
//! update [`FIG2_ROWS_DIGEST`] and [`FIG4_CELLS_DIGEST`] from this suite's
//! failure message.
//!
//! **Infinite fig4 ratios.** 35 of the 210 pinned witnesses have an
//! infinite ratio (`"ratio":null` in the JSON, `inf` in the CSV). This is a
//! property of the search space, not a bug: the perturbation operators may
//! drive a node speed or a link strength to 0, and the target scheduler
//! then places a task on that node, or sends data over that link, while
//! the baseline does not. By cause, 20 witnesses have a zero-bandwidth
//! link, 14 a zero-speed node and 1 both. By target they are OLB 12, WBA
//! 12, MET 5, and Duplex, ETF, GDL, MCT, MaxMin and MinMin 1 each.
//! [`fig4_infinite_ratios_come_from_dead_nodes_or_links`] re-derives these
//! counts from the pinned file.

use saga::core::{fnv1a, NodeId};
use saga::pisa::library::WitnessLibrary;
use saga::pisa::{PisaResult, SearchCell, ShardSpec};
use saga_experiments::benchmarking::{self, FIG2_INSTANCES, FIG2_SEED};
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::{
    AblationSearch, AppPisa, CellGrid, Fig4, ForkJoin, MetricPisa, OnlineEval, StochasticEval,
};
use saga_experiments::Output;
use std::collections::{BTreeMap, BTreeSet};

/// FNV-1a over the little-endian bits of every fig2 makespan, in key order.
const FIG2_ROWS_DIGEST: u64 = 0x7175_40e0_bf8b_be47;

/// FNV-1a over every fig4 cell's ratio bits, initial-ratio bits and
/// evaluation count (each a little-endian `u64`), in key order.
const FIG4_CELLS_DIGEST: u64 = 0xb7eb_5632_1dd3_e1ab;

/// A grid's output and the digest of the numbers behind it, if it has one.
type Pinned = (Output, Option<u64>);

/// One pinned grid: the files it writes, its binary's library call at the
/// binary's defaults, and its pinned digest.
struct Pin {
    grid: &'static str,
    files: &'static [&'static str],
    call: fn(&BatchEngine) -> Pinned,
    digest: Option<u64>,
}

/// Every pinned grid.
const PINS: [Pin; 9] = [
    Pin {
        grid: "fig2",
        files: &["fig2_max_ratios.csv", "fig2_median_ratios.csv"],
        call: fig2,
        digest: Some(FIG2_ROWS_DIGEST),
    },
    Pin {
        grid: "fig4",
        files: &["fig4_pairwise.csv", "fig4_witnesses.jsonl"],
        call: |e| cells(e, &Fig4::default()),
        digest: Some(FIG4_CELLS_DIGEST),
    },
    Pin {
        grid: "app_pisa genome",
        files: &[
            "app_pisa_genome_ccr0.2.csv",
            "app_pisa_genome_ccr0.5.csv",
            "app_pisa_genome_ccr1.csv",
            "app_pisa_genome_ccr2.csv",
            "app_pisa_genome_ccr5.csv",
        ],
        call: |e| cells(e, &AppPisa::new("genome")),
        digest: None,
    },
    Pin {
        grid: "fig7",
        files: &["fig7_makespans.csv"],
        call: |e| (ForkJoin::fig7().run(e), None),
        digest: None,
    },
    Pin {
        grid: "fig8",
        files: &["fig8_makespans.csv"],
        call: |e| (ForkJoin::fig8().run(e), None),
        digest: None,
    },
    Pin {
        grid: "online_eval",
        files: &["online_blast.csv"],
        call: |e| (OnlineEval::default().run(e), None),
        digest: None,
    },
    Pin {
        grid: "stochastic_eval",
        files: &["stochastic_montage.csv"],
        call: |e| (StochasticEval::default().run(e), None),
        digest: None,
    },
    Pin {
        grid: "metric_pisa",
        files: &["metric_pisa.csv"],
        call: |e| cells(e, &MetricPisa::default()),
        digest: None,
    },
    Pin {
        grid: "ablation_search",
        files: &["ablation_search.csv"],
        call: |e| cells(e, &AblationSearch::default()),
        digest: None,
    },
];

fn fig2(engine: &BatchEngine) -> Pinned {
    let rows = benchmarking::fig2_rows(
        engine,
        &saga::schedulers::benchmark_schedulers(),
        &saga::datasets::all_generators(),
        FIG2_INSTANCES,
        FIG2_SEED,
        ShardSpec::FULL,
        None,
        None,
    )
    .expect("no checkpoint, so no write can fail");
    let bytes: Vec<u8> = rows
        .iter()
        .flatten()
        .flat_map(|row| row.as_ref().expect("the full shard computes every row"))
        .flat_map(|m| m.to_bits().to_le_bytes())
        .collect();
    (benchmarking::fig2_output(&rows), Some(fnv1a(&bytes)))
}

/// A cell grid's output, and the digest of its results in key order.
fn cells(engine: &BatchEngine, grid: &dyn CellGrid) -> Pinned {
    let (results, output) = grid.run(engine);
    let by_key: BTreeMap<String, &PisaResult> = grid
        .cells()
        .iter()
        .map(SearchCell::key)
        .zip(&results)
        .collect();
    assert_eq!(by_key.len(), results.len(), "cell keys are unique");
    let bytes: Vec<u8> = by_key
        .values()
        .flat_map(|r| {
            [
                r.ratio.to_bits(),
                r.initial_ratio.to_bits(),
                r.evaluations as u64,
            ]
        })
        .flat_map(u64::to_le_bytes)
        .collect();
    (output, Some(fnv1a(&bytes)))
}

fn pin_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/paper")
}

fn pin(name: &str) -> String {
    let path = pin_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read pin {}: {e}", path.display()))
}

/// Runs `grid`'s call and compares its files, and its digest, with the
/// pins.
fn check(grid: &str) {
    let pin_row = PINS.iter().find(|p| p.grid == grid).expect("a row of PINS");
    let (output, digest) = (pin_row.call)(&BatchEngine::new());
    if let Some(want) = pin_row.digest {
        let digest = digest.expect("the call computes a digest");
        assert_eq!(digest, want, "{grid} digest moved: now {digest:#018x}");
    }
    let names: Vec<&str> = output.files.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, pin_row.files, "{grid} writes other files");
    for (name, text) in &output.files {
        // not assert_eq: a whole witness file in the failure message would
        // bury the file name
        assert!(*text == pin(name), "{name} ({grid}) differs from its pin");
    }
}

#[test]
fn fig2_matches_the_paper_pins() {
    check("fig2");
}

#[test]
fn fig4_matches_the_paper_pins() {
    check("fig4");
}

#[test]
fn app_pisa_genome_matches_the_paper_pins() {
    check("app_pisa genome");
}

#[test]
fn fig7_and_fig8_match_the_paper_pins() {
    check("fig7");
    check("fig8");
}

#[test]
fn online_and_stochastic_eval_match_the_paper_pins() {
    check("online_eval");
    check("stochastic_eval");
}

#[test]
fn metric_pisa_and_ablation_search_match_the_paper_pins() {
    check("metric_pisa");
    check("ablation_search");
}

#[test]
fn only_the_other_workflows_app_pisa_csvs_are_left_to_ci() {
    let listed: BTreeSet<&str> = PINS.iter().flat_map(|p| p.files.iter().copied()).collect();
    let left: Vec<String> = std::fs::read_dir(pin_dir())
        .expect("tests/paper exists")
        .map(|entry| {
            entry
                .expect("a readable entry")
                .file_name()
                .into_string()
                .expect("UTF-8")
        })
        .filter(|name| !listed.contains(name.as_str()))
        .collect();
    assert_eq!(left.len(), 40, "pins no row of PINS lists: {left:?}");
    let other_workflows = saga::datasets::workflows::WORKFLOW_NAMES
        .iter()
        .filter(|&&wf| wf != "genome");
    for wf in other_workflows {
        let prefix = format!("app_pisa_{wf}_ccr");
        assert_eq!(
            left.iter().filter(|name| name.starts_with(&prefix)).count(),
            5,
            "{prefix}*.csv"
        );
    }
}

#[test]
fn fig4_infinite_ratios_come_from_dead_nodes_or_links() {
    let library = WitnessLibrary::from_jsonl(&pin("fig4_witnesses.jsonl")).expect("pin parses");
    assert_eq!(library.records.len(), 210);
    let (mut dead_link, mut dead_node, mut both) = (0, 0, 0);
    let mut by_target: BTreeMap<&str, usize> = BTreeMap::new();
    for r in library.records.iter().filter(|r| r.ratio.is_none()) {
        let net = r.instance().expect("pinned instance decodes").network;
        let nodes: Vec<NodeId> = net.nodes().collect();
        let zero_node = nodes.iter().any(|&v| net.speed(v) == 0.0);
        let zero_link = nodes
            .iter()
            .any(|&u| nodes.iter().any(|&v| u != v && net.link(u, v) == 0.0));
        match (zero_link, zero_node) {
            (true, true) => both += 1,
            (true, false) => dead_link += 1,
            (false, true) => dead_node += 1,
            (false, false) => panic!(
                "{} vs {}: infinite ratio on a network with no zero weight",
                r.target, r.baseline
            ),
        }
        *by_target.entry(&r.target).or_default() += 1;
    }
    assert_eq!((dead_link, dead_node, both), (20, 14, 1));
    let expected: BTreeMap<&str, usize> = [
        ("OLB", 12),
        ("WBA", 12),
        ("MET", 5),
        ("Duplex", 1),
        ("ETF", 1),
        ("GDL", 1),
        ("MCT", 1),
        ("MaxMin", 1),
        ("MinMin", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(by_target, expected);
}
