//! Paper-scale pins: the outputs of the `fig2` and `fig4` binaries at
//! their defaults, regenerated through the same calls the binaries make
//! and compared byte for byte against `tests/paper/`.
//!
//! **fig2** (100 instances of each of the 16 datasets, base seed `0xF162`,
//! the 15 benchmark schedulers) goes through `benchmarking::fig2_rows` →
//! `benchmarking::fig2_matrices` → `render::matrix_csv`. The CSVs round
//! every ratio to 6 decimal places, so the suite also pins one FNV-1a
//! digest over the bits of every makespan in every row, in key order
//! (dataset in roster order, then instance index): any moved bit in any of
//! the 1600 × 15 makespans fails it.
//!
//! **fig4** (the 210 ordered pairs of the 15 benchmark schedulers, 5
//! restarts × 1000 iterations, base seed `FIG4_SEED`) goes through
//! `pairwise_cells` → `BatchEngine::run_cells` →
//! `PairwiseMatrix::heatmap_rows` → `render::matrix_csv`, and
//! `WitnessLibrary::from_matrix` → `to_jsonl` for the witnesses. Its digest
//! covers every cell's ratio bits, initial-ratio bits and evaluation count,
//! cells in `SearchCell::key` order.
//!
//! The pins were recorded from the release binaries. To regenerate after
//! an intended, reviewed change, run
//! `cargo run --release -p saga-experiments --bin fig2` (or `--bin fig4`),
//! copy `results/fig2_max_ratios.csv` and `results/fig2_median_ratios.csv`
//! (or `results/fig4_pairwise.csv` and `results/fig4_witnesses.jsonl`) into
//! `tests/paper/`, and update [`FIG2_ROWS_DIGEST`] (or
//! [`FIG4_CELLS_DIGEST`]) from this suite's failure message.
//!
//! **app_pisa** (Section VII: 9 workflows × 5 CCRs, base seed `0xA551`)
//! has its 45 `app_pisa_<workflow>_ccr<c>.csv` outputs pinned in
//! `tests/paper/` too, but no test here re-derives them: `app_pisa all`
//! takes seconds in a release build, so CI's engine smoke runs the release
//! binary at 4 and at 1 workers and `cmp`s all 45 files. To regenerate
//! after an intended, reviewed change, run
//! `cargo run --release -p saga-experiments --bin app_pisa -- all` and copy
//! `results/app_pisa_*_ccr*.csv` into `tests/paper/`.
//!
//! **Six more grids** are pinned the same way, checked by CI alone:
//! `fig7_makespans.csv`, `fig8_makespans.csv`, `online_blast.csv` and
//! `stochastic_montage.csv` (cells through `BatchEngine::map_ctx`), and
//! `metric_pisa.csv` and `ablation_search.csv` (cells through
//! `BatchEngine::run_cells`), each its binary's output at its defaults.
//! CI runs the six release binaries at 4 and at 1 workers and `cmp`s each
//! file. To regenerate after an intended, reviewed change, run
//! `for b in fig7 fig8 online_eval stochastic_eval metric_pisa
//! ablation_search; do cargo run --release -p saga-experiments --bin $b;
//! done` and copy those six files from `results/` into `tests/paper/`.
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
use saga::pisa::{pairwise_cells, PairwiseMatrix, PisaConfig, SearchCell, ShardSpec, FIG4_SEED};
use saga_experiments::benchmarking::{self, FIG2_INSTANCES, FIG2_SEED};
use saga_experiments::engine::BatchEngine;
use saga_experiments::render;
use std::collections::BTreeMap;

/// FNV-1a over the little-endian bits of every fig2 makespan, in key order.
const FIG2_ROWS_DIGEST: u64 = 0x7175_40e0_bf8b_be47;

/// FNV-1a over every fig4 cell's ratio bits, initial-ratio bits and
/// evaluation count (each a little-endian `u64`), in key order.
const FIG4_CELLS_DIGEST: u64 = 0xb7eb_5632_1dd3_e1ab;

fn pin(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/paper")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read pin {}: {e}", path.display()))
}

#[test]
fn fig2_matches_the_paper_pins() {
    let schedulers = saga::schedulers::benchmark_schedulers();
    let sched_names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let generators = saga::datasets::all_generators();
    let dataset_names: Vec<String> = generators.iter().map(|g| g.name.to_string()).collect();

    let rows = benchmarking::fig2_rows(
        &BatchEngine::new(),
        &schedulers,
        &generators,
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
    assert_eq!(
        bytes.len(),
        generators.len() * FIG2_INSTANCES * schedulers.len() * 8
    );
    let digest = fnv1a(&bytes);
    assert_eq!(
        digest, FIG2_ROWS_DIGEST,
        "fig2 row digest moved: now {digest:#018x}"
    );

    let (max, median) = benchmarking::fig2_matrices(&rows, schedulers.len());
    assert_eq!(
        render::matrix_csv(&dataset_names, &sched_names, &max),
        pin("fig2_max_ratios.csv"),
        "fig2_max_ratios.csv differs from its pin"
    );
    assert_eq!(
        render::matrix_csv(&dataset_names, &sched_names, &median),
        pin("fig2_median_ratios.csv"),
        "fig2_median_ratios.csv differs from its pin"
    );
}

#[test]
fn fig4_matches_the_paper_pins() {
    let schedulers = saga::schedulers::benchmark_schedulers();
    let names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let cells = pairwise_cells(
        &schedulers,
        PisaConfig {
            seed: FIG4_SEED,
            ..PisaConfig::default()
        },
    );
    let results = BatchEngine::new()
        .run_cells(&cells, None, None)
        .expect("no checkpoint, so no write can fail");

    let by_key: BTreeMap<String, _> = cells.iter().map(SearchCell::key).zip(&results).collect();
    assert_eq!(by_key.len(), cells.len(), "cell keys are unique");
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
    let digest = fnv1a(&bytes);
    assert_eq!(
        digest, FIG4_CELLS_DIGEST,
        "fig4 cell digest moved: now {digest:#018x}"
    );

    let m = PairwiseMatrix::from_cell_results(names, results);
    let (row_names, rows) = m.heatmap_rows();
    assert_eq!(
        render::matrix_csv(&row_names, &m.names, &rows),
        pin("fig4_pairwise.csv"),
        "fig4_pairwise.csv differs from its pin"
    );
    assert_eq!(
        WitnessLibrary::from_matrix(&m).to_jsonl(),
        pin("fig4_witnesses.jsonl"),
        "fig4_witnesses.jsonl differs from its pin"
    );
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
