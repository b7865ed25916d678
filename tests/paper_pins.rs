//! Paper-scale pins: the `fig2` binary's outputs at its defaults
//! (100 instances of each of the 16 datasets, base seed `0xF162`, the 15
//! benchmark schedulers), regenerated through the same calls the binary
//! makes (`benchmarking::fig2_rows` → `benchmarking::fig2_matrices` →
//! `render::matrix_csv`) and compared byte for byte against
//! `tests/paper/`.
//!
//! The CSVs round every ratio to 6 decimal places, so the suite also pins
//! one FNV-1a digest over the bits of every makespan in every row, in key
//! order (dataset in roster order, then instance index): any moved bit in
//! any of the 1600 × 15 makespans fails it.
//!
//! The pins were recorded from the release `fig2` binary. To regenerate
//! after an intended, reviewed change, run
//! `cargo run --release -p saga-experiments --bin fig2`, copy
//! `results/fig2_max_ratios.csv` and `results/fig2_median_ratios.csv` into
//! `tests/paper/`, and update [`FIG2_ROWS_DIGEST`] from this suite's
//! failure message.

use saga::core::fnv1a;
use saga::pisa::ShardSpec;
use saga_experiments::benchmarking::{self, FIG2_INSTANCES, FIG2_SEED};
use saga_experiments::engine::BatchEngine;
use saga_experiments::render;

/// FNV-1a over the little-endian bits of every fig2 makespan, in key order.
const FIG2_ROWS_DIGEST: u64 = 0x7175_40e0_bf8b_be47;

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
