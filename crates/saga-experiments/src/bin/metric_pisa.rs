//! Adversarial comparison under alternative metrics (energy, rental cost,
//! throughput) — the paper's "other performance metrics" future-work item:
//! the worst-case metric ratios of a panel of scheduler pairs, side by side.
//!
//! The grid is `grids::MetricPisa`, bit-identical for any
//! `RAYON_NUM_THREADS`, with a JSONL checkpoint (`--resume`).
//!
//! Usage: `metric_pisa [--imax N] [--restarts R] [--seed S] [--quick]
//! [--resume] [--shard i/N] [--checkpoint PATH]`. `--quick` is the CI smoke
//! budget (`imax 60`, `restarts 1`). With `--shard i/N` only that slice of
//! the cells runs, against a per-shard checkpoint, and rendering is
//! skipped; `saga-merge` the shards and re-run with `--resume` to render.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::MetricPisa;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = cli::pisa_config(
        &args,
        MetricPisa::default().config,
        cli::flag(&args, "quick"),
    );
    if let Some(output) = cli::run_grid(&args, &BatchEngine::new(), &MetricPisa { config }) {
        output.emit();
    }
}
