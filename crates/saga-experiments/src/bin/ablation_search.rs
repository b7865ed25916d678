//! Ablation: does PISA need simulated annealing? Compares annealing,
//! hill-climbing, and a random walk at identical budgets over a panel of
//! scheduler pairs (the paper proposes exploring other meta-heuristics as
//! future work).
//!
//! The grid is `grids::AblationSearch`, bit-identical for any
//! `RAYON_NUM_THREADS`, with a JSONL checkpoint (`--resume`).
//!
//! Usage: `ablation_search [--imax N] [--restarts R] [--seed S] [--trials K]
//! [--resume] [--shard i/N] [--checkpoint PATH]`. With `--shard i/N` only
//! that slice of the cells runs, against a per-shard checkpoint, and the
//! summary is skipped; `saga-merge` the shards and re-run with `--resume`.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::AblationSearch;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d = AblationSearch::default();
    let grid = AblationSearch {
        config: cli::pisa_config(&args, d.config, false),
        trials: cli::arg_or(&args, "trials", d.trials),
    };
    if let Some(output) = cli::run_grid(&args, &BatchEngine::new(), &grid) {
        output.emit();
    }
}
