//! Regenerates Fig. 4: the PISA pairwise heatmap over all 15 schedulers,
//! its witness instances, and the paper's two headline claims:
//!
//! 1. every scheduler has an adversarial instance on which it is at least
//!    2x worse than some other scheduler (most are 5x);
//! 2. for nearly every pair, each direction admits a >1 ratio (no scheduler
//!    strictly dominates another).
//!
//! The grid is `grids::Fig4`, bit-identical for any `RAYON_NUM_THREADS`
//! and checkpointed to `results/fig4_cells.jsonl`, so `--resume` continues
//! an interrupted run.
//!
//! Usage: `fig4 [--imax N] [--restarts R] [--seed S] [--quick] [--resume]
//! [--shard i/N] [--checkpoint PATH]`. Defaults match the paper
//! (`imax 1000`, `restarts 5`); `--quick` is the CI smoke budget
//! (`imax 60`, `restarts 1`). With `--shard i/N`, this host runs only its
//! deterministic 1/N slice of the cells against a per-shard checkpoint
//! (`results/fig4_cells.shard{i}of{N}.jsonl` unless `--checkpoint`
//! overrides it) and skips rendering; merge the shards with `saga-merge`
//! and re-run unsharded with `--resume` to render from the merged file.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::Fig4;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = cli::pisa_config(&args, Fig4::default().config, cli::flag(&args, "quick"));
    if let Some(output) = cli::run_grid(&args, &BatchEngine::new(), &Fig4 { config }) {
        output.emit();
    }
}
