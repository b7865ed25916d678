//! Regenerates Fig. 7: 1000 draws from the fork-join family (one branch
//! with a huge initial communication cost) on which HEFT performs poorly
//! against CPoP. Prints the five-number summaries behind the paper's box
//! plot.
//!
//! The grid is `grids::ForkJoin::fig7`, bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `fig7 [--instances N] [--seed S]`.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::ForkJoin;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d = ForkJoin::fig7();
    let grid = ForkJoin {
        instances: cli::arg_or(&args, "instances", d.instances),
        seed: cli::seed_arg(&args, d.seed),
        ..d
    };
    grid.run(&BatchEngine::new()).emit();
}
