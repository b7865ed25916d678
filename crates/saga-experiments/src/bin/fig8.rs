//! Regenerates Fig. 8: 1000 draws from the wide fork-join family (expensive
//! join messages, weak link between the two fastest nodes) on which CPoP
//! performs poorly against HEFT.
//!
//! The grid is `grids::ForkJoin::fig8`, bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `fig8 [--instances N] [--seed S]`.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::ForkJoin;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d = ForkJoin::fig8();
    let grid = ForkJoin {
        instances: cli::count_arg(&args, "instances", d.instances),
        seed: cli::seed_arg(&args, d.seed),
        ..d
    };
    grid.run(&BatchEngine::new()).emit();
}
