//! The price of non-clairvoyance: compares online dispatch policies against
//! offline HEFT as task arrivals are staggered more and more — the paper's
//! "online scheduling" future-work direction, measured.
//!
//! The grid is `grids::OnlineEval`, bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `online_eval [workflow] [--instances N] [--seed S]`.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::OnlineEval;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d = OnlineEval::default();
    let grid = OnlineEval {
        workflow: cli::positional(&args).unwrap_or(&d.workflow).to_string(),
        instances: cli::arg_or(&args, "instances", d.instances),
        seed: cli::seed_arg(&args, d.seed),
    };
    grid.run(&BatchEngine::new()).emit();
}
