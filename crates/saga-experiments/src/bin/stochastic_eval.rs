//! Robustness under uncertainty — the paper's stochastic-instances
//! future-work direction, made concrete: plan statically on the *expected*
//! instance, then execute the fixed plan under Monte-Carlo realizations of
//! the weights, and compare schedulers by achieved mean and tail (p95)
//! makespan.
//!
//! The grid is `grids::StochasticEval`, bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `stochastic_eval [workflow] [--cv F] [--instances N]
//! [--samples K] [--seed S]` (default workflow `montage`, cv 0.3).

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::StochasticEval;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let d = StochasticEval::default();
    let grid = StochasticEval {
        workflow: cli::workflow_arg(&args, &d.workflow, &[]).to_string(),
        cv: cli::arg_or(&args, "cv", d.cv),
        instances: cli::count_arg(&args, "instances", d.instances),
        samples: cli::count_arg(&args, "samples", d.samples),
        seed: cli::seed_arg(&args, d.seed),
    };
    grid.run(&BatchEngine::new()).emit();
}
