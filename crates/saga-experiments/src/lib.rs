//! # saga-experiments
//!
//! Regeneration harnesses for every table and figure of the PISA paper.
//! Each binary prints the same rows/series the paper reports (text heatmaps
//! instead of matplotlib) and writes CSVs under `results/`. A binary whose
//! output is pinned in `tests/paper/` is a thin shell over one library call
//! that returns the text of its files ([`Output`]); `tests/paper_pins.rs`
//! makes the same call.
//!
//! | binary            | reproduces                                        | library call |
//! |-------------------|---------------------------------------------------|--------------|
//! | `table1`          | Table I — scheduler inventory                     | |
//! | `table2`          | Table II — dataset inventory (sampled statistics) | |
//! | `fig2`            | Fig. 2 — benchmarking 15 schedulers on 16 datasets | [`benchmarking::fig2_rows`] → [`benchmarking::fig2_output`] |
//! | `fig3`            | Fig. 3 — the HEFT/CPoP network-alteration example | |
//! | `fig4`            | Fig. 4 — PISA pairwise heatmap and witnesses      | [`grids::Fig4`] |
//! | `fig5_6`          | Figs. 5–6 — HEFT vs CPoP adversarial case studies | |
//! | `fig7`            | Fig. 7 — family where HEFT performs poorly        | [`grids::ForkJoin::fig7`] |
//! | `fig8`            | Fig. 8 — family where CPoP performs poorly        | [`grids::ForkJoin::fig8`] |
//! | `app_pisa`        | Figs. 10–19 — application-specific PISA per workflow | [`grids::AppPisa`] |
//! | `metric_pisa`     | future work: other performance metrics            | [`grids::MetricPisa`] |
//! | `ablation_search` | future work: other meta-heuristics                | [`grids::AblationSearch`] |
//! | `online_eval`     | future work: online scheduling                    | [`grids::OnlineEval`] |
//! | `stochastic_eval` | future work: stochastic instances                 | [`grids::StochasticEval`] |
//!
//! `characterize` and `evaluate_library` read `fig4`'s witnesses, and
//! `saga-merge` merges shard checkpoints. Budgets are CLI-tunable
//! (`--instances`, `--imax`, `--restarts`) because the paper's full budgets
//! take CPU-hours; defaults are sized to finish in seconds while preserving
//! every qualitative claim.

// the crate root, so the deny reaches every module; `grids` lifts it for
// the invariants of the fixed paper grids
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use saga_core::Instance;
use saga_schedulers::Scheduler;

pub mod benchmarking;
mod checkpoint;
pub mod cli;
pub mod engine;
pub mod grids;
pub mod merge;
pub mod render;
mod workers;

/// Evaluates every scheduler on one instance and returns the makespans in
/// scheduler order. One scheduling context is reused across the sweep.
pub fn makespans(schedulers: &[Box<dyn Scheduler>], inst: &Instance) -> Vec<f64> {
    let mut ctx = saga_core::SchedContext::new();
    schedulers
        .iter()
        .map(|s| s.makespan_into(inst, &mut ctx))
        .collect()
}

/// What one pinned grid produces: the text of each file it writes under
/// `results/`, and the report it prints.
#[derive(Debug, Default)]
pub struct Output {
    /// `(file name under results/, contents)`, in write order.
    pub files: Vec<(String, String)>,
    /// The text for stdout.
    pub report: String,
}

impl Output {
    /// Prints the report and writes every file through
    /// [`write_results_file`], naming each on stderr.
    pub fn emit(&self) {
        print!("{}", self.report);
        for (name, text) in &self.files {
            eprintln!("wrote {}", write_results_file(name, text).display());
        }
    }
}

/// Writes `content` to `results/<name>` (creating the directory), returning
/// the path. Failures are fatal — experiments must not silently drop data —
/// but exit cleanly with the path and cause instead of a panic backtrace.
pub fn write_results_file(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::path::Path::new("results").join(name);
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, content));
    if let Err(e) = written {
        eprintln!("fatal: cannot write results/{name}: {e}");
        std::process::exit(1);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::benchmark_schedulers;

    #[test]
    fn makespans_align_with_scheduler_order() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let inst = saga_datasets::random_graphs::sample_chains(&mut rng);
        let scheds = benchmark_schedulers();
        let ms = makespans(&scheds, &inst);
        assert_eq!(ms.len(), scheds.len());
        assert!(ms.iter().all(|&m| m > 0.0));
    }
}
