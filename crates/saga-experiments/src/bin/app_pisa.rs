//! Regenerates Figs. 10–19 (and Appendix A): application-specific PISA for
//! the scientific workflows, at CCR ∈ {0.2, 0.5, 1, 2, 5}, over the paper's
//! Section VII scheduler subset (CPoP, FastestNode, HEFT, MaxMin, MinMin,
//! WBA). For each CCR the top rows are the worst-case ratios PISA found and
//! the bottom row is traditional benchmarking (max ratio over in-family
//! instances) — the paper's exact figure layout.
//!
//! Each workflow is one grid, `grids::AppPisa`, with a per-workflow JSONL
//! checkpoint (`--resume`); output is bit-identical at any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `app_pisa [workflow|all] [--instances N] [--imax N] [--restarts R]
//! [--ccr X] [--seed S] [--resume] [--shard i/N] [--checkpoint PATH]`.
//! Default workflow: `srasearch`; defaults trade the paper's CPU-hours for
//! seconds. With `--shard i/N` only that slice of each workflow's cells
//! runs, against per-shard checkpoints (`…_cells.shard{i}of{N}.jsonl`;
//! `--checkpoint` overrides the path for single-workflow runs), and
//! rendering is skipped — `saga-merge` the shards, then re-run with
//! `--resume` to render.

use saga_experiments::cli;
use saga_experiments::engine::BatchEngine;
use saga_experiments::grids::AppPisa;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = cli::workflow_arg(&args, "srasearch", &["all"]);
    let workflows = match workflow {
        "all" => saga_datasets::workflows::WORKFLOW_NAMES.to_vec(),
        wf => vec![wf],
    };
    if cli::arg_str(&args, "checkpoint").is_some() && workflows.len() > 1 {
        eprintln!("fatal: --checkpoint only applies to single-workflow runs (per-workflow files)");
        std::process::exit(2);
    }
    let d = AppPisa::new(workflow);
    let ccr: f64 = cli::arg_or(&args, "ccr", 0.0);
    let ccrs = if ccr > 0.0 { vec![ccr] } else { d.ccrs };
    let instances = cli::count_arg(&args, "instances", d.instances);
    let config = cli::pisa_config(&args, d.config, false);
    let engine = BatchEngine::new();
    for workflow in workflows {
        let grid = AppPisa {
            workflow: workflow.to_string(),
            ccrs: ccrs.clone(),
            instances,
            config,
        };
        if let Some(output) = cli::run_grid(&args, &engine, &grid) {
            output.emit();
        }
    }
}
