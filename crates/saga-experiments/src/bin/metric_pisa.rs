//! Adversarial comparison under alternative metrics (energy, rental cost,
//! throughput) — the paper's "other performance metrics" future-work item.
//! Runs the generic annealer with each objective for a panel of scheduler
//! pairs and prints the worst-case metric ratios side by side.
//!
//! Runs on the batch engine's `SearchCell` runtime: one `Metric` cell per
//! (pair, objective), sharded across workers with pooled contexts and
//! per-cell derived seeds — output is bit-identical for any
//! `RAYON_NUM_THREADS` (CI diffs the CSV between 1- and 4-worker runs) —
//! with a JSONL checkpoint (`--resume`).
//!
//! Usage: `metric_pisa [--imax N] [--restarts R] [--seed S] [--quick]
//! [--resume] [--shard i/N] [--checkpoint PATH]`. `--quick` is the CI smoke
//! budget (`imax 60`, `restarts 1`). With `--shard i/N` only that slice of
//! the cells runs, against a per-shard checkpoint, and rendering is
//! skipped; `saga-merge` the shards and re-run with `--resume` to render.

use saga_experiments::engine::{BatchEngine, CellCheckpoint, Progress};
use saga_experiments::{cli, render, write_results_file};
use saga_pisa::metric::Objective;
use saga_pisa::{cell_config, shard_cells, PisaConfig, SearchCell};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = cli::flag(&args, "quick");
    let resume = cli::flag(&args, "resume");
    let shard = cli::shard_arg(&args);
    let ckpt_path = cli::checkpoint_path(&args, shard, "results/metric_pisa_cells.jsonl");
    let config = PisaConfig {
        i_max: cli::arg_or(&args, "imax", if quick { 60 } else { 400 }),
        restarts: cli::arg_or(&args, "restarts", if quick { 1 } else { 3 }),
        seed: cli::seed_arg(&args, 0x3E71C),
        ..PisaConfig::default()
    };
    let objectives = [
        Objective::Makespan,
        Objective::Energy {
            idle_fraction: 0.2,
            comm_energy_per_unit: 1.0,
        },
        Objective::RentalCost,
        Objective::Throughput,
    ];
    let pairs = [
        ("HEFT", "FastestNode"),
        ("FastestNode", "HEFT"),
        ("CPoP", "HEFT"),
        ("MinMin", "MaxMin"),
    ];

    // cells in (pair-major, objective-minor) order so each output row is a
    // contiguous slice of the results
    let mut cells = Vec::with_capacity(pairs.len() * objectives.len());
    for (a, b) in pairs {
        for obj in objectives {
            cells.push(SearchCell::metric(
                obj,
                a,
                b,
                cell_config(config, cells.len() as u64),
            ));
        }
    }
    let total = cells.len();
    let cells = shard_cells(cells, shard);
    let checkpoint = cli::checkpoint_or_exit(
        CellCheckpoint::open(&ckpt_path, resume),
        cli::CheckpointOp::Open(&ckpt_path),
    );
    if resume && checkpoint.loaded() > 0 {
        eprintln!(
            "resuming: {} cells already in {}",
            checkpoint.loaded(),
            ckpt_path.display()
        );
    }
    let engine = BatchEngine::new();
    let progress = Progress::new("metric_pisa", cells.len());
    let results = cli::checkpoint_or_exit(
        engine.run_cells(&cells, Some(&progress), Some(&checkpoint)),
        cli::CheckpointOp::Write,
    );
    if !shard.is_full() {
        // a partial shard can't render the matrix; its output is the
        // checkpoint itself
        eprintln!(
            "shard {shard} complete: {} of {total} cells in {} — merge all shards with \
             saga-merge, then render with `metric_pisa --resume`",
            results.len(),
            ckpt_path.display()
        );
        return;
    }

    let col_names: Vec<String> = objectives.iter().map(|o| o.name().to_string()).collect();
    let row_names: Vec<String> = pairs.iter().map(|(a, b)| format!("{a} vs {b}")).collect();
    let rows: Vec<Vec<f64>> = results
        .chunks(objectives.len())
        .map(|chunk| chunk.iter().map(|r| r.ratio).collect())
        .collect();
    println!(
        "{}",
        render::matrix(
            "Adversarial worst-case ratios by metric (pair rows, metric columns)",
            &row_names,
            &col_names,
            &rows,
        )
    );
    let path = write_results_file(
        "metric_pisa.csv",
        &render::matrix_csv(&row_names, &col_names, &rows),
    );
    eprintln!("wrote {}", path.display());
    println!(
        "takeaway: weaknesses are metric-dependent — a scheduler can be\n\
         makespan-competitive yet adversarially bad on energy or cost."
    );
}
