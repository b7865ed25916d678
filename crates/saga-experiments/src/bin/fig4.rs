//! Regenerates Fig. 4: the PISA pairwise heatmap over all 15 schedulers,
//! plus the paper's two headline claims:
//!
//! 1. every scheduler has an adversarial instance on which it is at least
//!    2x worse than some other scheduler (most are 5x);
//! 2. for nearly every pair, each direction admits a >1 ratio (no scheduler
//!    strictly dominates another).
//!
//! Runs on the batch engine's `SearchCell` runtime: the 210 ordered pairs
//! shard across the engine's workers with one warm pooled context and
//! annealing scratch per worker, per-cell derived seeds (output is
//! bit-identical for any `RAYON_NUM_THREADS`), and a JSONL checkpoint —
//! every finished cell is flushed to `results/fig4_cells.jsonl`, and
//! `--resume` replays stored cells so an interrupted paper-scale run
//! continues where it stopped.
//!
//! Usage: `fig4 [--imax N] [--restarts R] [--seed S] [--quick] [--resume]
//! [--shard i/N] [--checkpoint PATH]`. Defaults match the paper
//! (`imax 1000`, `restarts 5`); `--quick` is the CI smoke budget
//! (`imax 60`, `restarts 1`). With `--shard i/N`, this host runs only its
//! deterministic 1/N slice of the cells against a per-shard checkpoint
//! (`results/fig4_cells.shard{i}of{N}.jsonl` unless `--checkpoint`
//! overrides it) and skips rendering; merge the shards with `saga-merge`
//! and re-run unsharded with `--resume` to render from the merged file.

use saga_experiments::engine::{BatchEngine, CellCheckpoint, Progress};
use saga_experiments::{cli, render, write_results_file};
use saga_pisa::{pairwise_cells, shard_cells, PairwiseMatrix, PisaConfig, FIG4_SEED};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = cli::flag(&args, "quick");
    let paper = PisaConfig::default();
    let imax: usize = cli::arg_or(&args, "imax", if quick { 60 } else { paper.i_max });
    let restarts: usize = cli::arg_or(&args, "restarts", if quick { 1 } else { paper.restarts });
    let seed: u64 = cli::seed_arg(&args, FIG4_SEED);
    let resume = cli::flag(&args, "resume");
    let shard = cli::shard_arg(&args);
    let ckpt_path = cli::checkpoint_path(&args, shard, "results/fig4_cells.jsonl");

    let schedulers = saga_schedulers::benchmark_schedulers();
    let names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let all_cells = pairwise_cells(
        &schedulers,
        PisaConfig {
            i_max: imax,
            restarts,
            seed,
            ..paper
        },
    );
    let total = all_cells.len();
    let cells = shard_cells(all_cells, shard);
    eprintln!(
        "running PISA for {} of {total} ordered pairs (shard {shard}, {restarts} restarts x {imax} iters)...",
        cells.len()
    );
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
    let progress = Progress::new("fig4", cells.len());
    let t0 = std::time::Instant::now();
    let results = cli::checkpoint_or_exit(
        engine.run_cells(&cells, Some(&progress), Some(&checkpoint)),
        cli::CheckpointOp::Write,
    );
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
    if !shard.is_full() {
        // a partial shard can't render the matrix; its output is the
        // checkpoint itself
        eprintln!(
            "shard {shard} complete: {} cells in {} — merge all shards with \
             `saga-merge --out results/fig4_cells.jsonl results/fig4_cells.shard*.jsonl`, \
             then render with `fig4 --resume`",
            results.len(),
            ckpt_path.display()
        );
        return;
    }
    let m = PairwiseMatrix::from_cell_results(names, results);

    let (row_names, rows) = m.heatmap_rows();
    println!(
        "{}",
        render::matrix(
            "Fig. 4: worst-case makespan ratio of scheduler (column) vs baseline (row)",
            &row_names,
            &m.names,
            &rows,
        )
    );
    let path = write_results_file(
        "fig4_pairwise.csv",
        &render::matrix_csv(&row_names, &m.names, &rows),
    );
    // persist the witness instances for reuse by other researchers
    // (the paper's "publish PISA instances" future-work item)
    let library = saga_pisa::library::WitnessLibrary::from_matrix(&m);
    let wpath = write_results_file("fig4_witnesses.jsonl", &library.to_jsonl());
    eprintln!("wrote {} and {}", path.display(), wpath.display());

    // headline claims
    let worst = m.worst_row();
    let at_least_2x = worst.iter().filter(|&&r| r >= 2.0).count();
    let at_least_5x = worst.iter().filter(|&&r| r >= 5.0).count();
    println!(
        "check: schedulers with a >=2x adversarial loss: {at_least_2x}/{} (paper: 15/15)",
        worst.len()
    );
    println!(
        "check: schedulers with a >=5x adversarial loss: {at_least_5x}/{} (paper: 10/15)",
        worst.len()
    );
    let n = m.names.len();
    let mut both_dirs = 0;
    let mut pairs = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            pairs += 1;
            if m.ratios[i][j] > 1.0 && m.ratios[j][i] > 1.0 {
                both_dirs += 1;
            }
        }
    }
    println!("check: pairs adversarial in BOTH directions: {both_dirs}/{pairs}");
    let heft = m.names.iter().position(|s| s == "HEFT").unwrap();
    let fastest = m.names.iter().position(|s| s == "FastestNode").unwrap();
    println!(
        "check: HEFT vs FastestNode worst ratio {} (paper: 4.34)",
        render::cell(m.ratios[fastest][heft])
    );
}
