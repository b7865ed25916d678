//! Regenerates Fig. 2: benchmarking the 15 polynomial schedulers on all 16
//! datasets. Each cell reports the *maximum* makespan ratio a scheduler hit
//! on the dataset (the paper's color scale tops out the same way); the
//! median matrix lands in a second CSV.
//!
//! The default budget is the paper's low end, 100 instances per dataset
//! (the paper uses 100–1000), rows from `benchmarking::fig2_rows` rendered
//! by `benchmarking::fig2_output`, bit-identical for any
//! `RAYON_NUM_THREADS`. Each row is appended to a `RowCheckpoint` JSONL as
//! it completes, so `--resume` continues an interrupted run; `--shard i/N`
//! runs only this host's 1/N of the rows against a per-shard checkpoint
//! (`results/fig2_rows.shard{i}of{N}.jsonl`) and skips rendering —
//! `saga-merge` the shards into `results/fig2_rows.jsonl`, then render with
//! `fig2 --resume`.
//!
//! Usage: `fig2 [--instances N] [--seed S] [--resume] [--shard i/N]
//! [--checkpoint PATH]`.

use saga_experiments::benchmarking::{self, FIG2_INSTANCES, FIG2_SEED};
use saga_experiments::cli;
use saga_experiments::engine::{BatchEngine, Progress, RowCheckpoint};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let instances: usize = cli::arg_or(&args, "instances", FIG2_INSTANCES);
    let seed: u64 = cli::seed_arg(&args, FIG2_SEED);
    let shard = cli::shard_arg(&args);
    let path = cli::checkpoint_path(&args, shard, "results/fig2_rows.jsonl");
    let checkpoint: RowCheckpoint = cli::open_checkpoint(&path, cli::flag(&args, "resume"), "rows");

    let generators = saga_datasets::all_generators();
    // progress totals count only this shard's rows
    let total = generators
        .iter()
        .flat_map(|g| (0..instances).map(|k| benchmarking::fig2_key(g.name, k, seed)))
        .filter(|key| shard.contains_key(key))
        .count();
    let rows = cli::written_or_exit(benchmarking::fig2_rows(
        &BatchEngine::new(),
        &saga_schedulers::benchmark_schedulers(),
        &generators,
        instances,
        seed,
        shard,
        Some(&Progress::new("fig2", total)),
        Some(&checkpoint),
    ));
    if !shard.is_full() {
        // a partial shard can't render the matrices; its output is the
        // checkpoint itself
        let done = rows.iter().flatten().flatten().count();
        eprintln!(
            "shard {shard} complete: {done} rows in {} — merge all shards with \
             `saga-merge --out results/fig2_rows.jsonl results/fig2_rows.shard*.jsonl`, \
             then render with `fig2 --resume`",
            path.display()
        );
        return;
    }
    benchmarking::fig2_output(&rows).emit();
}
