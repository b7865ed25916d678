//! Regenerates Figs. 10–19 (and Appendix A): application-specific PISA for
//! the scientific workflows, at CCR ∈ {0.2, 0.5, 1, 2, 5}, over the paper's
//! Section VII scheduler subset (CPoP, FastestNode, HEFT, MaxMin, MinMin,
//! WBA). For each CCR the top row is traditional benchmarking (max ratio
//! over in-family instances) and the remaining rows are the worst-case
//! ratios PISA found — the paper's exact figure layout.
//!
//! Runs on the batch engine's `SearchCell` runtime: one `App` cell per
//! (CCR, ordered pair), sharded across workers with pooled contexts and
//! per-cell derived seeds (bit-identical at any `RAYON_NUM_THREADS`), and a
//! per-workflow JSONL checkpoint (`--resume`). The benchmarking rows run on
//! the engine too: instances generate in parallel from per-instance derived
//! seeds and all schedulers evaluate under pinned cost tables.
//!
//! Usage: `app_pisa [workflow|all] [--instances N] [--imax N] [--restarts R]
//! [--ccr X] [--seed S] [--resume] [--shard i/N] [--checkpoint PATH]`.
//! Default workflow: `srasearch`; defaults trade the paper's CPU-hours for
//! minutes (see EXPERIMENTS.md). With `--shard i/N` only that slice of each
//! workflow's cells runs, against per-shard checkpoints
//! (`…_cells.shard{i}of{N}.jsonl`; `--checkpoint` overrides the path for
//! single-workflow runs), and rendering is skipped — `saga-merge` the
//! shards, then re-run with `--resume` to render.

use saga_experiments::engine::{derive_seed, BatchEngine, CellCheckpoint, Progress};
use saga_experiments::{benchmarking, cli, render, write_results_file};
use saga_pisa::annealer::PisaConfig;
use saga_pisa::app_specific::AppSpecific;
use saga_pisa::{cell_config, shard_cells, SearchCell, ShardSpec};

#[allow(clippy::too_many_arguments)] // a binary's main-loop helper, not API
fn run_workflow(
    engine: &BatchEngine,
    workflow: &str,
    ccrs: &[f64],
    instances: usize,
    config: PisaConfig,
    resume: bool,
    shard: ShardSpec,
    ckpt_override: Option<&str>,
) {
    let schedulers = saga_schedulers::app_specific_schedulers();
    let names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let n = names.len();

    // one cell grid over every (ccr, ordered pair), shared checkpoint
    let mut cells = Vec::with_capacity(ccrs.len() * (n * n - n));
    for &ccr in ccrs {
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                cells.push(SearchCell::app(
                    workflow,
                    ccr,
                    &names[j],
                    &names[i],
                    cell_config(config, cells.len() as u64),
                ));
            }
        }
    }
    let total = cells.len();
    let cells = shard_cells(cells, shard);
    let base = format!("results/app_pisa_{workflow}_cells.jsonl");
    let ckpt_path = match ckpt_override {
        Some(p) => std::path::PathBuf::from(p),
        None => shard.checkpoint_path(std::path::Path::new(&base)),
    };
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
    let progress = Progress::new(format!("app_pisa/{workflow}"), cells.len());
    let results = cli::checkpoint_or_exit(
        engine.run_cells(&cells, Some(&progress), Some(&checkpoint)),
        cli::CheckpointOp::Write,
    );
    if !shard.is_full() {
        // a partial shard can't render the per-CCR matrices; its output is
        // the checkpoint itself
        eprintln!(
            "shard {shard} complete: {} of {total} cells in {} — merge all shards with \
             saga-merge, then render with `app_pisa {workflow} --resume`",
            results.len(),
            ckpt_path.display()
        );
        return;
    }
    let mut results = results.into_iter();

    for (ci, &ccr) in ccrs.iter().enumerate() {
        let app = AppSpecific::new(workflow, ccr).expect("known workflow");

        // --- benchmarking row (traditional approach) ---
        // per-instance derived seeds, generated in parallel, evaluated with
        // pinned tables; order-preserving, so thread-count independent
        let bench_seed = derive_seed(config.seed, 0xB000 + ci as u64);
        let insts: Vec<saga_core::Instance> = engine.map((0..instances).collect(), |k| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(derive_seed(
                bench_seed, k as u64,
            ));
            app.initial_instance(&mut rng)
        });
        let rows = engine.makespans(&schedulers, &insts, None);
        let mut per_sched: Vec<Vec<f64>> = vec![Vec::with_capacity(instances); n];
        for row in &rows {
            for (k, r) in benchmarking::ratios_of(row).into_iter().enumerate() {
                per_sched[k].push(r);
            }
        }
        let bench_row: Vec<f64> = per_sched
            .iter()
            .map(|rs| benchmarking::summarize(rs).max)
            .collect();

        // --- PISA matrix from this CCR's slice of the cell results ---
        let mut ratios = vec![vec![1.0f64; n]; n];
        for (i, row) in ratios.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if i == j {
                    continue;
                }
                *slot = results.next().expect("one result per cell").ratio;
            }
        }

        // assemble: baseline rows (reverse order like the paper), then the
        // benchmarking row at the bottom
        let mut row_names: Vec<String> = names.iter().rev().cloned().collect();
        row_names.push("Benchmarking".to_string());
        let mut rows: Vec<Vec<f64>> = (0..n).rev().map(|i| ratios[i].clone()).collect();
        rows.push(bench_row);

        println!(
            "{}",
            render::matrix(
                &format!("{workflow} (CCR = {ccr}): PISA worst-case + benchmarking max ratios"),
                &row_names,
                &names,
                &rows,
            )
        );
        let csv = render::matrix_csv(&row_names, &names, &rows);
        let fname = format!("app_pisa_{workflow}_ccr{ccr}.csv");
        let path = write_results_file(&fname, &csv);
        eprintln!("wrote {}", path.display());

        // the Section VII takeaway, checked live: for how many schedulers
        // does PISA expose a worse case than the benchmarking row shows?
        let bench_row = rows.last().unwrap().clone();
        let mut exposed = Vec::new();
        for (j, name) in names.iter().enumerate() {
            let pisa_worst = (0..n).map(|i| ratios[i][j]).fold(0.0, f64::max);
            if pisa_worst > bench_row[j] * 1.05 {
                exposed.push(format!(
                    "{name} ({} vs bench {})",
                    render::cell(pisa_worst),
                    render::cell(bench_row[j])
                ));
            }
        }
        println!(
            "check: PISA exposes worse-than-benchmarking cases for {}/{} schedulers: {}\n",
            exposed.len(),
            n,
            exposed.join(", ")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = cli::positional(&args).unwrap_or("srasearch").to_string();
    let instances: usize = cli::arg_or(&args, "instances", 15);
    let resume = args.iter().any(|a| a == "--resume");
    let shard = cli::shard_arg(&args);
    let ckpt_override = cli::arg_str(&args, "checkpoint");
    let config = PisaConfig {
        i_max: cli::arg_or(&args, "imax", 300),
        restarts: cli::arg_or(&args, "restarts", 2),
        seed: cli::arg_or(&args, "seed", 0xA551),
        ..PisaConfig::default()
    };
    let ccr_arg: f64 = cli::arg_or(&args, "ccr", 0.0);
    let ccrs: Vec<f64> = if ccr_arg > 0.0 {
        vec![ccr_arg]
    } else {
        saga_datasets::ccr::PAPER_CCRS.to_vec()
    };

    let workflows: Vec<&str> = if workflow == "all" {
        saga_datasets::workflows::WORKFLOW_NAMES.to_vec()
    } else {
        vec![workflow.as_str()]
    };
    if ckpt_override.is_some() && workflows.len() > 1 {
        eprintln!("fatal: --checkpoint only applies to single-workflow runs (per-workflow files)");
        std::process::exit(2);
    }
    let engine = BatchEngine::new();
    for wf in workflows {
        println!("=== Section VII: application-specific PISA for {wf} ===\n");
        run_workflow(
            &engine,
            wf,
            &ccrs,
            instances,
            config,
            resume,
            shard,
            ckpt_override.as_deref(),
        );
    }
}
