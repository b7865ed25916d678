//! One-shot wall-clock snapshot of the scheduling hot paths, printed as
//! JSON. Used to track the perf trajectory across PRs (`results/BENCH_*.json`)
//! and to compare the allocation-free kernel against the pre-kernel baseline
//! (`results/bench.json`).
//!
//! ```text
//! cargo run --release -p saga-bench --bin perf_snapshot > snapshot.json
//! ```

use rand::rngs::StdRng;
use saga_core::{Instance, SchedContext};
use saga_experiments::benchmarking;
use saga_experiments::engine::BatchEngine;
use saga_pisa::annealer::AnnealScratch;
use saga_pisa::{pairwise_cells, GeneralPerturber, Pisa, PisaConfig};
use saga_schedulers::util::fixtures;
use saga_schedulers::Scheduler;
use std::hint::black_box;
use std::time::Instant;

/// A 50-task adversarial-search initial instance (the acceptance-criteria
/// workload: a PISA quick-config cell over 50-task instances).
fn init_50(rng: &mut StdRng) -> Instance {
    let seed = rand::Rng::gen::<u64>(rng);
    fixtures::random_instance(seed, 50, 4, 0.15)
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

fn pisa_cell_ms(target: &dyn Scheduler, baseline: &dyn Scheduler) -> f64 {
    let perturber = GeneralPerturber::default();
    let pisa = Pisa {
        target,
        baseline,
        perturber: &perturber,
        config: PisaConfig::quick(11),
    };
    time_ms(|| {
        black_box(pisa.run(&|rng| init_50(rng)).ratio);
    })
}

fn sched_throughput_ms(s: &dyn Scheduler, inst: &Instance, reps: usize) -> f64 {
    time_ms(|| {
        for _ in 0..reps {
            black_box(s.schedule(black_box(inst)).makespan());
        }
    }) / reps as f64
}

/// One fig2-class batch: every benchmark scheduler on `instances` fresh
/// instances of all 16 datasets. Returns cells (= instances) per second.
/// `threads = 0` runs the PR 2 sequential driver (fresh context per
/// instance, tables rebuilt per scheduler); otherwise the batch engine
/// under `RAYON_NUM_THREADS=threads`.
fn fig2_batch_cells_per_s(
    schedulers: &[Box<dyn Scheduler>],
    instances: usize,
    threads: usize,
) -> f64 {
    let generators = saga_datasets::all_generators();
    let cells = (generators.len() * instances) as f64;
    let seed = 0xF162;
    let ms = if threads == 0 {
        time_ms(|| {
            for gen in &generators {
                black_box(benchmarking::benchmark_dataset(
                    schedulers, gen, instances, seed,
                ));
            }
        })
    } else {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let engine = BatchEngine::new();
        let ms = time_ms(|| {
            for gen in &generators {
                black_box(benchmarking::benchmark_dataset_engine(
                    &engine, schedulers, gen, instances, seed, None,
                ));
            }
        });
        std::env::remove_var("RAYON_NUM_THREADS");
        ms
    };
    cells / (ms / 1e3)
}

/// One full batch of quick fig4 cells (all ordered pairs of the 15-strong
/// benchmark roster, `i_max 250`, 2 restarts — ~103k annealer iterations).
/// Returns cells per second. `threads = 0` runs the cells sequentially the
/// way the pre-refactor driver did — a fresh `SchedContext` and fresh
/// scratch instances per cell; otherwise the engine's `run_cells` under
/// `RAYON_NUM_THREADS=threads` (pooled warm context + scratch per worker).
fn fig4_quick_cells_per_s(threads: usize) -> f64 {
    let schedulers = saga_schedulers::benchmark_schedulers();
    let cells = pairwise_cells(
        &schedulers,
        PisaConfig {
            i_max: 250,
            restarts: 2,
            seed: 0xF164,
            ..PisaConfig::default()
        },
    );
    let ms = if threads == 0 {
        time_ms(|| {
            for cell in &cells {
                let mut ctx = SchedContext::new();
                let mut scratch = AnnealScratch::default();
                black_box(cell.run(&mut ctx, &mut scratch).ratio);
            }
        })
    } else {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        let engine = BatchEngine::new();
        let ms = time_ms(|| {
            black_box(engine.run_cells(&cells, None, None).unwrap());
        });
        std::env::remove_var("RAYON_NUM_THREADS");
        ms
    };
    cells.len() as f64 / (ms / 1e3)
}

fn main() {
    let inst50 = fixtures::random_instance(42, 50, 4, 0.15);
    let mut out = Vec::new();

    // warm-up pass so the first measurement is not paying page faults
    black_box(saga_schedulers::Heft.schedule(&inst50).makespan());

    out.push((
        "pisa_cell_quick_heft_vs_cpop_ms",
        pisa_cell_ms(&saga_schedulers::Heft, &saga_schedulers::Cpop),
    ));
    out.push((
        "pisa_cell_quick_minmin_vs_etf_ms",
        pisa_cell_ms(&saga_schedulers::MinMin, &saga_schedulers::Etf),
    ));
    for s in saga_schedulers::benchmark_schedulers() {
        let label: &'static str = match s.name() {
            "HEFT" => "sched_heft_50t_ms",
            "CPoP" => "sched_cpop_50t_ms",
            "ETF" => "sched_etf_50t_ms",
            "MinMin" => "sched_minmin_50t_ms",
            "MaxMin" => "sched_maxmin_50t_ms",
            "GDL" => "sched_gdl_50t_ms",
            "BIL" => "sched_bil_50t_ms",
            "WBA" => "sched_wba_50t_ms",
            "FLB" => "sched_flb_50t_ms",
            _ => continue,
        };
        out.push((label, sched_throughput_ms(&*s, &inst50, 50)));
    }
    let ert = saga_schedulers::by_name("ERT").expect("ERT in roster");
    out.push(("sched_ert_50t_ms", sched_throughput_ms(&*ert, &inst50, 50)));

    // 250-task sweep latencies (PR 8's row-kernel regime) for the
    // acceptance schedulers
    let inst250 = fixtures::random_instance(42, 250, 4, 0.15);
    out.push((
        "sched_heft_250t_ms",
        sched_throughput_ms(&saga_schedulers::Heft, &inst250, 10),
    ));
    out.push((
        "sched_cpop_250t_ms",
        sched_throughput_ms(&saga_schedulers::Cpop, &inst250, 10),
    ));
    out.push((
        "sched_etf_250t_ms",
        sched_throughput_ms(&saga_schedulers::Etf, &inst250, 10),
    ));

    // fig2-class batch throughput (cells = instances; each cell runs all 15
    // schedulers): PR 2 sequential driver vs the batch engine at 1 and 4
    // threads, equal budgets (25 instances/dataset — the old default)
    let schedulers = saga_schedulers::benchmark_schedulers();
    out.push((
        "fig2_batch_seq_pr2_cells_per_s",
        fig2_batch_cells_per_s(&schedulers, 25, 0),
    ));
    out.push((
        "fig2_batch_engine_1t_cells_per_s",
        fig2_batch_cells_per_s(&schedulers, 25, 1),
    ));
    out.push((
        "fig2_batch_engine_4t_cells_per_s",
        fig2_batch_cells_per_s(&schedulers, 25, 4),
    ));

    // quick fig4 PISA-cell throughput: per-cell fresh-context sequential
    // driver (the pre-refactor execution shape) vs the SearchCell engine at
    // 1 and 4 threads
    out.push((
        "fig4_quick_cells_seq_driver_cells_per_s",
        fig4_quick_cells_per_s(0),
    ));
    out.push((
        "fig4_quick_cells_run_cells_1t_cells_per_s",
        fig4_quick_cells_per_s(1),
    ));
    out.push((
        "fig4_quick_cells_run_cells_4t_cells_per_s",
        fig4_quick_cells_per_s(4),
    ));

    let fields: Vec<String> = out
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v:.4}"))
        .collect();
    println!("{{\n{}\n}}", fields.join(",\n"));
}
