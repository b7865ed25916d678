//! Regenerates Fig. 7: 1000 draws from the fork-join family (one branch
//! with a huge initial communication cost) on which HEFT performs poorly
//! against CPoP. Prints the five-number summaries behind the paper's box
//! plot.
//!
//! Runs on the batch engine: each instance is a cell with its own derived
//! seed — generation and both scheduler runs (under one pinned table build)
//! shard across workers, with order-preserving collection, so the CSV is
//! bit-identical for any `RAYON_NUM_THREADS`.
//!
//! Usage: `fig7 [--instances N] [--seed S]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_datasets::families::heft_weak_instance;
use saga_experiments::engine::{derive_seed, BatchEngine, Progress};
use saga_experiments::{cli, render, write_results_file};
use saga_schedulers::{Cpop, Heft, Scheduler};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let instances: usize = cli::arg_or(&args, "instances", 1000);
    let seed: u64 = cli::seed_arg(&args, 0xF167);

    let engine = BatchEngine::new();
    let progress = Progress::new("fig7", instances);
    let pairs: Vec<(f64, f64)> = engine.map_ctx((0..instances).collect(), |ctx, k| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        let inst = heft_weak_instance(&mut rng);
        let row = ctx.with_pinned(&inst, |ctx| {
            (
                Heft.makespan_into(&inst, ctx),
                Cpop.makespan_into(&inst, ctx),
            )
        });
        progress.tick();
        row
    });
    let heft: Vec<f64> = pairs.iter().map(|&(h, _)| h).collect();
    let cpop: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
    println!("Fig. 7: makespans on the HEFT-weak fork-join family ({instances} instances)\n");
    println!("{}", render::five_number_summary("CPoP", &cpop));
    println!("{}", render::five_number_summary("HEFT", &heft));
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    println!(
        "\nmean makespan: CPoP {:.3}, HEFT {:.3} (ratio {:.3})",
        mean(&cpop),
        mean(&heft),
        mean(&heft) / mean(&cpop)
    );
    println!(
        "check: HEFT clearly worse on this family: {}",
        mean(&heft) > 1.1 * mean(&cpop)
    );
    let mut csv = String::from("instance,heft,cpop\n");
    for i in 0..instances {
        csv.push_str(&format!("{i},{},{}\n", heft[i], cpop[i]));
    }
    let path = write_results_file("fig7_makespans.csv", &csv);
    eprintln!("wrote {}", path.display());
}
