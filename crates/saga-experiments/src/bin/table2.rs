//! Regenerates Table II: the dataset inventory, with sampled statistics
//! (task counts, node counts, CCR) drawn live from each generator.
//!
//! The 16 dataset cells run on the batch engine with one derived RNG stream
//! per cell ([`derive_seed`](saga_experiments::engine::derive_seed)), so
//! sampling shards across workers, the default budget is paper-scale
//! (100 samples/dataset) and the table is bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `table2 [--samples N] [--seed S]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_experiments::cli;
use saga_experiments::engine::{derive_seed, BatchEngine};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let samples = cli::count_arg(&args, "samples", 100);
    let seed: u64 = cli::seed_arg(&args, 2024);

    println!("Table II: Datasets available in SAGA-rs ({samples} samples each)\n");
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>8} {:>8}  network family",
        "Dataset", "paper#", "|T| min", "|T| max", "|V| min", "|V| max"
    );
    let generators = saga_datasets::all_generators();
    let engine = BatchEngine::new();
    let cells: Vec<usize> = (0..generators.len()).collect();
    let rows: Vec<(usize, usize, usize, usize)> = engine.map(cells, |k| {
        let gen = &generators[k];
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        let mut tmin = usize::MAX;
        let mut tmax = 0;
        let mut vmin = usize::MAX;
        let mut vmax = 0;
        for _ in 0..samples {
            let inst = gen.sample(&mut rng);
            tmin = tmin.min(inst.graph.task_count());
            tmax = tmax.max(inst.graph.task_count());
            vmin = vmin.min(inst.network.node_count());
            vmax = vmax.max(inst.network.node_count());
        }
        (tmin, tmax, vmin, vmax)
    });
    for (gen, (tmin, tmax, vmin, vmax)) in generators.iter().zip(&rows) {
        let family = match gen.name {
            "in_trees" | "out_trees" | "chains" => "randomly weighted (3-5 nodes)",
            "etl" | "predict" | "stats" | "train" => "edge/fog/cloud (Varshney et al.)",
            _ => "Chameleon-cloud inspired (shared FS)",
        };
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>8} {:>8}  {}",
            gen.name, gen.paper_count, tmin, tmax, vmin, vmax, family
        );
    }
}
