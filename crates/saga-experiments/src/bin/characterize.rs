//! Characterizes all 16 datasets structurally — quantifying the paper's
//! "what family is this dataset really representative of?" discussion, and
//! profiling the witnesses PISA finds (are the adversarial instances
//! structurally unusual, or in-family?).
//!
//! The 16 dataset cells run on the batch engine with one derived RNG stream
//! per cell, so profiling shards across workers, the default budget is
//! paper-scale (100 samples/dataset) and the report is bit-identical for
//! any `RAYON_NUM_THREADS`.
//!
//! Usage: `characterize [--samples N] [--seed S]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_datasets::characterize::{mean_profile, profile, InstanceProfile};
use saga_experiments::cli;
use saga_experiments::engine::{derive_seed, BatchEngine};
use saga_pisa::library::WitnessLibrary;

fn print_profile(label: &str, p: &InstanceProfile) {
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8.2} {:>8.2} {:>9.2}",
        label, p.tasks, p.dependencies, p.nodes, p.depth, p.width, p.parallelism, p.ccr, p.speed_cv
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let samples = cli::count_arg(&args, "samples", 100);
    let seed: u64 = cli::seed_arg(&args, 0xC0DE);

    println!("Structural profile per dataset (mean over {samples} samples)\n");
    println!(
        "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9}",
        "dataset", "|T|", "|D|", "|V|", "depth", "width", "T1/Tinf", "CCR", "speed cv"
    );
    let generators = saga_datasets::all_generators();
    let engine = BatchEngine::new();
    let cells: Vec<usize> = (0..generators.len()).collect();
    let profiles: Vec<InstanceProfile> = engine.map(cells, |k| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, k as u64));
        mean_profile(&generators[k].sample_many(&mut rng, samples))
    });
    for (gen, p) in generators.iter().zip(&profiles) {
        print_profile(gen.name, p);
    }

    // profile the published adversarial witnesses, if present
    let path = "results/fig4_witnesses.jsonl";
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("(no witness library at {path}; run `fig4` to profile witnesses too)");
        return;
    };
    let lib = match WitnessLibrary::from_jsonl(&text) {
        Ok(lib) => lib,
        Err(e) => {
            eprintln!("(witness library at {path} does not parse: {e}; witnesses not profiled)");
            return;
        }
    };
    // a record whose instance does not decode has nothing to profile
    let instances: Vec<_> = lib
        .records
        .iter()
        .filter_map(|r| r.instance().ok())
        .collect();
    println!(
        "\nPISA witness instances ({} from {path}):",
        instances.len()
    );
    let skipped = lib.records.len() - instances.len();
    if skipped > 0 {
        println!("skipped {skipped} witness record(s) whose instance does not decode");
    }
    if instances.is_empty() {
        return;
    }
    let p = mean_profile(&instances);
    print_profile("witnesses", &p);
    // how far from the chains dataset (their seed family) did the search
    // wander?
    let chains_idx = generators
        .iter()
        .position(|g| g.name == "chains")
        .expect("chains generator");
    let base = &profiles[chains_idx];
    println!(
        "\nwitnesses vs the chains family: depth {} vs {}, width {} vs {}, CCR {:.2} vs {:.2}",
        p.depth, base.depth, p.width, base.width, p.ccr, base.ccr
    );
    let deepest = instances
        .iter()
        .map(|i| profile(i).depth)
        .max()
        .unwrap_or(0);
    println!("deepest witness: {deepest} levels");
}
