//! Robustness under uncertainty — the paper's stochastic-instances
//! future-work direction, made concrete: plan statically on the *expected*
//! instance, then execute the fixed plan under Monte-Carlo realizations of
//! the weights, and compare schedulers by achieved mean and tail (p95)
//! makespan.
//!
//! The (scheduler × instance) cells run on the batch engine with
//! per-instance Monte-Carlo seeds, so realizations shard across workers,
//! the default budget is larger (25 instances), and the CSV is
//! bit-identical for any `RAYON_NUM_THREADS`.
//!
//! Usage: `stochastic_eval [workflow] [--cv F] [--instances N]
//! [--samples K] [--seed S]` (default workflow `montage`, cv 0.3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_core::stochastic::{static_plan_makespan, StochasticInstance};
use saga_core::Instance;
use saga_experiments::engine::{BatchEngine, Progress};
use saga_experiments::{cli, write_results_file};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = cli::positional(&args).unwrap_or("montage").to_string();
    let cv: f64 = cli::arg_or(&args, "cv", 0.3);
    let instances: usize = cli::arg_or(&args, "instances", 25);
    let samples: usize = cli::arg_or(&args, "samples", 100);
    let seed: u64 = cli::seed_arg(&args, 0x570C);

    let spec = saga_datasets::workflows::spec(&workflow)
        .unwrap_or_else(|| panic!("unknown workflow {workflow}"));
    let schedulers = saga_schedulers::app_specific_schedulers();
    let mut rng = StdRng::seed_from_u64(seed);

    println!(
        "Stochastic evaluation on {workflow} (cv = {cv}, {instances} instances x {samples} realizations)\n"
    );
    println!(
        "{:<12} {:>14} {:>14} {:>14}",
        "scheduler", "planned", "achieved mean", "achieved p95"
    );
    let mut base_instances = Vec::with_capacity(instances);
    for _ in 0..instances {
        let g = saga_datasets::workflows::build_graph(&workflow, &mut rng);
        let net = saga_datasets::workflows::sample_chameleon_network(&mut rng, &spec);
        let mut inst = Instance::new(net, g);
        saga_datasets::ccr::set_homogeneous_ccr(&mut inst, 1.0);
        base_instances.push(inst);
    }

    // one cell per (scheduler, instance): plan on the expected instance,
    // then Monte-Carlo the fixed plan with that instance's derived seed
    let engine = BatchEngine::new();
    let progress = Progress::new("stochastic_eval", schedulers.len() * instances);
    let cells: Vec<(usize, usize)> = (0..schedulers.len())
        .flat_map(|s| (0..instances).map(move |k| (s, k)))
        .collect();
    let results: Vec<(f64, f64, f64)> = engine.map_ctx(cells, |ctx, (s, k)| {
        let stoch = StochasticInstance::jittered(&base_instances[k], cv);
        let plan = schedulers[s].schedule_into(&stoch.expected_instance(), ctx);
        let mut mc_rng = StdRng::seed_from_u64(seed ^ (k as u64) << 8);
        let (m, p) = static_plan_makespan(&plan, &stoch, samples, &mut mc_rng);
        progress.tick();
        (plan.makespan(), m, p)
    });

    let mut csv = String::from("scheduler,planned,achieved_mean,achieved_p95\n");
    for (s, sched) in schedulers.iter().enumerate() {
        let mut planned = 0.0;
        let mut mean = 0.0;
        let mut p95 = 0.0;
        for &(pl, m, p) in &results[s * instances..(s + 1) * instances] {
            planned += pl;
            mean += m;
            p95 += p;
        }
        let n = instances as f64;
        println!(
            "{:<12} {:>14.3} {:>14.3} {:>14.3}",
            sched.name(),
            planned / n,
            mean / n,
            p95 / n
        );
        csv.push_str(&format!(
            "{},{},{},{}\n",
            sched.name(),
            planned / n,
            mean / n,
            p95 / n
        ));
    }
    let path = write_results_file(&format!("stochastic_{workflow}.csv"), &csv);
    eprintln!("wrote {}", path.display());
    println!(
        "\nnote: 'planned' is the makespan promised on the expected instance;\n\
         'achieved' is what the fixed plan delivers when weights deviate (cv = {cv})."
    );
}
