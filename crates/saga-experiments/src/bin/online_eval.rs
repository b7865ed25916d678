//! The price of non-clairvoyance: compares online dispatch policies against
//! offline HEFT as task arrivals are staggered more and more — the paper's
//! "online scheduling" future-work direction, measured.
//!
//! Runs on the batch engine: each (stagger, instance) pair is a cell with
//! its own derived seed — generation, the offline HEFT run (pooled
//! context), and both online simulations shard across workers with
//! order-preserving collection, so the CSV is bit-identical for any
//! `RAYON_NUM_THREADS`.
//!
//! Usage: `online_eval [workflow] [--instances N] [--seed S]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::Instance;
use saga_experiments::engine::{derive_seed, BatchEngine, Progress};
use saga_experiments::{cli, write_results_file};
use saga_schedulers::online::{simulate_online, OnlineEft, OnlineOlb, ReleaseTimes};
use saga_schedulers::Scheduler;

const STAGGERS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workflow = cli::positional(&args).unwrap_or("blast").to_string();
    let instances: usize = cli::arg_or(&args, "instances", 10);
    let seed: u64 = cli::seed_arg(&args, 0x0411);

    let spec = saga_datasets::workflows::spec(&workflow)
        .unwrap_or_else(|| panic!("unknown workflow {workflow}"));
    println!(
        "Online vs offline on {workflow} ({instances} instances; stagger = arrival gap per level)\n"
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "stagger", "offline HEFT", "OnlineEFT", "OnlineOLB"
    );

    let engine = BatchEngine::new();
    let progress = Progress::new("online_eval", STAGGERS.len() * instances);
    let cells: Vec<(usize, usize)> = (0..STAGGERS.len())
        .flat_map(|si| (0..instances).map(move |k| (si, k)))
        .collect();
    let rows: Vec<(f64, f64, f64)> = engine.map_ctx(cells, |ctx, (si, k)| {
        let stagger_frac = STAGGERS[si];
        let cell_seed = derive_seed(seed, (si * instances + k) as u64);
        let mut rng = StdRng::seed_from_u64(cell_seed);
        let g = saga_datasets::workflows::build_graph(&workflow, &mut rng);
        let net = saga_datasets::workflows::sample_chameleon_network(&mut rng, &spec);
        let mut inst = Instance::new(net, g);
        saga_datasets::ccr::set_homogeneous_ccr(&mut inst, 1.0);
        let h = saga_schedulers::Heft.makespan_into(&inst, ctx);
        // stagger proportional to the offline makespan scale; jitters from
        // a cell-local stream (the pre-engine driver shared one stream
        // across a stagger row, which serialized generation)
        let stagger = stagger_frac * h / 4.0;
        let mut jitter_rng = StdRng::seed_from_u64(cell_seed ^ 0xABCD);
        let jitters: Vec<f64> = (0..inst.graph.task_count())
            .map(|_| jitter_rng.gen_range(0.0..=stagger.max(1e-12)))
            .collect();
        let releases = ReleaseTimes::staggered(&inst, stagger, |i| jitters[i] * 0.1);
        let se = simulate_online(&inst, &releases, &OnlineEft);
        releases.verify(&inst, &se).expect("valid online schedule");
        let so = simulate_online(&inst, &releases, &OnlineOlb);
        releases.verify(&inst, &so).expect("valid online schedule");
        progress.tick();
        (h, se.makespan(), so.makespan())
    });

    let mut csv = String::from("stagger,offline_heft,online_eft,online_olb\n");
    for (si, &stagger_frac) in STAGGERS.iter().enumerate() {
        let chunk = &rows[si * instances..(si + 1) * instances];
        let n = instances as f64;
        let offline: f64 = chunk.iter().map(|r| r.0).sum::<f64>() / n;
        let eft: f64 = chunk.iter().map(|r| r.1).sum::<f64>() / n;
        let olb: f64 = chunk.iter().map(|r| r.2).sum::<f64>() / n;
        println!("{stagger_frac:>8.2} {offline:>14.1} {eft:>14.1} {olb:>14.1}");
        csv.push_str(&format!("{stagger_frac},{offline},{eft},{olb}\n"));
    }
    let path = write_results_file(&format!("online_{workflow}.csv"), &csv);
    eprintln!("wrote {}", path.display());
    println!(
        "\noffline HEFT sees the whole graph at t=0; the online policies pay\n\
         for both non-clairvoyance and the arrival-induced idle time."
    );
}
