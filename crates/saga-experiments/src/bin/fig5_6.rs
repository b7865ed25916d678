//! Regenerates Figs. 5 and 6: the HEFT-vs-CPoP case studies. Runs PISA in
//! both directions and prints the found instances (task graph, network,
//! both Gantt charts) — the raw material of the paper's Section VI-B
//! analysis.
//!
//! Usage: `fig5_6 [--imax N] [--restarts R] [--seed S]`.

use saga_core::gantt;
use saga_experiments::{cli, write_results_file};
use saga_pisa::perturb::initial_instance;
use saga_pisa::{GeneralPerturber, Pisa, PisaConfig};
use saga_schedulers::{Cpop, Heft, Scheduler};

fn case(target: &dyn Scheduler, baseline: &dyn Scheduler, config: PisaConfig, file: &str) {
    let perturber = GeneralPerturber::default();
    let pisa = Pisa {
        target,
        baseline,
        perturber: &perturber,
        config,
    };
    let res = pisa.run(&|rng| initial_instance(rng));
    println!(
        "== {} vs {}: worst ratio {:.3} (initial {:.3}, {} evaluations) ==",
        target.name(),
        baseline.name(),
        res.ratio,
        res.initial_ratio,
        res.evaluations
    );
    let inst = &res.instance;
    println!(
        "instance: {} tasks, {} deps, {} nodes",
        inst.graph.task_count(),
        inst.graph.dependency_count(),
        inst.network.node_count()
    );
    for t in inst.graph.tasks() {
        println!("  task {t} cost {:.3}", inst.graph.cost(t));
    }
    for (a, b, c) in inst.graph.dependencies() {
        println!("  dep {a} -> {b} size {c:.3}");
    }
    for v in inst.network.nodes() {
        println!("  node {v} speed {:.3}", inst.network.speed(v));
    }
    for u in inst.network.nodes() {
        for v in inst.network.nodes() {
            if u < v {
                println!("  link {u}-{v} strength {:.3}", inst.network.link(u, v));
            }
        }
    }
    for s in [target, baseline] {
        let sched = s.schedule(inst);
        sched.verify(inst).expect("valid");
        println!("{} makespan {:.3}", s.name(), sched.makespan());
        println!("{}", gantt::render(inst, &sched, 60));
    }
    let path = write_results_file(file, &inst.to_json());
    eprintln!("witness written to {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let config = PisaConfig {
        i_max: cli::arg_or(&args, "imax", 1000),
        restarts: cli::count_arg(&args, "restarts", 5),
        seed: cli::seed_arg(&args, 0xF165),
        ..PisaConfig::default()
    };
    println!("Figs. 5-6: adversarial case studies between HEFT and CPoP\n");
    // Fig. 5: HEFT performs worse than CPoP (paper found 1.55x)
    case(&Heft, &Cpop, config, "fig5_heft_vs_cpop.json");
    // Fig. 6: CPoP performs worse than HEFT (paper found 2.83x)
    case(&Cpop, &Heft, config, "fig6_cpop_vs_heft.json");
}
