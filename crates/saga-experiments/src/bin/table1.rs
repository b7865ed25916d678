//! Regenerates Table I: the scheduler inventory, with the model each
//! algorithm was designed for, its scheduling complexity, and any formal
//! guarantee — straight from the implementations' module documentation.
//!
//! The complexity column is now *measured* too: the (scheduler) cells run
//! through the batch engine's sequential path (`map_ctx_seq` — one warm
//! pooled context, no fan-out, because concurrently timed cells would
//! inflate each other's wall-clock on shared cores) against a fixed
//! 50-task/4-node instance, so the printed µs put the asymptotic claims
//! next to live numbers and do not vary with `RAYON_NUM_THREADS`. The
//! exponential reference solvers are not timed (they would dominate the
//! table's runtime), as in the paper's experiments.
//!
//! Usage: `table1 [--reps N]` (default 20 repetitions per scheduler).

use saga_experiments::{cli, engine::BatchEngine};
use saga_schedulers::util::fixtures;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps = cli::count_arg(&args, "reps", 20);

    println!("Table I: Schedulers implemented in SAGA-rs\n");
    println!(
        "{:<12} {:<38} {:<22} {:>12}  Design model / notes",
        "Abbrev", "Algorithm", "Complexity", "us/sched*"
    );
    let rows = [
        (
            "BIL",
            "Best Imaginary Level",
            "O(|T|^2 |V| log|V|)",
            "unrelated machines; optimal on chains",
        ),
        (
            "BnB",
            "Branch & bound + binary search",
            "exponential",
            "SMT substitute; (1+eps)-OPT reference",
        ),
        (
            "BruteForce",
            "Exhaustive search",
            "exponential",
            "optimal reference, toy instances only",
        ),
        (
            "CPoP",
            "Critical Path on Processor",
            "O(|T|^2 |V|)",
            "heterogeneous; CP pinned to fastest node",
        ),
        (
            "Duplex",
            "Best of MinMin and MaxMin",
            "O(|T|^2 |V|)",
            "independent-task heuristic on ready sets",
        ),
        (
            "ETF",
            "Earliest Task First",
            "O(|T| |V|^2)",
            "homogeneous nodes; (2-1/n)OPT+C bound",
        ),
        (
            "FCP",
            "Fast Critical Path",
            "O(|T| log|V| + |D|)",
            "homogeneous links; 2-candidate nodes",
        ),
        (
            "FLB",
            "Fast Load Balancing",
            "O(|T| log|V| + |D|)",
            "homogeneous links; earliest-finish greedy",
        ),
        (
            "FastestNode",
            "Serial on fastest node",
            "O(|T|)",
            "baseline; never communicates",
        ),
        (
            "GDL",
            "Generalized Dynamic Level (DLS)",
            "O(|V|^3 |T|)",
            "unrelated machines; dynamic levels",
        ),
        (
            "HEFT",
            "Heterogeneous Earliest Finish Time",
            "O(|T|^2 |V|)",
            "heterogeneous; insertion-based EFT",
        ),
        (
            "MCT",
            "Minimum Completion Time",
            "O(|T|^2 |V|)",
            "HEFT minus insertion and priorities",
        ),
        (
            "MET",
            "Minimum Execution Time",
            "O(|T| |V|)",
            "serializes under related machines",
        ),
        (
            "MaxMin",
            "MaxMin",
            "O(|T|^2 |V|)",
            "big rocks first on ready sets",
        ),
        (
            "MinMin",
            "MinMin",
            "O(|T|^2 |V|)",
            "cheapest completion first on ready sets",
        ),
        (
            "OLB",
            "Opportunistic Load Balancing",
            "O(|T| |V|)",
            "first-idle node, ignores speeds",
        ),
        (
            "WBA",
            "Workflow-Based Application",
            "O(|T| |D| |V|)",
            "randomized min-increase placement",
        ),
    ];

    // one engine batch: cell = one scheduler timed `reps` times (sequential
    // path — parallel timing would contend for cores and skew the numbers)
    let inst = fixtures::random_instance(42, 50, 4, 0.15);
    let engine = BatchEngine::new();
    let cells: Vec<&str> = rows.iter().map(|&(abbrev, ..)| abbrev).collect();
    let micros: Vec<Option<f64>> = engine.map_ctx_seq(cells, |ctx, abbrev| {
        let sched = saga_schedulers::by_name(abbrev).expect("roster scheduler");
        if matches!(abbrev, "BnB" | "BruteForce") {
            return None; // exponential references: not timed
        }
        // warm-up run, then the timed repetitions
        std::hint::black_box(sched.makespan_into(&inst, ctx));
        #[expect(
            clippy::disallowed_methods,
            reason = "the latency column is a measurement, printed and never pinned"
        )]
        let t = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(sched.makespan_into(&inst, ctx));
        }
        Some(t.elapsed().as_secs_f64() * 1e6 / reps as f64)
    });

    for ((abbrev, name, complexity, notes), us) in rows.iter().zip(&micros) {
        let measured = match us {
            Some(us) => format!("{us:>12.1}"),
            None => format!("{:>12}", "-"),
        };
        println!("{abbrev:<12} {name:<38} {complexity:<22} {measured}  {notes}");
    }
    println!("\n* mean over {reps} runs on a fixed 50-task, 4-node instance");
    println!(
        "{} polynomial-time schedulers are benchmarked (Fig. 2) and compared\n\
         adversarially (Fig. 4); BruteForce and BnB are exponential references\n\
         excluded from those experiments, as in the paper.",
        saga_schedulers::benchmark_schedulers().len()
    );
}
