//! Cross-crate integration: every polynomial scheduler must produce a valid
//! schedule on instances from every dataset generator — the combination the
//! paper's Fig. 2 exercises 15 x 16 times.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga::core::{
    DirtyRegion, Instance, Network, NodeId, RunTrace, SchedContext, TaskGraph, TaskId,
};
use saga::pisa::app_specific::AppSpecific;
use saga::schedulers::util::fixtures;
use saga::schedulers::{FastestNode, Scheduler};

#[test]
fn every_scheduler_is_valid_on_every_dataset() {
    let schedulers = saga::schedulers::benchmark_schedulers();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for gen in saga::datasets::all_generators() {
        for k in 0..2 {
            let inst = gen.sample(&mut rng);
            for s in &schedulers {
                let sched = s.schedule(&inst);
                sched.verify(&inst).unwrap_or_else(|e| {
                    panic!("{} invalid on {} sample {k}: {e}", s.name(), gen.name)
                });
                assert!(
                    sched.makespan() > 0.0,
                    "{} zero makespan on {}",
                    s.name(),
                    gen.name
                );
            }
        }
    }
}

#[test]
fn exact_solvers_are_valid_and_lower_bound_heuristics_on_tiny_instances() {
    let mut rng = StdRng::seed_from_u64(7);
    let gen = saga::datasets::by_name("chains").unwrap();
    // shrink: chains instances can have up to 27 tasks; find small samples
    let mut checked = 0;
    while checked < 2 {
        let inst = gen.sample(&mut rng);
        if inst.graph.task_count() > 7 || inst.network.node_count() > 3 {
            continue;
        }
        checked += 1;
        let opt = saga::schedulers::BruteForce::default().schedule(&inst);
        opt.verify(&inst).unwrap();
        for s in saga::schedulers::benchmark_schedulers() {
            let m = s.schedule(&inst).makespan();
            assert!(
                opt.makespan() <= m + 1e-9,
                "BruteForce {} > {} {}",
                opt.makespan(),
                s.name(),
                m
            );
        }
    }
}

#[test]
fn makespan_ratio_one_is_always_achieved_by_someone() {
    let schedulers = saga::schedulers::benchmark_schedulers();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for gen in saga::datasets::all_generators() {
        let inst = gen.sample(&mut rng);
        let ms: Vec<f64> = schedulers
            .iter()
            .map(|s| s.schedule(&inst).makespan())
            .collect();
        let best = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(best.is_finite(), "someone must finish on {}", gen.name);
    }
}

#[test]
fn schedulers_are_deterministic_across_calls() {
    // WBA is seeded; everything else is purely deterministic — two calls on
    // the same instance must agree exactly.
    let mut rng = StdRng::seed_from_u64(0xDE7);
    let gen = saga::datasets::by_name("montage").unwrap();
    let inst = gen.sample(&mut rng);
    for s in saga::schedulers::benchmark_schedulers() {
        let a = s.schedule(&inst);
        let b = s.schedule(&inst);
        assert_eq!(a.makespan(), b.makespan(), "{} nondeterministic", s.name());
        for t in inst.graph.tasks() {
            assert_eq!(a.assignment(t).node, b.assignment(t).node);
            assert_eq!(a.assignment(t).start, b.assignment(t).start);
        }
    }
}

/// FastestNode's makespan entry points compute a sum over the topological
/// order instead of placing tasks; on every instance they must return the
/// bits of the makespan its placement run (`schedule`) materializes —
/// through a fresh context, a context reused across instances, pinned
/// tables, and the incremental entry point.
fn assert_fold_matches_placement(inst: &Instance, ctx: &mut SchedContext, label: &str) {
    let placed = FastestNode.schedule(inst).makespan().to_bits();
    let fresh = FastestNode.makespan_into(inst, &mut SchedContext::new());
    assert_eq!(fresh.to_bits(), placed, "{label}: fresh context");
    assert_eq!(
        FastestNode.makespan_into(inst, ctx).to_bits(),
        placed,
        "{label}: reused context"
    );
    let pinned = ctx.with_pinned(inst, |ctx| FastestNode.makespan_into(inst, ctx));
    assert_eq!(pinned.to_bits(), placed, "{label}: pinned tables");
    let mut trace = RunTrace::default();
    let incremental = FastestNode.makespan_incremental(inst, ctx, &mut trace, &DirtyRegion::full());
    assert_eq!(incremental.to_bits(), placed, "{label}: incremental");
}

#[test]
fn fastest_node_fold_matches_its_placement_run() {
    let mut ctx = SchedContext::new();
    let mut rng = StdRng::seed_from_u64(0xFA57);
    for gen in saga::datasets::all_generators() {
        for k in 0..3 {
            let inst = gen.sample(&mut rng);
            assert_fold_matches_placement(&inst, &mut ctx, &format!("{} sample {k}", gen.name));
        }
    }
    // Section VII starting instances
    for workflow in saga::datasets::workflows::WORKFLOW_NAMES {
        for ccr in saga::datasets::ccr::PAPER_CCRS {
            let app = AppSpecific::new(workflow, ccr).expect("known workflow");
            let inst = app.initial_instance(&mut rng);
            assert_fold_matches_placement(&inst, &mut ctx, &format!("{workflow} ccr {ccr}"));
        }
    }
    // degenerate weights: zero speeds (infinite execution times, on the
    // fastest node too when every speed is zero), zero costs, and random
    // DAGs whose ids run against the topological order, with one cost so
    // large that the order of the additions shows in the sum
    for seed in 0..24u64 {
        let mut inst =
            fixtures::random_instance(seed, 12 + seed as usize % 20, 1 + seed as usize % 5, 0.3);
        let n = inst.graph.task_count();
        let reversed = reversed_ids(&inst.graph);
        inst.graph = reversed;
        for (i, t) in inst
            .graph
            .tasks()
            .collect::<Vec<_>>()
            .into_iter()
            .enumerate()
        {
            let cost = match (seed + i as u64) % 7 {
                0 => 0.0,
                1 if i + 1 == n => 1e16,
                _ => inst.graph.cost(t),
            };
            inst.graph.set_cost(t, cost).unwrap();
        }
        let label = format!("degenerate seed {seed}");
        assert_fold_matches_placement(&inst, &mut ctx, &label);
        let nv = inst.network.node_count();
        for v in 0..nv {
            if seed % 2 == 0 || v + 1 < nv {
                inst.network.set_speed(NodeId(v as u32), 0.0);
            }
        }
        assert_fold_matches_placement(&inst, &mut ctx, &format!("{label}, zero speeds"));
    }
    // a chain whose ids run backwards from its one huge cost: in
    // topological order each small execution time (0.5, half an ulp) is
    // lost under the huge one; summed in id order they would come first
    // and add up to 2
    let mut g = TaskGraph::new();
    let ids: Vec<TaskId> = (0..5)
        .map(|i| g.add_task(format!("t{i}"), if i == 4 { 1e16 } else { 1.0 }))
        .collect();
    for w in ids.windows(2) {
        g.add_dependency(w[1], w[0], 1.0).unwrap();
    }
    let inst = Instance::new(Network::complete(&[1.0, 2.0], 1.0), g);
    assert_eq!(FastestNode.makespan_into(&inst, &mut ctx), 5e15);
    assert_fold_matches_placement(&inst, &mut ctx, "backward chain");
}

/// `g` with task ids reversed (task `i` becomes `n - 1 - i`), so every
/// dependency runs from a higher id to a lower one.
fn reversed_ids(g: &TaskGraph) -> TaskGraph {
    let n = g.task_count();
    let id = |t: TaskId| TaskId((n - 1 - t.index()) as u32);
    let mut r = TaskGraph::with_capacity(n);
    for i in (0..n).rev() {
        let t = TaskId(i as u32);
        r.add_task(g.name(t), g.cost(t));
    }
    for (a, b, c) in g.dependencies() {
        r.add_dependency(id(a), id(b), c).unwrap();
    }
    r
}
