//! Property suite for incremental delta-evaluation.
//!
//! The annealer's hot path re-evaluates schedulers through
//! `Scheduler::makespan_incremental`: the kernel refreshes only the cost
//! tables a perturbation's [`DirtyRegion`] names, and supporting schedulers
//! replay the unchanged placement prefix of their recorded previous run.
//! Link-weight and structural edits give full regions, so they exercise
//! the full rebuild between incremental steps.
//! This suite drives the exact protocol the annealing loop uses — perturb →
//! incremental evaluate → undo → incremental evaluate, with the dirty
//! region taken from the perturbation undo records — across *all six*
//! perturbation operators and every benchmark scheduler, asserting each
//! incremental makespan bit-identical to a from-scratch evaluation in a
//! fresh context. The round-trip properties also drive one reused context
//! on the `incremental: false` reference path through the same protocol,
//! which must widen every region itself and so never go stale. Any unsound
//! replay-prefix rule flips bits here long before it could reach the
//! golden fixtures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{DirtyRegion, EvalPaths, Instance, RunTrace, SchedContext};
use saga::datasets::workflows::WORKFLOW_NAMES;
use saga::pisa::app_specific::AppSpecific;
use saga::pisa::perturb::{initial_instance, GeneralPerturber, Perturber};
use saga::schedulers::Scheduler;

/// A context kept warm across evaluations, with one trace per scheduler.
struct Warm {
    ctx: SchedContext,
    traces: Vec<RunTrace>,
}

impl Warm {
    fn new(paths: EvalPaths, scheds: &[Box<dyn Scheduler>]) -> Self {
        Warm {
            ctx: SchedContext::with_paths(paths),
            traces: scheds.iter().map(|_| RunTrace::new()).collect(),
        }
    }
}

/// Evaluates every scheduler incrementally on each warm context (shared
/// pinned tables, per-scheduler traces — exactly how
/// `Pisa::ratio_incremental` drives pairs) and asserts each result
/// bit-identical to a full run in a fresh context.
fn check_all(
    scheds: &[Box<dyn Scheduler>],
    inst: &Instance,
    warm: &mut [Warm],
    dirty: &DirtyRegion,
    fresh: &mut SchedContext,
    step: &str,
) {
    let fulls: Vec<f64> = scheds
        .iter()
        .map(|s| s.makespan_into(inst, fresh))
        .collect();
    for w in warm.iter_mut() {
        let ctx = &mut w.ctx;
        ctx.pin_tables_dirty(inst, dirty);
        for ((s, trace), full) in scheds.iter().zip(w.traces.iter_mut()).zip(&fulls) {
            let incremental = s.makespan_incremental(inst, ctx, trace, dirty);
            assert_eq!(
                incremental.to_bits(),
                full.to_bits(),
                "{} diverged at {step} on {:?}: incremental {incremental} vs full {full}",
                s.name(),
                ctx.paths()
            );
        }
        ctx.unpin_tables();
    }
}

/// Drives `iters` rounds of the annealer protocol on `inst` — perturb →
/// evaluate, and on a coin flip revert → evaluate with the perturbation's
/// region again (the annealer's `pending`) — checking every scheduler each
/// time, on a default context and on a reused `incremental: false` one.
fn roundtrip(
    scheds: &[Box<dyn Scheduler>],
    perturber: &GeneralPerturber,
    mut inst: Instance,
    rng: &mut StdRng,
    iters: usize,
    label: &str,
) {
    let reference = EvalPaths {
        incremental: false,
        ..EvalPaths::default()
    };
    let mut warm = [
        Warm::new(EvalPaths::default(), scheds),
        Warm::new(reference, scheds),
    ];
    let mut fresh = SchedContext::new();
    // seed the traces exactly like a restart's first evaluation
    check_all(
        scheds,
        &inst,
        &mut warm,
        &DirtyRegion::full(),
        &mut fresh,
        &format!("{label} initial"),
    );
    for iter in 0..iters {
        let undo = perturber
            .perturb_undoable(&mut inst, rng)
            .expect("general perturber always supports undo");
        let dirty = undo.dirty_region();
        check_all(
            scheds,
            &inst,
            &mut warm,
            &dirty,
            &mut fresh,
            &format!("{label} iter {iter} perturb"),
        );
        if rng.gen_bool(0.5) {
            undo.revert(&mut inst);
            check_all(
                scheds,
                &inst,
                &mut warm,
                &undo.dirty_region(),
                &mut fresh,
                &format!("{label} iter {iter} revert"),
            );
        }
    }
}

#[test]
fn perturb_evaluate_undo_roundtrips_bit_identically() {
    let scheds = saga::schedulers::benchmark_schedulers();
    let perturber = GeneralPerturber::default();
    for seed in [1u64, 7, 42] {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = initial_instance(&mut rng);
        roundtrip(
            &scheds,
            &perturber,
            inst,
            &mut rng,
            150,
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn section_vii_instances_roundtrip_bit_identically() {
    // the Section VII grid: rigid workflow graphs of up to ~45 tasks on
    // 4-10-node networks under the weight-only perturber — deep replay
    // prefixes, and networks on both sides of the fused-row cutoff
    let scheds = saga::schedulers::benchmark_schedulers();
    let mut node_counts = Vec::new();
    for (w, workflow) in WORKFLOW_NAMES.iter().enumerate() {
        for (c, ccr) in [0.2, 1.0, 5.0].into_iter().enumerate() {
            let app = AppSpecific::new(workflow, ccr).expect("known workflow");
            let mut rng = StdRng::seed_from_u64((w * 3 + c) as u64);
            let inst = app.initial_instance(&mut rng);
            node_counts.push(inst.network.node_count());
            roundtrip(
                &scheds,
                &app.perturber(),
                inst,
                &mut rng,
                30,
                &format!("{workflow}@{ccr}"),
            );
        }
    }
    // the fused-row band starts at 8 nodes
    assert!(node_counts.iter().any(|&n| n < 8), "{node_counts:?}");
    assert!(node_counts.iter().any(|&n| n >= 8), "{node_counts:?}");
}

#[test]
fn rejection_dirt_accumulates_into_next_evaluation() {
    // the annealer skips the evaluation after a revert and instead folds
    // the revert's dirt into the *next* perturbation's region — drive that
    // exact merge protocol
    let scheds = saga::schedulers::benchmark_schedulers();
    let perturber = GeneralPerturber::default();
    let mut rng = StdRng::seed_from_u64(99);
    let mut inst = initial_instance(&mut rng);
    let mut warm = [Warm::new(EvalPaths::default(), &scheds)];
    let mut fresh = SchedContext::new();
    check_all(
        &scheds,
        &inst,
        &mut warm,
        &DirtyRegion::full(),
        &mut fresh,
        "initial",
    );
    let mut pending = DirtyRegion::clean();
    for iter in 0..200 {
        let undo = perturber
            .perturb_undoable(&mut inst, &mut rng)
            .expect("undoable");
        let mut dirty = undo.dirty_region();
        dirty.merge(&pending);
        check_all(
            &scheds,
            &inst,
            &mut warm,
            &dirty,
            &mut fresh,
            &format!("iter {iter}"),
        );
        if rng.gen_bool(0.4) {
            undo.revert(&mut inst);
            pending = undo.dirty_region();
        } else {
            pending = DirtyRegion::clean();
        }
    }
}

#[test]
fn incremental_schedules_materialize_identically() {
    // the metric-objective cells need full Schedules, not just makespans:
    // compare every assignment of the incremental materialization against
    // the from-scratch one
    let scheds = saga::schedulers::benchmark_schedulers();
    let perturber = GeneralPerturber::default();
    let mut rng = StdRng::seed_from_u64(5);
    let mut inst = initial_instance(&mut rng);
    let mut ctx = SchedContext::new();
    let mut fresh = SchedContext::new();
    let mut traces: Vec<RunTrace> = scheds.iter().map(|_| RunTrace::new()).collect();
    let mut dirty = DirtyRegion::full();
    for _ in 0..60 {
        ctx.pin_tables_dirty(&inst, &dirty);
        for (s, trace) in scheds.iter().zip(traces.iter_mut()) {
            let a = s.schedule_incremental_into(&inst, &mut ctx, trace, &dirty);
            let b = s.schedule_into(&inst, &mut fresh);
            assert_eq!(
                a.makespan().to_bits(),
                b.makespan().to_bits(),
                "{} makespan",
                s.name()
            );
            for t in inst.graph.tasks() {
                let (x, y) = (a.assignment(t), b.assignment(t));
                assert_eq!(x.node, y.node, "{} node of {t}", s.name());
                assert_eq!(
                    x.start.to_bits(),
                    y.start.to_bits(),
                    "{} start of {t}",
                    s.name()
                );
                assert_eq!(
                    x.finish.to_bits(),
                    y.finish.to_bits(),
                    "{} finish of {t}",
                    s.name()
                );
            }
        }
        ctx.unpin_tables();
        let undo = perturber
            .perturb_undoable(&mut inst, &mut rng)
            .expect("undoable");
        dirty = undo.dirty_region();
    }
}
