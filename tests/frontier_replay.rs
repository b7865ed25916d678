//! Property suite for the frontier schedulers' incremental replay: MinMin,
//! MaxMin and WBA.
//!
//! MinMin and MaxMin keep replaying their recorded run after a dirty task
//! becomes ready, as long as each ready dirty task's fresh best finish
//! loses to the recorded choice under the scan's first-extremum tie-break
//! in task-id order; they stop when the recorded task itself is dirty, and
//! at the first ready dirty task on networks wider than 32 nodes. WBA stops
//! at the first ready dirty task. This suite drives the three schedulers
//! through task-weight and dependency-weight edits on instances built to
//! reach the edges of those rules, and requires the schedule of a default
//! (incremental) context to equal, placement for placement and bit for
//! bit, the schedules of a context on `EvalPaths { incremental: false, .. }`
//! (a full run every time) and of one on `EvalPaths { fused_rows: false,
//! .. }`:
//!
//! * integer task and dependency weights on speeds and link strengths of 1
//!   or 2, so every time is exact and a dirty task's fresh finish often
//!   ties the recorded choice, with dirty ids both below and above the
//!   recorded task's id;
//! * zero-speed nodes and zero-bandwidth links, whose infinite finishes
//!   tie each other;
//! * networks wider than 32 nodes.
//!
//! Edits are sometimes merged before an evaluation, the way the annealer
//! accumulates the regions of rejected iterations, so several dirty tasks
//! can sit in the frontier at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{
    DirtyRegion, EvalPaths, Instance, Network, NodeId, RunTrace, SchedContext, Schedule, TaskGraph,
    TaskId,
};
use saga::schedulers::{MaxMin, MinMin, Scheduler, Wba};

/// A random DAG on integer weights in `0..=4` (forward edges with
/// probability `p_edge`), on `nodes` nodes of speed 1 or 2 joined by links
/// of strength 1 or 2; with `dead`, one node has speed 0 and one link
/// strength 0.
fn integer_instance(
    rng: &mut StdRng,
    tasks: usize,
    nodes: usize,
    p_edge: f64,
    dead: bool,
) -> Instance {
    let mut g = TaskGraph::with_capacity(tasks);
    let ids: Vec<TaskId> = (0..tasks)
        .map(|i| g.add_task(format!("t{i}"), rng.gen_range(0..5u32) as f64))
        .collect();
    for i in 0..tasks {
        for j in (i + 1)..tasks {
            if rng.gen_bool(p_edge) {
                g.add_dependency(ids[i], ids[j], rng.gen_range(0..5u32) as f64)
                    .unwrap();
            }
        }
    }
    let speeds: Vec<f64> = (0..nodes).map(|_| rng.gen_range(1..3u32) as f64).collect();
    let mut net = Network::complete(&speeds, 1.0);
    for u in 0..nodes {
        for v in (u + 1)..nodes {
            let strength = rng.gen_range(1..3u32) as f64;
            net.set_link(NodeId(u as u32), NodeId(v as u32), strength);
        }
    }
    if dead && nodes > 1 {
        let v = rng.gen_range(0..nodes);
        net.set_speed(NodeId(v as u32), 0.0);
        let u = (v + 1 + rng.gen_range(0..nodes - 1)) % nodes;
        let w = rng.gen_range(0..nodes);
        if u != w {
            net.set_link(NodeId(u as u32), NodeId(w as u32), 0.0);
        }
    }
    Instance::new(net, g)
}

/// One random weight edit applied to `inst`: a task's cost or a
/// dependency's data size set to an integer in `0..=4`. Returns the edit's
/// dirty region.
fn weight_edit(inst: &mut Instance, rng: &mut StdRng) -> DirtyRegion {
    let g = &mut inst.graph;
    let deps = g.dependency_count();
    let value = rng.gen_range(0..5u32) as f64;
    if deps > 0 && rng.gen_bool(0.5) {
        let (from, to, _) = g.nth_dependency(rng.gen_range(0..deps)).unwrap();
        g.set_dependency_cost(from, to, value).unwrap();
        DirtyRegion::dep_weight(from, to)
    } else {
        let t = TaskId(rng.gen_range(0..g.task_count()) as u32);
        g.set_cost(t, value).unwrap();
        DirtyRegion::task_weight(t)
    }
}

/// A context on `paths` with one trace per scheduler.
struct Warm {
    ctx: SchedContext,
    traces: Vec<RunTrace>,
}

/// Every scheduler's incremental schedule on every warm context, after
/// refreshing each context's pinned tables for `dirty`.
fn evaluate(
    scheds: &[Box<dyn Scheduler>],
    inst: &Instance,
    warm: &mut [Warm],
    dirty: &DirtyRegion,
) -> Vec<Vec<Schedule>> {
    warm.iter_mut()
        .map(|w| {
            w.ctx.pin_tables_dirty(inst, dirty);
            let out = scheds
                .iter()
                .zip(w.traces.iter_mut())
                .map(|(s, trace)| s.schedule_incremental_into(inst, &mut w.ctx, trace, dirty))
                .collect();
            w.ctx.unpin_tables();
            out
        })
        .collect()
}

fn assert_same(a: &Schedule, b: &Schedule, what: &str) {
    assert_eq!(
        a.makespan().to_bits(),
        b.makespan().to_bits(),
        "{what}: makespan {} vs {}",
        a.makespan(),
        b.makespan()
    );
    for (x, y) in a.assignments().iter().zip(b.assignments()) {
        assert_eq!(x.node, y.node, "{what}: node of {}", x.task);
        assert_eq!(
            x.start.to_bits(),
            y.start.to_bits(),
            "{what}: start of {}",
            x.task
        );
    }
}

/// Runs `edits` rounds of weight edits on `inst`, checking after each that
/// the three contexts agree on every scheduler.
fn drive(inst: &mut Instance, rng: &mut StdRng, edits: usize, label: &str) {
    let scheds: Vec<Box<dyn Scheduler>> =
        vec![Box::new(MinMin), Box::new(MaxMin), Box::new(Wba::default())];
    let paths = [
        EvalPaths::default(),
        EvalPaths {
            incremental: false,
            ..EvalPaths::default()
        },
        EvalPaths {
            fused_rows: false,
            ..EvalPaths::default()
        },
    ];
    let mut warm: Vec<Warm> = paths
        .iter()
        .map(|&p| Warm {
            ctx: SchedContext::with_paths(p),
            traces: scheds.iter().map(|_| RunTrace::new()).collect(),
        })
        .collect();
    let mut dirty = DirtyRegion::full();
    for step in 0..edits {
        let runs = evaluate(&scheds, inst, &mut warm, &dirty);
        for (k, s) in scheds.iter().enumerate() {
            for (ctx_runs, p) in runs.iter().zip(&paths).skip(1) {
                let what = format!("{label} step {step}: {} default vs {p:?}", s.name());
                assert_same(&runs[0][k], &ctx_runs[k], &what);
            }
        }
        // one edit, or two merged (a rejected iteration's region carried
        // into the next evaluation)
        dirty = weight_edit(inst, rng);
        if rng.gen_bool(0.3) {
            dirty.merge(&weight_edit(inst, rng));
        }
    }
}

#[test]
fn narrow_integer_instances_replay_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..48 {
        let tasks = rng.gen_range(2..24);
        let nodes = rng.gen_range(1..7);
        let p_edge = [0.0, 0.1, 0.25][case % 3];
        let dead = case % 4 == 3;
        let mut inst = integer_instance(&mut rng, tasks, nodes, p_edge, dead);
        drive(&mut inst, &mut rng, 24, &format!("case {case}"));
    }
}

#[test]
fn fused_band_integer_instances_replay_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0xBA2D);
    for case in 0..12 {
        let tasks = rng.gen_range(4..20);
        let nodes = rng.gen_range(8..33);
        let p_edge = [0.0, 0.15][case % 2];
        let dead = case % 3 == 2;
        let mut inst = integer_instance(&mut rng, tasks, nodes, p_edge, dead);
        drive(&mut inst, &mut rng, 12, &format!("case {case}"));
    }
}

#[test]
fn wide_networks_replay_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x33);
    for case in 0..4 {
        let tasks = rng.gen_range(4..14);
        let nodes = rng.gen_range(33..41);
        let dead = case % 2 == 1;
        let mut inst = integer_instance(&mut rng, tasks, nodes, 0.15, dead);
        drive(&mut inst, &mut rng, 10, &format!("case {case}"));
    }
}
