//! Property suite for the kernel's run-state bookkeeping: the per-node
//! timelines, the per-node max finishes behind the append tails, and the
//! incremental ready queue that [`SchedContext::place`] and
//! [`SchedContext::unplace`] maintain.
//!
//! Random valid placement sequences run on `fixtures::random_instance`
//! shapes (1–45 tasks, 1–40 nodes) with about a quarter of the task costs
//! set to zero, or all of them on every sixth instance. Each step places a random ready task on a random node at
//! one of three starts: the insertion-policy EFT start (which fills idle
//! gaps, so the new slot lands before the node's last one), the
//! append-policy EFT start, or — for a zero-cost task — exactly the start
//! of a slot already on the node. Random LIFO runs of `unplace` are mixed
//! in, the way branch-and-bound backtracks.
//!
//! After every call the kernel must agree with a naive reference model:
//!
//! * `ready()` equals the unplaced tasks whose predecessors are all
//!   placed, in ascending id order;
//! * each node's slots, kept by the model in the order a
//!   `partition_point(|s| s.start <= start)` insert gives, yield bit for
//!   bit the kernel's `append_tails()` (the max finish over the slots),
//!   `current_makespan()`, and `earliest_start_insertion` gap scan (which
//!   walks the slots in timeline order);
//! * whenever every task is placed, `snapshot_schedule()` gives every task
//!   the model's node, start and finish bits, and each node's task order
//!   equals the model's slots under the schedule's (start, finish, id)
//!   sort.
//!
//! A second test checks the cached topological order: on one reused
//! context, `topo_order()` must equal `TaskGraph::topological_order()` for
//! every dataset generator's graphs, for disjoint unions of them grown
//! past 96 tasks, and after random add- and remove-dependency edits on
//! graphs of 64 tasks and of more.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, NodeId, SchedContext, TaskGraph, TaskId, TIME_EPS};
use saga::schedulers::util::fixtures;

/// One slot of the reference timeline: `(start, finish, task)`.
type Slot = (f64, f64, TaskId);

/// The naive reference for the kernel's run state.
struct Model {
    timelines: Vec<Vec<Slot>>,
    placed: Vec<bool>,
}

impl Model {
    fn new(n_tasks: usize, n_nodes: usize) -> Self {
        Model {
            timelines: vec![Vec::new(); n_nodes],
            placed: vec![false; n_tasks],
        }
    }

    fn place(&mut self, t: TaskId, v: NodeId, start: f64, finish: f64) {
        let tl = &mut self.timelines[v.index()];
        let pos = tl.partition_point(|s| s.0 <= start);
        tl.insert(pos, (start, finish, t));
        self.placed[t.index()] = true;
    }

    fn unplace(&mut self, t: TaskId) {
        for tl in &mut self.timelines {
            tl.retain(|s| s.2 != t);
        }
        self.placed[t.index()] = false;
    }

    fn ready(&self, inst: &Instance) -> Vec<TaskId> {
        (0..self.placed.len())
            .map(|i| TaskId(i as u32))
            .filter(|&t| {
                !self.placed[t.index()]
                    && inst
                        .graph
                        .predecessors(t)
                        .iter()
                        .all(|e| self.placed[e.task.index()])
            })
            .collect()
    }

    fn tails(&self) -> Vec<f64> {
        self.timelines
            .iter()
            .map(|tl| tl.iter().map(|s| s.1).fold(0.0, f64::max))
            .collect()
    }

    fn makespan(&self) -> f64 {
        self.timelines
            .iter()
            .flatten()
            .map(|s| s.1)
            .fold(0.0, f64::max)
    }

    /// The insertion-policy gap scan over the model's slot order.
    fn insertion_start(&self, v: NodeId, ready: f64, duration: f64) -> f64 {
        let tl = &self.timelines[v.index()];
        let max_finish = tl.iter().map(|s| s.1).fold(0.0, f64::max);
        if duration.is_infinite() {
            return ready.max(max_finish);
        }
        if !tl.is_empty() && ready >= max_finish {
            return ready;
        }
        let mut candidate = ready;
        for s in tl {
            let end = candidate + duration;
            if candidate <= s.0
                && end <= s.0 + TIME_EPS * s.0.abs().max(1.0)
                && (end < f64::INFINITY || s.0 == f64::INFINITY)
            {
                return candidate;
            }
            candidate = candidate.max(s.1);
        }
        candidate
    }
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|x| x.to_bits()).collect()
}

/// Compares the kernel's run state with the model after one call.
fn check(ctx: &SchedContext, model: &Model, inst: &Instance, what: &str) {
    assert_eq!(
        ctx.ready(),
        &model.ready(inst)[..],
        "ready queue after {what}"
    );
    assert_eq!(
        bits(ctx.append_tails()),
        bits(&model.tails()),
        "append tails after {what}"
    );
    assert_eq!(
        ctx.current_makespan().to_bits(),
        model.makespan().to_bits(),
        "makespan after {what}"
    );
    for v in 0..ctx.node_count() {
        let v = NodeId(v as u32);
        for (ready, duration) in [(0.0, 0.0), (0.0, 0.05), (0.3, 0.2), (1.0, 1.0)] {
            assert_eq!(
                ctx.earliest_start_insertion(v, ready, duration).to_bits(),
                model.insertion_start(v, ready, duration).to_bits(),
                "gap scan on {v} at ({ready}, {duration}) after {what}"
            );
        }
    }
}

/// Compares a complete schedule with the model.
fn check_snapshot(ctx: &SchedContext, model: &Model) {
    let s = ctx.snapshot_schedule();
    for (vi, tl) in model.timelines.iter().enumerate() {
        let v = NodeId(vi as u32);
        for &(start, finish, t) in tl {
            let a = s.assignment(t);
            assert_eq!(a.node, v, "node of {t}");
            assert_eq!(a.start.to_bits(), start.to_bits(), "start of {t}");
            assert_eq!(a.finish.to_bits(), finish.to_bits(), "finish of {t}");
        }
        let mut order = tl.clone();
        order.sort_by(|x, y| {
            x.0.total_cmp(&y.0)
                .then(x.1.total_cmp(&y.1))
                .then(x.2.cmp(&y.2))
        });
        let order: Vec<TaskId> = order.iter().map(|s| s.2).collect();
        assert_eq!(s.node_tasks(v), &order[..], "slot order on {v}");
    }
}

/// One random placement/unplacement walk over `inst` that completes the
/// schedule `rounds` times.
fn walk(inst: &Instance, rng: &mut StdRng, rounds: usize) {
    let n = inst.graph.task_count();
    let nv = inst.network.node_count();
    let mut ctx = SchedContext::new();
    ctx.reset(inst);
    let mut model = Model::new(n, nv);
    let mut stack: Vec<TaskId> = Vec::new();
    check(&ctx, &model, inst, "reset");
    let mut completed = 0;
    while completed < rounds {
        let backtrack = stack.len() == n || (!stack.is_empty() && rng.gen_bool(0.1));
        if backtrack {
            if stack.len() == n {
                check_snapshot(&ctx, &model);
                completed += 1;
            }
            let k = rng.gen_range(1..=stack.len().min(6));
            for _ in 0..k {
                let t = stack.pop().unwrap();
                ctx.unplace(t);
                model.unplace(t);
                check(&ctx, &model, inst, "unplace");
            }
            continue;
        }
        let ready = model.ready(inst);
        let t = ready[rng.gen_range(0..ready.len())];
        let v = NodeId(rng.gen_range(0..nv) as u32);
        let drt = ctx.data_ready_time(t, v);
        let on_slot: Vec<f64> = model.timelines[v.index()]
            .iter()
            .map(|s| s.0)
            .filter(|&s| s >= drt)
            .collect();
        let start = match rng.gen_range(0..3) {
            2 if ctx.exec_time(t, v) == 0.0 && !on_slot.is_empty() => {
                on_slot[rng.gen_range(0..on_slot.len())]
            }
            1 => ctx.eft(t, v, false).0,
            _ => ctx.eft(t, v, true).0,
        };
        let finish = start + ctx.exec_time(t, v);
        ctx.place(t, v, start);
        model.place(t, v, start, finish);
        stack.push(t);
        check(&ctx, &model, inst, "place");
    }
}

#[test]
fn run_state_matches_a_naive_model() {
    let mut rng = StdRng::seed_from_u64(0x5107);
    for seed in 0..60u64 {
        let tasks = rng.gen_range(1..=45);
        let nodes = rng.gen_range(1..=40);
        let p_edge = [0.0, 0.05, 0.15, 0.4][rng.gen_range(0..4)];
        // every sixth instance is all zero-cost, so many slots share a
        // start: the tie the append fast path must order as the
        // partition_point insert does
        let p_zero = if seed % 6 == 0 { 1.0 } else { 0.25 };
        let mut inst = fixtures::random_instance(seed, tasks, nodes, p_edge);
        for i in 0..tasks {
            if rng.gen_bool(p_zero) {
                inst.graph.set_cost(TaskId(i as u32), 0.0).unwrap();
            }
        }
        walk(&inst, &mut rng, 3);
    }
}

/// `g` and `h` side by side in one graph, `h`'s task ids shifted past
/// `g`'s: how the topology test reaches beyond 64 tasks with the
/// generators' own shapes.
fn disjoint_union(g: &TaskGraph, h: &TaskGraph) -> TaskGraph {
    let mut u = g.clone();
    let base = g.task_count() as u32;
    for t in h.tasks() {
        u.add_task(h.name(t), h.cost(t));
    }
    for (a, b, cost) in h.dependencies() {
        u.add_dependency(TaskId(a.0 + base), TaskId(b.0 + base), cost)
            .unwrap();
    }
    u
}

/// Asserts the kernel's cached order equals the graph's own after a
/// `reset` of the one reused context.
fn check_topo(ctx: &mut SchedContext, inst: &Instance, label: &str) {
    ctx.reset(inst);
    assert_eq!(
        ctx.topo_order(),
        &inst.graph.topological_order()[..],
        "{label}: {} tasks",
        inst.graph.task_count()
    );
}

#[test]
fn topo_order_matches_the_graph_on_a_reused_context() {
    let mut rng = StdRng::seed_from_u64(0x70F0);
    let mut ctx = SchedContext::new();
    for gen in saga::datasets::all_generators() {
        // grow a graph from the generator's samples until it passes 64
        // tasks, checking every size on the way
        let mut inst = gen.sample(&mut rng);
        check_topo(&mut ctx, &inst, gen.name);
        while inst.graph.task_count() <= 96 {
            let more = gen.sample(&mut rng);
            inst.graph = disjoint_union(&inst.graph, &more.graph);
            check_topo(&mut ctx, &inst, gen.name);
        }
        // random structural edits on either side of 64 tasks: the first
        // 64 tasks alone, then the whole graph
        let mut small = inst.clone();
        small.graph = TaskGraph::with_capacity(64);
        for t in inst.graph.tasks().take(64) {
            small.graph.add_task(inst.graph.name(t), inst.graph.cost(t));
        }
        for (a, b, cost) in inst.graph.dependencies() {
            if a.index() < 64 && b.index() < 64 {
                small.graph.add_dependency(a, b, cost).unwrap();
            }
        }
        for target in [&mut small, &mut inst] {
            let n = target.graph.task_count() as u32;
            for edit in 0..40 {
                let (a, b) = (TaskId(rng.gen_range(0..n)), TaskId(rng.gen_range(0..n)));
                let g = &mut target.graph;
                // removals keep the graph from filling up; an add that would
                // close a cycle is refused and leaves it unchanged
                let changed = if g.has_dependency(a, b) {
                    g.remove_dependency(a, b).is_ok()
                } else {
                    g.add_dependency(a, b, rng.gen_range(0.0..=1.0)).is_ok()
                };
                let label = format!("{} edit {edit} ({a} -> {b}, applied: {changed})", gen.name);
                check_topo(&mut ctx, target, &label);
            }
        }
    }
}
