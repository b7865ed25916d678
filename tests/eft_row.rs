//! Property suite for the schedulers' node selection.
//!
//! Each selection helper is one loop, and this suite holds each to an
//! oracle built from per-node kernel queries, on every ready task of
//! reachable partial states:
//!
//! * [`util::best_eft_node`] with the insertion policy (HEFT, CPoP) and
//!   the append policy (MCT, LMT, MH) must return the lowest-index argmin
//!   of the `ctx.eft(t, v, insertion)` finishes, with that node's start and
//!   finish bit for bit;
//! * ETF's [`FrontierSweep::best_node`] must return the lowest-index argmin
//!   of `ctx.eft(t, v, false)` by `(start, finish)`;
//! * the sweep's cached row must equal `ctx.data_ready_time(t, v)` and its
//!   start compose [`FrontierSweep::start`] (GDL's and ERT's start) must
//!   equal `ctx.eft(t, v, false).0`, bit for bit.
//!
//! Half-placed states are generated from the schedulers themselves: each
//! roster scheduler's final schedule is replayed for a prefix of the
//! topological order, so the probed timelines carry that scheduler's real
//! placement style (HEFT/CPoP leave insertion gaps, load balancers leave
//! ragged tails, MET leaves pile-ups). Homogeneous networks and zero-cost
//! tasks and messages make ties common, so a changed tie-break shows, and
//! a dead node makes infinite finishes.
//!
//! [`util::best_eft_node`]: saga::schedulers::util::best_eft_node
//! [`FrontierSweep::best_node`]: saga::schedulers::util::FrontierSweep::best_node
//! [`FrontierSweep::start`]: saga::schedulers::util::FrontierSweep::start

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, SchedContext, TaskGraph, TaskId};
use saga::datasets::iot;
use saga::schedulers::util::{best_eft_node, FrontierSweep, ReadyRow};
use saga::schedulers::Scheduler;

/// [`random_instance_with_zeros`] on a network whose links all have
/// strength `link`, the shape `set_homogeneous_ccr` gives every Section VII
/// instance.
fn single_strength(seed: u64, tasks: usize, nodes: usize, link: f64) -> Instance {
    let inst = random_instance_with_zeros(seed, tasks, nodes, 0.25);
    let speeds = inst.network.speeds().to_vec();
    Instance::new(Network::complete(&speeds, link), inst.graph)
}

/// Asserts `data_ready_times_into` bit-identical to the per-node
/// `data_ready_time` for every task whose predecessors are all placed
/// (placed tasks included), and returns how many tasks it checked.
fn check_ready_rows(ctx: &SchedContext, label: &str) -> usize {
    let mut row = vec![f64::NAN; ctx.node_count()];
    let mut checked = 0;
    for t in ctx.tasks() {
        if !ctx.preds(t).all(|(p, _)| ctx.is_placed(p)) {
            continue;
        }
        checked += 1;
        ctx.data_ready_times_into(t, &mut row);
        for v in ctx.nodes() {
            let want = ctx.data_ready_time(t, v);
            assert_eq!(
                row[v.index()].to_bits(),
                want.to_bits(),
                "{label}: data ready({t}, {v}) diverged: row {} vs query {want}",
                row[v.index()],
            );
        }
    }
    checked
}

/// A seeded random DAG like the shared fixture, but with a fraction of
/// zero-cost tasks and zero-cost messages — the boundary shapes whose slots
/// can finish before their neighbours and whose messages arrive everywhere
/// at once.
fn random_instance_with_zeros(seed: u64, tasks: usize, nodes: usize, p_edge: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TaskGraph::with_capacity(tasks);
    let ids: Vec<_> = (0..tasks)
        .map(|i| {
            let cost = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.01..=1.0)
            };
            g.add_task(format!("t{i}"), cost)
        })
        .collect();
    for i in 0..tasks {
        for j in (i + 1)..tasks {
            if rng.gen_bool(p_edge) {
                let cost = if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(0.01..=1.0)
                };
                g.add_dependency(ids[i], ids[j], cost).unwrap();
            }
        }
    }
    let speeds: Vec<f64> = (0..nodes).map(|_| rng.gen_range(0.1..=1.0)).collect();
    let mut n = Network::complete(&speeds, 1.0);
    for u in 0..nodes {
        for v in (u + 1)..nodes {
            n.set_link(NodeId(u as u32), NodeId(v as u32), rng.gen_range(0.1..=1.0));
        }
    }
    Instance::new(n, g)
}

/// Replays the first `frac`-th of `sched`'s placements (in topological
/// order, so predecessors always precede successors) into a fresh context.
fn half_placed(inst: &Instance, sched: &dyn Scheduler, num: usize, den: usize) -> SchedContext {
    let s = sched.schedule(inst);
    let mut ctx = SchedContext::new();
    ctx.reset(inst);
    let order: Vec<TaskId> = ctx.topo_order().to_vec();
    for &t in order.iter().take(order.len() * num / den) {
        let a = s.assignment(t);
        ctx.place(t, a.node, a.start);
    }
    ctx
}

/// The lowest-index argmin of `key` over `ctx`'s nodes: the first node
/// wins, and a later node only on `better(its key, the incumbent's)`.
fn first_best<K: Copy>(
    ctx: &SchedContext,
    key: impl Fn(NodeId) -> K,
    better: impl Fn(K, K) -> bool,
) -> (NodeId, K) {
    let mut best: Option<(NodeId, K)> = None;
    for v in ctx.nodes() {
        let k = key(v);
        if best.is_none_or(|(_, bk)| better(k, bk)) {
            best = Some((v, k));
        }
    }
    best.expect("network has at least one node")
}

fn bits((v, s, f): (NodeId, f64, f64)) -> (NodeId, u64, u64) {
    (v, s.to_bits(), f.to_bits())
}

/// Asserts every selection helper equal to its per-node oracle for every
/// ready task of `ctx`, and returns how many tasks it checked.
fn check_selection(ctx: &mut SchedContext, label: &str) -> usize {
    let mut row = ReadyRow::new(ctx);
    let sweep = FrontierSweep::new(ctx);
    let nv = ctx.node_count();
    let ready = ctx.ready().to_vec();
    for &t in &ready {
        for insertion in [true, false] {
            let (v, (s, f)) = first_best(ctx, |v| ctx.eft(t, v, insertion), |a, b| a.1 < b.1);
            assert_eq!(
                bits(best_eft_node(ctx, t, insertion, &mut row)),
                bits((v, s, f)),
                "{label}: best_eft_node({t}, insertion {insertion}) diverged"
            );
        }
        let (v, (s, f)) = first_best(
            ctx,
            |v| ctx.eft(t, v, false),
            |(s, f), (bs, bf)| s < bs || (s == bs && f < bf),
        );
        assert_eq!(
            bits(sweep.best_node(ctx, t)),
            bits((v, s, f)),
            "{label}: best_node({t}) diverged"
        );
        for v in ctx.nodes() {
            let ready_time = ctx.data_ready_time(t, v);
            assert_eq!(
                sweep.row(nv, t)[v.index()].to_bits(),
                ready_time.to_bits(),
                "{label}: cached data ready({t}, {v}) diverged"
            );
            let (s, _) = ctx.eft(t, v, false);
            assert_eq!(
                sweep.start(ctx, t, v.index()).to_bits(),
                s.to_bits(),
                "{label}: start({t}, {v}) diverged"
            );
        }
    }
    sweep.release(ctx);
    row.release(ctx);
    ready.len()
}

/// `inst` with every speed and link strength set to 1 (a dead node stays
/// dead), so equal finishes on several nodes are common.
fn homogeneous(inst: &Instance) -> Instance {
    let speeds: Vec<f64> = inst
        .network
        .speeds()
        .iter()
        .map(|&s| if s == 0.0 { 0.0 } else { 1.0 })
        .collect();
    Instance::new(Network::complete(&speeds, 1.0), inst.graph.clone())
}

/// [`check_selection`] on the quarter-, half- and three-quarter-placed
/// states every roster scheduler builds for `inst`; returns how many ready
/// tasks it checked.
fn check_scheduler_states(inst: &Instance, label: &str) -> usize {
    let mut checked = 0;
    for s in &saga::schedulers::benchmark_schedulers() {
        // early frontiers are wide, late ones probe long timelines
        for (num, den) in [(1usize, 4usize), (1, 2), (3, 4)] {
            let mut ctx = half_placed(inst, s.as_ref(), num, den);
            let state = format!("{} {label} {num}/{den}", s.name());
            checked += check_selection(&mut ctx, &state);
        }
    }
    checked
}

#[test]
fn selection_helpers_match_per_node_argmins_on_scheduler_states() {
    for seed in [3u64, 17] {
        for (tasks, nodes) in [
            (12usize, 1usize),
            (16, 3),
            (24, 7),
            (24, 8),
            (28, 9),
            (30, 32),
        ] {
            let mut inst = random_instance_with_zeros(seed, tasks, nodes, 0.2);
            if seed == 17 && nodes > 1 {
                // a dead node: every positive cost runs forever there
                inst.network.set_speed(NodeId(nodes as u32 - 1), 0.0);
            }
            for (shape, inst) in [
                ("random", inst.clone()),
                ("homogeneous", homogeneous(&inst)),
            ] {
                let label = format!("{shape} seed {seed} {tasks}t/{nodes}v");
                assert!(check_scheduler_states(&inst, &label) > 0, "{label}");
            }
        }
    }
}

#[test]
fn selection_helpers_match_on_a_111_node_iot_instance() {
    // the edge/fog/cloud network of the IoT datasets: 100 edge, 5 fog and
    // 6 cloud nodes, whose infinite cloud links tie arrivals
    let mut rng = StdRng::seed_from_u64(111);
    let graphs = [
        iot::etl_graph(&mut rng),
        iot::stats_graph(&mut rng),
        iot::predict_graph(&mut rng),
        iot::train_graph(&mut rng),
    ];
    for (k, g) in graphs.into_iter().enumerate() {
        let inst = Instance::new(iot::build_edge_fog_cloud(100, 5, 6), g);
        assert_eq!(inst.network.node_count(), 111);
        assert!(check_scheduler_states(&inst, &format!("iot graph {k}")) > 0);
    }
}

#[test]
fn selection_helpers_match_on_boundary_shapes() {
    // a hand-built state with a zero-duration task sitting at the tail of a
    // timeline while finishing before the slot beneath it: the append
    // starts must key on the max finish, not the last slot's finish
    let mut g = TaskGraph::new();
    let a = g.add_task("a", 1.0);
    let z = g.add_task("z", 0.0);
    let _b = g.add_task("b", 2.0);
    let c = g.add_task("c", 0.5);
    g.add_dependency(a, c, 0.2).unwrap();
    g.add_dependency(z, c, 0.0).unwrap();
    let inst = Instance::new(Network::complete(&[1.0, 0.5], 1.0), g);
    let mut ctx = SchedContext::new();
    ctx.reset(&inst);
    ctx.place(a, NodeId(0), 2.0); // occupies [2, 3]
    ctx.place(z, NodeId(0), 2.0); // zero-duration boundary slot at [2, 2],
                                  // sorted after `a`: the last slot's finish
                                  // (2.0) is *smaller* than the max finish
                                  // (3.0)
    assert_eq!(ctx.append_tails(), &[3.0, 0.0]);
    // b and c are both ready (c's predecessors are placed); the append
    // query reads node 0's max finish 3, not its last slot's finish 2,
    // while the insertion query fills the gap before `a`
    assert_eq!(check_selection(&mut ctx, "boundary"), 2);

    // an empty state: every timeline empty, tails all zero
    let mut fresh = SchedContext::new();
    fresh.reset(&inst);
    assert_eq!(check_selection(&mut fresh, "empty"), 3);

    // one node of speed 0: every positive cost finishes at infinity, and
    // the selection still answers the only node
    let mut g = TaskGraph::new();
    g.add_task("x", 1.0);
    let dead = Instance::new(Network::complete(&[0.0], 1.0), g);
    let mut ctx = SchedContext::new();
    ctx.reset(&dead);
    assert_eq!(check_selection(&mut ctx, "dead"), 1);
}

#[test]
fn single_strength_rows_match_per_node_queries_on_scheduler_states() {
    let scheds = saga::schedulers::benchmark_schedulers();
    for link in [0.7, f64::INFINITY, 0.0] {
        for seed in [5u64, 41] {
            for (tasks, nodes) in [(10usize, 1usize), (14, 2), (20, 3), (30, 6), (36, 10)] {
                let inst = single_strength(seed, tasks, nodes, link);
                for s in &scheds {
                    for (num, den) in [(1usize, 4usize), (1, 2), (3, 4), (1, 1)] {
                        let mut ctx = half_placed(&inst, s.as_ref(), num, den);
                        let label = format!(
                            "{} link {link} seed {seed} {tasks}t/{nodes}v {num}/{den}",
                            s.name()
                        );
                        let want = if nodes == 1 { f64::INFINITY } else { link };
                        assert_eq!(
                            ctx.uniform_link().map(f64::to_bits),
                            Some(want.to_bits()),
                            "{label}: single-strength fold not selected"
                        );
                        assert!(check_ready_rows(&ctx, &label) > 0);
                        check_selection(&mut ctx, &label);
                    }
                }
            }
        }
    }
}

/// Hand-placed states for the cases the single-strength fold splits on:
/// the node the best arrival comes from, a tie for it, predecessors sharing
/// a node, and empty messages.
#[test]
fn single_strength_rows_match_on_hand_built_states() {
    // sinks `x` (preds a, b), `y` (a, c), `z` (a, b, c, d), `w` (d, e,
    // zero-cost edges), `n` (no preds)
    let mut g = TaskGraph::new();
    let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| g.add_task(n, 1.0));
    let [x, y, z, w, _n] = ["x", "y", "z", "w", "n"].map(|n| g.add_task(n, 1.0));
    for (p, s, cost) in [
        (a, x, 2.0),
        (b, x, 0.5),
        (a, y, 1.0),
        (c, y, 1.0),
        (a, z, 3.0),
        (b, z, 1.0),
        (c, z, 0.25),
        (d, z, 4.0),
        (d, w, 0.0),
        (e, w, 0.0),
    ] {
        g.add_dependency(p, s, cost).unwrap();
    }
    let speeds = [1.0, 1.0, 1.0, 1.0];
    let placements: [&[(TaskId, u32, f64)]; 5] = [
        // best arrival from node 0 (a: 1 + 2), the next best from node 1
        // (b: 1 + 0.5): node 0 must get b's arrival, not its own a's
        &[
            (a, 0, 0.0),
            (b, 1, 0.0),
            (c, 2, 0.0),
            (d, 0, 1.0),
            (e, 3, 5.0),
        ],
        // a tie for the best arrival on two nodes (a and c both reach
        // every other node at 2 for y)
        &[
            (a, 0, 0.0),
            (b, 0, 1.0),
            (c, 1, 0.0),
            (d, 2, 0.0),
            (e, 2, 1.0),
        ],
        // several predecessors on one node, one elsewhere
        &[
            (a, 1, 0.0),
            (b, 1, 1.0),
            (c, 1, 2.0),
            (d, 3, 0.0),
            (e, 1, 3.0),
        ],
        // every predecessor on one node
        &[
            (a, 2, 0.0),
            (b, 2, 1.0),
            (c, 2, 2.0),
            (d, 2, 3.0),
            (e, 2, 4.0),
        ],
        // the best remote arrival lands below a local finish
        &[
            (a, 0, 6.0),
            (b, 1, 0.0),
            (c, 3, 0.0),
            (d, 1, 1.0),
            (e, 0, 0.0),
        ],
    ];
    for link in [1.0, 0.5, f64::INFINITY, 0.0] {
        let inst = Instance::new(Network::complete(&speeds, link), g.clone());
        for (k, placed) in placements.iter().enumerate() {
            let mut ctx = SchedContext::new();
            ctx.reset(&inst);
            assert_eq!(ctx.uniform_link().map(f64::to_bits), Some(link.to_bits()));
            for &(t, v, start) in placed.iter() {
                ctx.place(t, NodeId(v), start);
            }
            // x, y, z, w and the predecessor-free n
            let label = format!("hand state {k}, link {link}");
            assert_eq!(check_ready_rows(&ctx, &label), 10, "{label}");
        }
    }
    // the first state, worked by hand at strength 1: x's row is the best
    // arrival everywhere but at node 0, where a is local and b's arrival
    // is the best from elsewhere
    let inst = Instance::new(Network::complete(&speeds, 1.0), g);
    let mut ctx = SchedContext::new();
    ctx.reset(&inst);
    for &(t, v, start) in placements[0] {
        ctx.place(t, NodeId(v), start);
    }
    let mut row = [0.0; 4];
    ctx.data_ready_times_into(x, &mut row);
    assert_eq!(row, [1.5, 3.0, 3.0, 3.0]);
}
