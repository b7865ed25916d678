//! Property suite for the fused EFT row kernels (PR 8).
//!
//! The schedulers' append-policy selections answer "what is `t`'s (start,
//! finish) on each node?" through [`SchedContext::eft_row_append_into`]
//! plus the lowest-index argmin helpers, instead of one
//! `ctx.eft(t, v, false)` query per node. The contract is bitwise: on any reachable partial state, the
//! fused row must reproduce the per-node queries bit for bit, and the
//! argmin helpers must pick exactly the node the Option-based comparator
//! loops picked — including interior idle gaps and zero-duration boundary
//! tasks whose finish precedes the node's max finish. (The per-node
//! insertion query `eft(t, v, true)` has no row form; `kernel_state.rs`
//! checks it against a naive model.)
//!
//! Half-placed states are generated from the schedulers themselves: each
//! roster scheduler's final schedule is replayed for the first half of the
//! topological order, so the probed timelines carry that scheduler's real
//! placement style (HEFT/CPoP leave insertion gaps, load balancers leave
//! ragged tails, MET leaves pile-ups). Any divergence flips bits here long
//! before it could reach the golden fixtures, and the golden suites pin
//! the scalar path end to end by running their fixtures on a context built
//! with `EvalPaths { fused_rows: false, .. }`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, SchedContext, TaskGraph, TaskId};
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

/// Asserts the fused row and argmin helpers bit-identical to the per-node
/// queries and comparator loops for every ready task of `ctx`.
fn check_rows(ctx: &SchedContext, label: &str) {
    let nv = ctx.node_count();
    let mut starts = vec![0.0f64; nv];
    let mut finishes = vec![0.0f64; nv];
    for &t in ctx.ready() {
        ctx.eft_row_append_into(t, &mut starts, &mut finishes);
        // the row vs the per-node queries, element by element
        let mut exp_eft: Option<(NodeId, f64, f64)> = None;
        let mut exp_est: Option<(NodeId, f64, f64)> = None;
        for v in ctx.nodes() {
            let (es, ef) = ctx.eft(t, v, false);
            assert_eq!(
                starts[v.index()].to_bits(),
                es.to_bits(),
                "{label}: start({t}, {v}) diverged: row {} vs query {es}",
                starts[v.index()],
            );
            assert_eq!(
                finishes[v.index()].to_bits(),
                ef.to_bits(),
                "{label}: finish({t}, {v}) diverged: row {} vs query {ef}",
                finishes[v.index()],
            );
            let take_eft = match exp_eft {
                None => true,
                Some((_, _, bf)) => ef < bf,
            };
            if take_eft {
                exp_eft = Some((v, es, ef));
            }
            let take_est = match exp_est {
                None => true,
                Some((_, bs, bf)) => es < bs || (es == bs && ef < bf),
            };
            if take_est {
                exp_est = Some((v, es, ef));
            }
        }
        // the argmin helpers vs the Option-based comparator loops
        let (ev, _, _) = exp_eft.unwrap();
        assert_eq!(
            saga::core::argmin_finish(&finishes),
            ev,
            "{label}: argmin_finish({t}) diverged"
        );
        let (sv, _, _) = exp_est.unwrap();
        assert_eq!(
            saga::core::argmin_start_finish(&starts, &finishes),
            sv,
            "{label}: argmin_start_finish({t}) diverged"
        );
    }
}

#[test]
fn fused_rows_match_per_node_queries_on_scheduler_states() {
    let scheds = saga::schedulers::benchmark_schedulers();
    for seed in [3u64, 17, 88] {
        // 3–6 nodes exercise the narrow regime (scalar comparator loops by
        // default); 10 nodes crosses the `WIDE_NODES` band so the scheduler
        // replays drive the fused dispatch in the selection helpers too
        for (tasks, nodes) in [(12usize, 3usize), (24, 4), (40, 6), (36, 10)] {
            let inst = random_instance_with_zeros(seed, tasks, nodes, 0.2);
            for s in &scheds {
                // quarter-, half- and three-quarter-placed states: early
                // frontiers are wide, late ones probe long timelines
                for (num, den) in [(1usize, 4usize), (1, 2), (3, 4)] {
                    let ctx = half_placed(&inst, s.as_ref(), num, den);
                    check_rows(
                        &ctx,
                        &format!("{} seed {seed} {tasks}t/{nodes}v {num}/{den}", s.name()),
                    );
                }
            }
        }
    }
}

#[test]
fn fused_rows_match_on_boundary_shapes() {
    // a hand-built state with a zero-duration task sitting at the tail of a
    // timeline while finishing before the slot beneath it: the append
    // compose must key on the max finish, not the last slot's finish
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
    // query reads node 0's max finish 3, not its last slot's finish 2
    check_rows(&ctx, "boundary");

    // an empty state: every timeline empty, tails all zero
    let mut fresh = SchedContext::new();
    fresh.reset(&inst);
    check_rows(&fresh, "empty");
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
                        let ctx = half_placed(&inst, s.as_ref(), num, den);
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
                        check_rows(&ctx, &label);
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
