//! BIL — Best Imaginary Level (Oh & Ha 1996).
//!
//! Designed for the unrelated-machines model (strictly more general than the
//! related model used here). The *best imaginary level* of a task on a node
//! is the length of the shortest possible remaining schedule if the task ran
//! on that node and every successor got its ideal choice:
//!
//! ```text
//! BIL(t, v) = exec(t, v) + max_{s in succ(t)} min( BIL(s, v),
//!                min_{v' != v} BIL(s, v') + comm(t, s, v -> v') )
//! ```
//!
//! The scheduling phase then repeatedly takes the ready task whose best
//! imaginary makespan `BIM(t, v) = EST(t, v) + BIL(t, v)` is largest (most
//! urgent) and places it on its arg-min node. We implement the core BIL/BIM
//! machinery; the original's k-th-order-statistic refinement for resolving
//! contention between equally-ready tasks is simplified to the max/min rule
//! above (documented deviation — it affects only dense tie situations).
//!
//! The level table dominates the run on wide networks. The plain table
//! scans every `v'` for every edge and node: `O(|E| |V|^2)` divisions. From
//! [`PRUNE_MIN_NODES`] nodes up, the pruned table cuts that twice:
//!
//! * **Classes.** Two nodes whose execution columns and links to every
//!   other node are bitwise equal are interchangeable: by induction over
//!   the reverse topological order their levels are equal, since each
//!   sees the same candidates at the same message times. The table is
//!   computed for one representative per class, scanning only the
//!   representatives as candidates, and each member copies its
//!   representative's level. A candidate from the scanned node's own
//!   class never beats its level (the same level plus a non-negative
//!   message), so dropping those candidates changes no minimum. On the
//!   edge/fog/cloud networks the ~100 edge nodes, the fog tier and the
//!   cloud tier are three classes. Finding the classes compares each
//!   node's column and link row with the representatives so far:
//!   `O(|V| k (|T| + |V|))` for `k` classes at worst, and one row
//!   comparison per node when the first representative matches.
//! * **Pruned scans.** Each finished row's representatives are sorted by
//!   level once, and the scan over a successor's row walks that order and
//!   stops at the first `BIL(s, v')` that is not below the incumbent:
//!   message times are never negative, so no later candidate can win
//!   either. An `(edge, v)` pair then costs the number of levels below
//!   the incumbent, at most `v`'s rank in the row.
//!
//! Below the cutoff the plain scan wins, because it vectorises and a
//! few-node row gives the sort little to skip. Both loops take the
//! minimum of the same candidate values, and levels are never NaN or
//! −0.0, so the table bits do not depend on the path.
//!
//! The selection loop is an append-only frontier sweep. Once a task is
//! ready its predecessors are all placed, so its data-ready row never
//! changes: [`util::FrontierSweep`] computes each row once, and every
//! `BIM(t, v)` is `later(tail(v), ready(t, v)) + BIL(t, v)` over the kernel's
//! append-tail row. These are the floats the per-node `ctx.eft(t, v,
//! false)` query composes, without re-folding the task's predecessors for
//! every node at every step. The tests keep that per-node loop as the
//! oracle the sweep must match bit for bit.

use crate::{util, KernelRun};
use saga_core::{earlier, later, Instance, NodeId, SchedContext, TaskId};

/// The BIL scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bil;

/// Node count from which [`bil_table_into`] sorts each row and prunes the
/// successor scans. Timing both tables on 20-task random DAGs, the pruned
/// one breaks even near 8 nodes on edge/fog/cloud networks and near 28 on
/// random heterogeneous ones, and is 1.15× and 2.8× faster at 32 nodes.
const PRUNE_MIN_NODES: usize = 32;

/// Computes the `BIL(t, v)` table, reverse-topologically, into a flat
/// task-major buffer (`out[t * |V| + v]`).
fn bil_table_into(ctx: &mut SchedContext, out: &mut Vec<f64>) {
    if ctx.node_count() < PRUNE_MIN_NODES {
        bil_table_plain(ctx, out);
    } else {
        let mut classes = NodeClasses {
            of: ctx.take_nodes(),
            reps: ctx.take_nodes(),
        };
        let mut order = ctx.take_nodes();
        bil_table_pruned(ctx, out, &mut classes, &mut order);
        ctx.give_nodes(classes.of);
        ctx.give_nodes(classes.reps);
        ctx.give_nodes(order);
    }
}

/// The table by a full scan over every `v'`; the reference the pruned
/// loop is tested against.
fn bil_table_plain(ctx: &SchedContext, out: &mut Vec<f64>) {
    let nv = ctx.node_count();
    out.clear();
    out.resize(ctx.task_count() * nv, 0.0);
    for &t in ctx.topo_order().iter().rev() {
        for v in ctx.nodes() {
            let mut level = 0.0f64;
            for (st, cost) in ctx.succs(t) {
                // successor stays on v...
                let mut best = out[st.index() * nv + v.index()];
                // ...or moves elsewhere, paying the message
                for v2 in ctx.nodes() {
                    if v2 != v {
                        let candidate =
                            out[st.index() * nv + v2.index()] + ctx.comm_time(cost, v, v2);
                        best = earlier(best, candidate);
                    }
                }
                level = later(level, best);
            }
            out[t.index() * nv + v.index()] = ctx.exec_time(t, v) + level;
        }
    }
}

/// The interchangeable-node classes of a network (see the module docs):
/// `of[v]` is the representative of `v`'s class, its lowest-id member,
/// and `reps` lists the representatives in ascending order.
struct NodeClasses {
    of: Vec<NodeId>,
    reps: Vec<NodeId>,
}

/// Whether two rows hold the same bits: classes compare bits, not values,
/// so a class never joins nodes whose floats merely compare equal.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl NodeClasses {
    /// Groups nodes by bitwise-equal execution columns and links to every
    /// other node: `u` joins the first representative `r` whose column
    /// matches and whose link row matches `u`'s everywhere except at `u`
    /// and `r` themselves. Links are symmetric, so equal rows mean equal
    /// columns too.
    fn fill(&mut self, ctx: &SchedContext) {
        self.of.clear();
        self.reps.clear();
        for u in ctx.nodes() {
            let (ui, row_u) = (u.index(), ctx.link_row(u));
            let rep = self.reps.iter().copied().find(|&r| {
                let (ri, row_r) = (r.index(), ctx.link_row(r));
                ctx.tasks()
                    .all(|t| ctx.exec_row(t)[ui].to_bits() == ctx.exec_row(t)[ri].to_bits())
                    && same_bits(&row_u[..ri], &row_r[..ri])
                    && same_bits(&row_u[ri + 1..ui], &row_r[ri + 1..ui])
                    && same_bits(&row_u[ui + 1..], &row_r[ui + 1..])
            });
            self.of.push(rep.unwrap_or(u));
            if rep.is_none() {
                self.reps.push(u);
            }
        }
    }
}

/// The table with each successor scan cut short and computed once per
/// class of interchangeable nodes (see the module docs). Levels are
/// computed for the class representatives only, scanning only the
/// representatives as candidates: `order[t * k..][..k]` lists the `k`
/// representatives by ascending level in `t`'s finished row. `v` itself
/// ends a scan at the latest, since its level is the initial incumbent,
/// so the scan needs no `v' != v` test; the other members of `v`'s class
/// share its level and so could never beat it either. Each member then
/// copies its representative's level.
fn bil_table_pruned(
    ctx: &SchedContext,
    out: &mut Vec<f64>,
    classes: &mut NodeClasses,
    order: &mut Vec<NodeId>,
) {
    let nv = ctx.node_count();
    classes.fill(ctx);
    let reps = &classes.reps;
    let k = reps.len();
    out.clear();
    out.resize(ctx.task_count() * nv, 0.0);
    order.clear();
    order.resize(ctx.task_count() * k, NodeId(0));
    for &t in ctx.topo_order().iter().rev() {
        for &v in reps {
            let mut level = 0.0f64;
            for (st, cost) in ctx.succs(t) {
                let levels = &out[st.index() * nv..][..nv];
                let mut best = levels[v.index()];
                for &v2 in &order[st.index() * k..][..k] {
                    let l = levels[v2.index()];
                    if l >= best {
                        break;
                    }
                    best = earlier(best, l + ctx.comm_time(cost, v, v2));
                }
                level = later(level, best);
            }
            out[t.index() * nv + v.index()] = ctx.exec_time(t, v) + level;
        }
        let levels = &mut out[t.index() * nv..][..nv];
        for (v, rep) in classes.of.iter().enumerate() {
            levels[v] = levels[rep.index()];
        }
        let ord = &mut order[t.index() * k..][..k];
        ord.copy_from_slice(reps);
        ord.sort_unstable_by(|a, b| levels[a.index()].total_cmp(&levels[b.index()]));
    }
}

/// BIL's selection loop on a freshly reset context. Append-only, so every
/// start comes from the [`util::FrontierSweep`] cache: `BIM(t, v)` is
/// `later(tail(v), ready(t, v)) + BIL(t, v)`, the same floats
/// `ctx.eft(t, v, false)` composes, scanned in ascending node order with a
/// strict `<`.
fn bil_loop(ctx: &mut SchedContext, bil: &[f64]) {
    let n = ctx.task_count();
    let nv = ctx.node_count();
    let mut sweep = util::FrontierSweep::new(ctx);
    while ctx.placed_count() < n {
        // priority of a ready task: its best (minimum over nodes) BIM;
        // the task with the largest best-BIM is the most urgent
        let mut chosen: Option<(TaskId, NodeId, f64, f64)> = None;
        let tails = &ctx.append_tails()[..nv];
        for &t in ctx.ready() {
            let ready = sweep.row(nv, t);
            let levels = &bil[t.index() * nv..][..nv];
            // (v, bim) of the first node with the smallest BIM
            let mut best = (0, later(tails[0], ready[0]) + levels[0]);
            for v in 1..nv {
                let bim = later(tails[v], ready[v]) + levels[v];
                if bim < best.1 {
                    best = (v, bim);
                }
            }
            let (v, bim) = best;
            let (v, s) = (NodeId(v as u32), later(tails[v], ready[v]));
            let better = match chosen {
                None => true,
                Some((ct, _, _, cb)) => bim > cb || (bim == cb && t < ct),
            };
            if better {
                chosen = Some((t, v, s, bim));
            }
        }
        let (t, v, s, _) = chosen.expect("ready set cannot be empty in a DAG");
        ctx.place(t, v, s);
        sweep.note_placed(ctx, t);
    }
    sweep.release(ctx);
}

impl KernelRun for Bil {
    fn kernel_name(&self) -> &'static str {
        "BIL"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut bil = ctx.take_f64();
        bil_table_into(ctx, &mut bil);
        bil_loop(ctx, &bil);
        ctx.give_f64(bil);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;
    use crate::Scheduler;

    #[test]
    fn schedules_are_valid_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            let s = Bil.schedule(&inst);
            s.verify(&inst).expect("BIL schedule must be valid");
        }
    }

    #[test]
    fn bil_table_of_sink_is_exec_time() {
        let inst = fixtures::fig1();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        let mut bil = Vec::new();
        bil_table_into(&mut ctx, &mut bil);
        let nv = ctx.node_count();
        // t4 (sink, cost 0.8) on v2 (speed 1.5): BIL = 0.8 / 1.5
        assert!((bil[3 * nv + 2] - 0.8 / 1.5).abs() < 1e-12);
        assert!((bil[3 * nv] - 0.8).abs() < 1e-12);
    }

    /// Three instances from every dataset generator.
    fn dataset_instances() -> Vec<(String, Instance)> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB11);
        let mut out = Vec::new();
        for gen in saga_datasets::all_generators() {
            for k in 0..3 {
                out.push((format!("{} #{k}", gen.name), gen.sample(&mut rng)));
            }
        }
        out
    }

    /// Random DAGs on 1–48 nodes with degenerate weights: small integer
    /// weights make ties between levels common, and zero speeds,
    /// zero/infinite links and zero-weight edges give levels, message
    /// times and start times of 0 and infinity. Then the
    /// [`tiered_instances`], whose networks form classes.
    fn degenerate_instances() -> Vec<(String, Instance)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB12);
        let mut out = Vec::new();
        for k in 0..160 {
            let nv = [1usize, 2, 3, 5, 31, 32, 33, 48][k % 8];
            let mut g = saga_core::TaskGraph::new();
            let tasks: Vec<TaskId> = (0..rng.gen_range(1..=16usize))
                .map(|i| g.add_task(format!("t{i}"), rng.gen_range(0..=3u32) as f64))
                .collect();
            for (i, &a) in tasks.iter().enumerate() {
                for &b in &tasks[i + 1..] {
                    if rng.gen_bool(0.3) {
                        g.add_dependency(a, b, rng.gen_range(0..=3u32) as f64)
                            .unwrap();
                    }
                }
            }
            let weight = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6u32) {
                0 => 0.0,
                1 => f64::INFINITY,
                w => w as f64,
            };
            let speeds: Vec<f64> = (0..nv).map(|_| weight(&mut rng)).collect();
            let mut net = saga_core::Network::complete(&speeds, 1.0);
            for u in 0..nv {
                for v in u + 1..nv {
                    net.set_link(NodeId(u as u32), NodeId(v as u32), weight(&mut rng));
                }
            }
            out.push((format!("random #{k} ({nv} nodes)"), Instance::new(net, g)));
        }
        out.extend(tiered_instances());
        out
    }

    /// Degenerate-weight DAGs on 32-, 33- and 48-node networks
    /// built from 2–5 repeated tiers, so classes of more than one node
    /// form under degenerate weights: tier speeds and the links within and
    /// between tiers are drawn from 0, 1–4 and infinity, and tiers often
    /// share a speed while their links differ. In every other instance one
    /// node differs from its tier in a single link.
    fn tiered_instances() -> Vec<(String, Instance)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB13);
        let weight = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6u32) {
            0 => 0.0,
            1 => f64::INFINITY,
            w => (w - 1) as f64,
        };
        let mut out = Vec::new();
        for k in 0..90 {
            let nv = [32usize, 33, 48][k % 3];
            let tiers = rng.gen_range(2..=5usize);
            let tier_of: Vec<usize> = (0..nv).map(|_| rng.gen_range(0..tiers)).collect();
            let speed: Vec<f64> = (0..tiers).map(|_| weight(&mut rng)).collect();
            let mut link = vec![0.0; tiers * tiers];
            for a in 0..tiers {
                for b in a..tiers {
                    link[a * tiers + b] = weight(&mut rng);
                    link[b * tiers + a] = link[a * tiers + b];
                }
            }
            let speeds: Vec<f64> = tier_of.iter().map(|&a| speed[a]).collect();
            let mut net = saga_core::Network::complete(&speeds, 1.0);
            for u in 0..nv {
                for v in u + 1..nv {
                    let l = link[tier_of[u] * tiers + tier_of[v]];
                    net.set_link(NodeId(u as u32), NodeId(v as u32), l);
                }
            }
            let mut what = format!("tiered #{k} ({nv} nodes, {tiers} tiers)");
            if k % 2 == 1 {
                // the other end sits next to `u`, next to the first node
                // of `u`'s tier (its class representative), at either end
                // of the row, or anywhere
                let u = rng.gen_range(0..nv);
                let first = tier_of.iter().position(|&a| a == tier_of[u]).unwrap();
                let v = match (k / 2) % 5 {
                    0 => u + 1,
                    1 => u + nv - 1,
                    2 if first + 1 != u => first + 1,
                    2 => first + nv - 1,
                    3 if u != 0 => 0,
                    3 => nv - 1,
                    _ => u + rng.gen_range(1..nv),
                } % nv;
                let (u, v) = (NodeId(u as u32), NodeId(v as u32));
                // a free link where the tier's costs time, and the
                // reverse, moves `u`'s levels the most
                let l = net.link(u, v);
                net.set_link(u, v, if l.is_infinite() { 1.0 } else { f64::INFINITY });
                what += &format!(", link {u}-{v} off its tier");
            }
            let mut g = saga_core::TaskGraph::new();
            let tasks: Vec<TaskId> = (0..rng.gen_range(2..=12usize))
                .map(|i| g.add_task(format!("t{i}"), rng.gen_range(0..=3u32) as f64))
                .collect();
            for (i, &a) in tasks.iter().enumerate() {
                for &b in &tasks[i + 1..] {
                    if rng.gen_bool(0.4) {
                        g.add_dependency(a, b, rng.gen_range(0..=3u32) as f64)
                            .unwrap();
                    }
                }
            }
            out.push((what, Instance::new(net, g)));
        }
        out
    }

    /// `bil_table_into` and the pruned loop on their own must both equal
    /// the plain loop bit for bit.
    fn assert_tables_agree(inst: &Instance, what: &str) {
        let mut ctx = SchedContext::new();
        ctx.reset(inst);
        let (mut plain, mut pruned, mut dispatched) = (Vec::new(), Vec::new(), Vec::new());
        bil_table_plain(&ctx, &mut plain);
        let mut classes = NodeClasses {
            of: Vec::new(),
            reps: Vec::new(),
        };
        bil_table_pruned(&ctx, &mut pruned, &mut classes, &mut Vec::new());
        bil_table_into(&mut ctx, &mut dispatched);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pruned), bits(&plain), "pruned loop: {what}");
        assert_eq!(bits(&dispatched), bits(&plain), "bil_table_into: {what}");
    }

    #[test]
    fn pruned_table_matches_plain_on_every_dataset() {
        let instances = dataset_instances();
        for (what, inst) in &instances {
            assert_tables_agree(inst, what);
        }
        assert!(
            instances
                .iter()
                .any(|(_, inst)| inst.network.node_count() >= PRUNE_MIN_NODES),
            "no dataset instance reached the pruned path"
        );
    }

    #[test]
    fn pruned_table_matches_plain_on_degenerate_weights() {
        for (what, inst) in &degenerate_instances() {
            assert_tables_agree(inst, what);
        }
    }

    #[test]
    fn tiered_networks_form_classes() {
        let mut classed = 0;
        for (_, inst) in &tiered_instances() {
            let mut ctx = SchedContext::new();
            ctx.reset(inst);
            let mut classes = NodeClasses {
                of: Vec::new(),
                reps: Vec::new(),
            };
            classes.fill(&ctx);
            classed += usize::from(classes.reps.len() < inst.network.node_count());
        }
        assert!(
            classed > 50,
            "only {classed} tiered networks formed a class"
        );
    }

    #[test]
    fn edge_fog_cloud_nodes_form_one_class_per_tier() {
        let mut g = saga_core::TaskGraph::new();
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 3.0);
        g.add_dependency(a, b, 5.0).unwrap();
        let inst = Instance::new(saga_datasets::iot::build_edge_fog_cloud(80, 4, 3), g);
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        let mut classes = NodeClasses {
            of: Vec::new(),
            reps: Vec::new(),
        };
        classes.fill(&ctx);
        assert_eq!(classes.reps, [NodeId(0), NodeId(80), NodeId(84)]);
        assert_tables_agree(&inst, "edge/fog/cloud 80/4/3");
    }

    /// The per-node selection loop [`bil_loop`] replaced: every `BIM`
    /// re-folds the task's predecessors through `ctx.eft`. Kept as the
    /// oracle the sweep is tested against.
    fn bil_loop_per_node(ctx: &mut SchedContext, bil: &[f64]) {
        let n = ctx.task_count();
        let nv = ctx.node_count();
        while ctx.placed_count() < n {
            let mut chosen: Option<(TaskId, NodeId, f64, f64)> = None;
            for &t in ctx.ready() {
                let mut best_node: Option<(NodeId, f64, f64)> = None;
                for v in ctx.nodes() {
                    let (s, _) = ctx.eft(t, v, false);
                    let bim = s + bil[t.index() * nv + v.index()];
                    let better = match best_node {
                        None => true,
                        Some((_, _, bb)) => bim < bb,
                    };
                    if better {
                        best_node = Some((v, s, bim));
                    }
                }
                let (v, s, bim) = best_node.expect("non-empty network");
                let better = match chosen {
                    None => true,
                    Some((ct, _, _, cb)) => bim > cb || (bim == cb && t < ct),
                };
                if better {
                    chosen = Some((t, v, s, bim));
                }
            }
            let (t, v, s, _) = chosen.expect("ready set cannot be empty in a DAG");
            ctx.place(t, v, s);
        }
    }

    /// BIL through the sweep loop and through the per-node oracle must
    /// place every task on the same node at the same start and finish
    /// bits.
    fn assert_loops_agree(inst: &Instance, what: &str) {
        let sweep = Bil.schedule_into(inst, &mut SchedContext::new());
        let mut ctx = SchedContext::new();
        ctx.reset(inst);
        let mut bil = Vec::new();
        bil_table_into(&mut ctx, &mut bil);
        bil_loop_per_node(&mut ctx, &bil);
        let oracle = ctx.snapshot_schedule();
        let bits = |s: &saga_core::Schedule| {
            s.assignments()
                .iter()
                .map(|a| (a.task, a.node, a.start.to_bits(), a.finish.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&sweep), bits(&oracle), "sweep loop: {what}");
    }

    #[test]
    fn sweep_loop_matches_per_node_loop_on_every_dataset() {
        for (what, inst) in &dataset_instances() {
            assert_loops_agree(inst, what);
        }
    }

    #[test]
    fn sweep_loop_matches_per_node_loop_on_degenerate_weights() {
        for (what, inst) in &degenerate_instances() {
            assert_loops_agree(inst, what);
        }
    }

    #[test]
    fn bil_is_optimal_on_linear_graphs() {
        // Oh & Ha prove BIL optimal for chains: compare against brute force
        // on a few random chains.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let costs: Vec<f64> = (0..4).map(|_| rng.gen_range(0.2..2.0)).collect();
            let deps: Vec<f64> = (0..3).map(|_| rng.gen_range(0.2..2.0)).collect();
            let g = saga_core::TaskGraph::chain(&costs, &deps);
            let speeds: Vec<f64> = (0..3).map(|_| rng.gen_range(0.5..2.0)).collect();
            let inst = saga_core::Instance::new(saga_core::Network::complete(&speeds, 1.0), g);
            let bil = Bil.schedule(&inst).makespan();
            let opt = crate::BruteForce::default().schedule(&inst).makespan();
            assert!(bil <= opt + 1e-9, "BIL {bil} > OPT {opt} on a chain");
        }
    }

    #[test]
    fn chain_bil_equals_min_over_serial_choices() {
        // trivial 1-task sanity
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 2.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 2.0], 1.0), g);
        let s = Bil.schedule(&inst);
        assert_eq!(s.assignment(t).node, saga_core::NodeId(1));
        assert!((s.makespan() - 1.0).abs() < 1e-12);
    }
}
