//! GDL — Generalized Dynamic Level scheduling, also known as DLS
//! (Sih & Lee 1993).
//!
//! A list-scheduling variant whose priorities are re-evaluated after every
//! placement. The *static level* `SL(t)` is the largest sum of median
//! execution times along any path from `t` to a sink (no communication);
//! each median is found by selection, not by sorting the execution row.
//! The *dynamic level* of a (task, node) pair is
//!
//! ```text
//! DL(t, v) = SL(t) - max(DA(t, v), TF(v)) + Delta(t, v)
//! ```
//!
//! where `DA` is the data-available time on `v`, `TF` the time `v` frees up,
//! and `Delta(t, v) = median_exec(t) - exec(t, v)` rewards placing `t` on a
//! node that runs it faster than typical. Each step schedules the pair with
//! the maximum dynamic level. Complexity `O(|V|^3 |T|)` per the paper.
//!
//! Placement is append-only (`start = max(DA, TF) >= TF`, the node's tail),
//! so the sweep runs on [`util::FrontierSweep`]'s cached data-ready rows and
//! tails: `DA` is read from the row computed once per frontier admission and
//! `TF` is the cached tail — bit-identical values, minus the
//! O(ready × nodes × preds) rescans that made GDL the slowest sweep. Each
//! start is composed in the selection loop itself
//! ([`util::FrontierSweep::start`]).

use crate::{util, KernelRun};
use saga_core::{later, Instance, SchedContext};

/// The GDL (DLS) scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gdl;

/// Median of a non-empty slice (averaging the middle pair on even lengths),
/// by selection instead of a full sort: `select_nth_unstable_by` puts the
/// upper middle element at `n / 2` with everything before it no greater,
/// so on even lengths the lower middle is the maximum of that part. Under
/// `total_cmp`, a total order in which equal elements have equal bits, both
/// are bit for bit the elements a sort would put there. Reorders `xs`.
fn median(xs: &mut [f64]) -> f64 {
    let n = xs.len();
    let (lower, &mut upper, _) = xs.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        let below = lower
            .iter()
            .copied()
            .reduce(|a, b| if b.total_cmp(&a).is_gt() { b } else { a })
            .expect("an even-length slice has a lower half");
        0.5 * (below + upper)
    }
}

/// Computes GDL's per-task decision inputs — median execution times and
/// static levels — into `levels` as one concatenated row
/// (`[sl..., med_exec...]`).
fn levels_into(ctx: &mut SchedContext, levels: &mut Vec<f64>) {
    let n = ctx.task_count();
    let mut xs = ctx.take_f64();
    levels.clear();
    levels.resize(2 * n, 0.0);
    for t in ctx.tasks() {
        xs.clear();
        xs.extend_from_slice(ctx.exec_row(t));
        levels[n + t.index()] = median(&mut xs);
    }
    // static level: longest median-exec path to a sink (no comm)
    for &t in ctx.topo_order().iter().rev() {
        let mut best = 0.0f64;
        for (s, _) in ctx.succs(t) {
            best = later(best, levels[s.index()]);
        }
        levels[t.index()] = levels[n + t.index()] + best;
    }
    ctx.give_f64(xs);
}

/// GDL's selection loop on a freshly reset context.
fn gdl_loop(ctx: &mut SchedContext, levels: &[f64]) {
    let mut sweep = util::FrontierSweep::new(ctx);
    let n = ctx.task_count();
    let (sl, med_exec) = levels.split_at(n);
    while ctx.placed_count() < n {
        let mut chosen: Option<(saga_core::TaskId, saga_core::NodeId, f64, f64)> = None;
        for &t in ctx.ready() {
            let med = med_exec[t.index()];
            let level = sl[t.index()];
            for (v, &duration) in ctx.exec_row(t).iter().enumerate() {
                // the dynamic level keeps its exact FP expression:
                // `SL - start + delta` is not reassociable
                let start = sweep.start(ctx, t, v);
                let delta = med - duration;
                let dl = level - start + delta;
                let better = match chosen {
                    None => true,
                    Some((_, _, _, cdl)) => dl > cdl,
                };
                if better {
                    chosen = Some((t, saga_core::NodeId(v as u32), start, dl));
                }
            }
        }
        let (t, v, start, _) = chosen.expect("ready set cannot be empty in a DAG");
        ctx.place(t, v, start);
        sweep.note_placed(ctx, t);
    }
    sweep.release(ctx);
}

impl KernelRun for Gdl {
    fn kernel_name(&self) -> &'static str {
        "GDL"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut levels = ctx.take_f64();
        levels_into(ctx, &mut levels);
        gdl_loop(ctx, &levels);
        ctx.give_f64(levels);
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
            let s = Gdl.schedule(&inst);
            s.verify(&inst).expect("GDL schedule must be valid");
        }
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    /// The sort-based median the selection replaced.
    fn median_by_sort(xs: &mut [f64]) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        if n % 2 == 1 {
            xs[n / 2]
        } else {
            0.5 * (xs[n / 2 - 1] + xs[n / 2])
        }
    }

    #[test]
    fn median_by_selection_matches_the_sort_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6D1);
        // few distinct values, so duplicates are common, with 0 and
        // infinity among them
        let pool = [0.0, f64::INFINITY, 0.5, 1.0, 1.0 / 3.0, 2.0, 7.25];
        for k in 0..2000 {
            let n = 1 + k % 40;
            let xs: Vec<f64> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let (mut a, mut b) = (xs.clone(), xs.clone());
            assert_eq!(
                median(&mut a).to_bits(),
                median_by_sort(&mut b).to_bits(),
                "row {xs:?}"
            );
        }
    }

    #[test]
    fn prefers_fast_node_via_delta_term() {
        // one big task, a fast and a slow node: Delta pushes it to the fast
        // node even though both are idle
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 4.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 4.0], 1.0), g);
        let s = Gdl.schedule(&inst);
        assert_eq!(s.assignment(t).node, saga_core::NodeId(1));
    }

    #[test]
    fn higher_static_level_goes_first() {
        // head of a long chain outranks an isolated short task
        let mut g = saga_core::TaskGraph::new();
        let lone = g.add_task("lone", 1.0);
        let head = g.add_task("head", 1.0);
        let tail = g.add_task("tail", 10.0);
        g.add_dependency(head, tail, 0.1).unwrap();
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let s = Gdl.schedule(&inst);
        assert!(s.assignment(head).start < s.assignment(lone).start);
    }
}
