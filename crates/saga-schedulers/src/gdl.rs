//! GDL — Generalized Dynamic Level scheduling, also known as DLS
//! (Sih & Lee 1993).
//!
//! A list-scheduling variant whose priorities are re-evaluated after every
//! placement. The *static level* `SL(t)` is the largest sum of median
//! execution times along any path from `t` to a sink (no communication).
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
//! O(ready × nodes × preds) rescans that made GDL the slowest sweep.

use crate::{util, KernelRun};
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext, TaskId};

/// The GDL (DLS) scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gdl;

/// Median of a non-empty slice (averaging the middle pair on even lengths).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Computes GDL's per-task decision inputs — median execution times and
/// static levels — into `levels` as one concatenated row
/// (`[sl..., med_exec...]`), which doubles as the incremental trace's aux
/// row: any bit change in either vector can flip a future selection.
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
            best = best.max(levels[s.index()]);
        }
        levels[t.index()] = levels[n + t.index()] + best;
    }
    ctx.give_f64(xs);
}

/// GDL's selection loop from whatever partial state `ctx` is in.
fn gdl_loop(ctx: &mut SchedContext, sweep: &mut util::FrontierSweep, levels: &[f64]) {
    let n = ctx.task_count();
    let (sl, med_exec) = levels.split_at(n);
    let nv = ctx.node_count();
    // The dynamic-level comparison itself must keep its exact FP expression
    // (`SL - start + delta` is not reassociable), so the row kernels only
    // replace the per-(task, node) start recompose with one fused pass.
    let fused = util::fused_rows_profitable(ctx);
    let mut srow = [0.0f64; util::STACK_NODES];
    let mut frow = [0.0f64; util::STACK_NODES];
    while ctx.placed_count() < n {
        let mut chosen: Option<(saga_core::TaskId, saga_core::NodeId, f64, f64)> = None;
        for &t in ctx.ready() {
            let ready_row = sweep.row(nv, t);
            let med = med_exec[t.index()];
            let level = sl[t.index()];
            if fused {
                sweep.fused_rows(ctx, t, &mut srow[..nv], &mut frow[..nv]);
            }
            for (v, &duration) in ctx.exec_row(t).iter().enumerate() {
                let start = if fused {
                    srow[v]
                } else {
                    ready_row[v].max(ctx.append_tails()[v])
                };
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
}

impl KernelRun for Gdl {
    fn kernel_name(&self) -> &'static str {
        "GDL"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut levels = ctx.take_f64();
        levels_into(ctx, &mut levels);
        let mut sweep = util::FrontierSweep::new(ctx);
        gdl_loop(ctx, &mut sweep, &levels);
        sweep.release(ctx);
        ctx.give_f64(levels);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        let mut levels = ctx.take_f64();
        levels_into(ctx, &mut levels);
        ctx.begin_recording();
        // like ETF's rank tie-break, GDL's dynamic level folds in per-task
        // static data (static level and median execution time): the replay
        // must additionally stop once a task whose `[sl, med]` bits changed
        // sits in the frontier
        if !dirty.is_full()
            && trace.matches(ctx.task_count(), ctx.node_count())
            && trace.aux().len() == levels.len()
        {
            let n = ctx.task_count();
            let mut changed = ctx.take_tasks();
            for i in 0..n {
                if levels[i].to_bits() != trace.aux()[i].to_bits()
                    || levels[n + i].to_bits() != trace.aux()[n + i].to_bits()
                {
                    changed.push(TaskId(i as u32));
                }
            }
            util::replay_frontier_prefix(ctx, trace, dirty, true, |ctx, _| {
                changed
                    .iter()
                    .any(|&t| !ctx.is_placed(t) && ctx.is_ready(t))
            });
            ctx.give_tasks(changed);
        }
        let mut sweep = util::FrontierSweep::new(ctx);
        gdl_loop(ctx, &mut sweep, &levels);
        sweep.release(ctx);
        ctx.take_recording(trace);
        trace.set_aux(&levels);
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
