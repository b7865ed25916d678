//! WBA — Workflow-Based Application scheduling (Blythe et al. 2005).
//!
//! A greedy randomized scheduler from the scientific-workflow world: at each
//! step it evaluates, for every ready task and every node, how much the
//! placement would increase the current schedule makespan, then samples a
//! placement from a distribution favouring the smallest increases (options
//! are weighted by `I_max - I`, so the least-damaging choices are most
//! likely and the worst choice has weight zero). Complexity at most
//! `O(|T| |D| |V|)` per the paper's observation.
//!
//! The RNG is seeded (default 0xB1) so experiments are reproducible; PISA
//! perturbs instances, not scheduler seeds.
//!
//! Placement is append-only, so every candidate `(start, finish)` comes from
//! [`util::FrontierSweep`]'s cached data-ready rows, and the current
//! makespan is a running max over placed finish times (same fold, same
//! value) instead of an O(|T|) rescan per step — bit-identical decisions
//! and RNG stream, minus the O(ready × nodes × preds) rescans.
//!
//! Incremental evaluation replays the recorded run's unchanged prefix like
//! MinMin does. The selection weighs options across the whole ready set,
//! so the replay is frontier-sensitive: it stops once a placement-dirty
//! task is ready. Each step draws exactly one `next_u64` on every branch
//! (integer `gen_range` and `gen::<f64>()` are one word each in the
//! vendored `StdRng`, pinned by its `one_word_per_draw` test), so after `k`
//! replayed steps the RNG is advanced by `k` words and the loop resumes
//! with the stream a full run would have. Only weight edits replay:
//! structural edits give a full region, and an added dependency would
//! remove its target from frontiers the recorded run drew against, which
//! the frontier check on the new run could not see.

use crate::{util, KernelRun};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext};

/// The WBA scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Wba {
    /// Seed for the placement-sampling RNG.
    pub seed: u64,
}

impl Default for Wba {
    fn default() -> Self {
        Wba { seed: 0xB1 }
    }
}

/// The WBA decision loop from whatever partial state `ctx` is in: `rng`
/// must sit exactly one draw past its seed per placed task, and `current`
/// must be the running max over the placed finishes (both hold trivially
/// on an empty context). Append-only, so every candidate `(start, finish)`
/// comes from the [`util::FrontierSweep`] cache.
fn wba_loop(ctx: &mut SchedContext, rng: &mut StdRng, mut current: f64) {
    let n = ctx.task_count();
    let nv = ctx.node_count();
    let fused = util::fused_rows_profitable(ctx);
    let mut srow = [0.0f64; util::STACK_NODES];
    let mut frow = [0.0f64; util::STACK_NODES];
    let mut sweep = util::FrontierSweep::new(ctx);
    // Per-step options, in pooled parallel buffers. Option `i` is
    // (ready task `i / nv`, node `i % nv`) — the ready set is stable
    // while a step's options are built and consumed, so the identity is
    // recovered from the index instead of storing tuples (which would
    // need their own, unpooled allocation).
    let mut starts = ctx.take_f64();
    let mut increases = ctx.take_f64();
    while ctx.placed_count() < n {
        starts.clear();
        increases.clear();
        let mut i_min = f64::INFINITY;
        let mut i_max = f64::NEG_INFINITY;
        for &t in ctx.ready() {
            if fused {
                // one branchless compose per task; the option loop reads
                // the finished rows (same bits, same option order, so
                // the sampling RNG stream is unchanged)
                sweep.fused_rows(ctx, t, &mut srow[..nv], &mut frow[..nv]);
            }
            for v in 0..nv {
                let (s, f) = if fused {
                    (srow[v], frow[v])
                } else {
                    let s = ctx.append_tails()[v].max(sweep.row(nv, t)[v]);
                    (s, s + ctx.exec_row(t)[v])
                };
                let increase = (f - current).max(0.0);
                i_min = i_min.min(increase);
                i_max = i_max.max(increase);
                starts.push(s);
                increases.push(increase);
            }
        }
        // exactly one `next_u64` per step on every branch (see the module
        // docs): the replay in `run_recorded` relies on it
        let chosen = if !i_min.is_finite() || !i_max.is_finite() || i_max == i_min {
            // uniformly random among options (covers infinite increases
            // on zero-speed networks and the all-equal case)
            rng.gen_range(0..increases.len())
        } else {
            // weight by (I_max - I): zero for the worst, largest for the
            // best; sample proportionally
            let total: f64 = increases
                .iter()
                .map(|&i| if i.is_finite() { i_max - i } else { 0.0 })
                .sum();
            if total <= 0.0 {
                rng.gen_range(0..increases.len())
            } else {
                let mut x = rng.gen::<f64>() * total;
                let mut pick = increases.len() - 1;
                for (idx, &i) in increases.iter().enumerate() {
                    let w = if i.is_finite() { i_max - i } else { 0.0 };
                    if x < w {
                        pick = idx;
                        break;
                    }
                    x -= w;
                }
                pick
            }
        };
        let t = ctx.ready()[chosen / nv];
        ctx.place(t, saga_core::NodeId((chosen % nv) as u32), starts[chosen]);
        sweep.note_placed(ctx, t);
        current = current.max(ctx.finish_time(t));
    }
    ctx.give_f64(starts);
    ctx.give_f64(increases);
    sweep.release(ctx);
}

impl KernelRun for Wba {
    fn kernel_name(&self) -> &'static str {
        "WBA"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        ctx.reset(inst);
        let mut rng = StdRng::seed_from_u64(self.seed);
        wba_loop(ctx, &mut rng, 0.0);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        ctx.reset(inst);
        ctx.begin_recording();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current = 0.0f64;
        util::replay_frontier_prefix(ctx, trace, dirty, true);
        // the replayed steps are the recorded run's first steps: one draw
        // each, and the same running-max fold over their finishes
        for k in 0..ctx.placed_count() {
            rng.next_u64();
            current = current.max(ctx.finish_time(trace.task(k)));
        }
        wba_loop(ctx, &mut rng, current);
        ctx.take_recording(trace);
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
            let s = Wba::default().schedule(&inst);
            s.verify(&inst).expect("WBA schedule must be valid");
        }
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let inst = fixtures::random_instance(5, 10, 3, 0.3);
        let a = Wba { seed: 7 }.schedule(&inst);
        let b = Wba { seed: 7 }.schedule(&inst);
        assert_eq!(a.makespan(), b.makespan());
        for t in inst.graph.tasks() {
            assert_eq!(a.assignment(t).node, b.assignment(t).node);
        }
    }

    #[test]
    fn different_seeds_can_differ() {
        let inst = fixtures::random_instance(5, 12, 4, 0.25);
        let makespans: Vec<f64> = (0..8)
            .map(|s| Wba { seed: s }.schedule(&inst).makespan())
            .collect();
        let first = makespans[0];
        assert!(
            makespans.iter().any(|&m| (m - first).abs() > 1e-12),
            "8 seeds all identical is vanishingly unlikely"
        );
    }

    #[test]
    fn favours_low_increase_placements() {
        // a single huge task: placing it on the slow node would blow up the
        // makespan, so the weighting should essentially always avoid it
        let mut g = saga_core::TaskGraph::new();
        let t = g.add_task("t", 100.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.01, 1.0], 1.0), g);
        let mut fast = 0;
        for seed in 0..20 {
            let s = Wba { seed }.schedule(&inst);
            if s.assignment(t).node == saga_core::NodeId(1) {
                fast += 1;
            }
        }
        assert!(fast >= 19, "only {fast}/20 runs used the fast node");
    }

    #[test]
    fn handles_zero_speed_networks() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[0.0, 0.0], 0.0), g);
        let s = Wba::default().schedule(&inst);
        s.verify(&inst).unwrap();
        assert!(s.makespan().is_infinite());
    }
}
