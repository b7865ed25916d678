//! CPoP — Critical Path on Processor (Topcuoglu, Hariri & Wu 1999).
//!
//! Like HEFT a list scheduler, but (1) the priority of a task is the sum of
//! its upward and downward ranks (its distance from both ends of the graph),
//! and (2) every task on the critical path is committed to the single node
//! that executes the critical path fastest — under the related-machines
//! model, simply the fastest node. Non-critical tasks use insertion-based
//! earliest finish time, as in HEFT — through [`util::best_eft_node`]'s
//! fused row-kernel formulation (the `fused_rows: false` reference path
//! takes the scalar per-node sweep). Complexity `O(|T|^2 |V|)`.

use crate::{util, KernelRun};
use saga_core::{later, DirtyRegion, Instance, RunTrace, SchedContext, TaskId};

/// The CPoP scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpop;

/// The highest-priority ready task (CPoP's per-step selection): maximum
/// `prio`, smaller id on ties. Shared by the full run and the incremental
/// replay verification so the two paths can never diverge on tie order.
fn select(ctx: &SchedContext, prio: &impl Fn(TaskId) -> f64) -> TaskId {
    *ctx.ready()
        .iter()
        .max_by(|&&a, &&c| prio(a).total_cmp(&prio(c)).then(c.cmp(&a)))
        .expect("ready set cannot be empty in a DAG")
}

/// Critical-path membership from a priority and the critical length
/// (matches `ranking::critical_path`'s tolerance rule).
fn on_path(prio: f64, length: f64, tol: f64) -> bool {
    (prio - length).abs() <= tol || prio.is_infinite() && length.is_infinite()
}

impl Cpop {
    /// The run body, optionally replaying a recorded trace first. The
    /// priority vector and critical length are always recomputed fresh;
    /// the replay re-applies a recorded placement only while (a) the fresh
    /// selection rule picks the same task, (b) that task's own placement
    /// inputs are untouched, and (c) its critical-path membership — which
    /// decides the placement *branch* — is unchanged between the recorded
    /// priorities (kept in the trace's aux row) and the fresh ones.
    fn run_impl(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        mut replay: Option<(&mut RunTrace, &DirtyRegion)>,
    ) {
        ctx.reset(inst);
        let mut up = ctx.take_f64();
        let mut down = ctx.take_f64();
        ctx.upward_ranks_into(&mut up);
        ctx.downward_ranks_into(&mut down);
        // fold the two rank vectors into one priority vector up front: the
        // selection loop compares priorities O(ready) times per step, and
        // the summed vector doubles as the trace's aux row (same `u + d`
        // adds, in the same order, as the lazy per-query form)
        for (i, a) in up.iter_mut().enumerate() {
            *a += down[i];
        }
        let length = up
            .iter()
            .fold(0.0f64, |acc, &l| if l > acc { l } else { acc });
        let tol = 1e-9 * later(length.abs(), 1.0);
        let cp_node = ctx.fastest_node();
        let prio = |t: TaskId| up[t.index()];

        let n = ctx.task_count();
        if let Some((trace, dirty)) = replay.as_mut() {
            ctx.begin_recording();
            if !dirty.is_full() && trace.matches(n, ctx.node_count()) && trace.aux().len() == n {
                let old_length = trace.aux_scalar();
                let old_tol = 1e-9 * later(old_length.abs(), 1.0);
                for k in 0..n {
                    let t = select(ctx, &prio);
                    if t != trace.task(k)
                        || dirty.contains(t)
                        || on_path(prio(t), length, tol)
                            != on_path(trace.aux()[t.index()], old_length, old_tol)
                    {
                        break;
                    }
                    ctx.place(t, trace.node(k), trace.start(k));
                }
            }
        }
        let mut rows = util::NodeRows::new(ctx);
        while ctx.placed_count() < n {
            let t = select(ctx, &prio);
            if on_path(prio(t), length, tol) {
                let (s, _) = ctx.eft(t, cp_node, true);
                ctx.place(t, cp_node, s);
            } else {
                let (v, s, _) = util::best_eft_node(ctx, t, true, &mut rows);
                ctx.place(t, v, s);
            }
        }
        rows.release(ctx);
        if let Some((trace, _)) = replay {
            ctx.take_recording(trace);
            trace.set_aux_scalar(length);
            trace.set_aux(&up);
        }
        ctx.give_f64(up);
        ctx.give_f64(down);
    }
}

impl KernelRun for Cpop {
    fn kernel_name(&self) -> &'static str {
        "CPoP"
    }

    fn run(&self, inst: &Instance, ctx: &mut SchedContext) {
        self.run_impl(inst, ctx, None);
    }

    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        self.run_impl(inst, ctx, Some((trace, dirty)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;
    use crate::Scheduler;
    use saga_core::{ranking, TaskId};

    #[test]
    fn schedules_are_valid_on_smoke_instances() {
        for inst in fixtures::smoke_instances() {
            let s = Cpop.schedule(&inst);
            s.verify(&inst).expect("CPoP schedule must be valid");
        }
    }

    #[test]
    fn critical_path_tasks_share_the_fastest_node() {
        let inst = fixtures::fig1();
        let s = Cpop.schedule(&inst);
        let cp = ranking::critical_path(&inst);
        let fast = inst.network.fastest_node();
        for t in &cp.tasks {
            assert_eq!(
                s.assignment(*t).node,
                fast,
                "critical task {t} off the CP node"
            );
        }
    }

    #[test]
    fn chain_collapses_to_fastest_node() {
        // A pure chain *is* the critical path, so CPoP serializes it on the
        // fastest node.
        let g = saga_core::TaskGraph::chain(&[1.0, 2.0, 1.0], &[5.0, 5.0]);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 2.0], 0.1), g);
        let s = Cpop.schedule(&inst);
        for t in inst.graph.tasks() {
            assert_eq!(s.assignment(t).node, saga_core::NodeId(1));
        }
        assert!((s.makespan() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fig3_cpop_serializes_on_modified_network() {
        // The paper's Fig. 3e/3g: CPoP places the whole graph on one node,
        // makespan 15 (5 tasks x cost 3 / speed 1), on both networks.
        for inst in [fixtures::fig3_original(), fixtures::fig3_modified()] {
            let s = Cpop.schedule(&inst);
            s.verify(&inst).unwrap();
            assert!(
                (s.makespan() - 15.0).abs() < 1e-9,
                "CPoP fig3 makespan {}",
                s.makespan()
            );
        }
    }

    #[test]
    fn fig3_variant_flip_cpop_beats_heft_after_link_weakening() {
        // The paper's illustrative point (Fig. 3): a minor network change —
        // weakening node 3's links — makes HEFT lose badly to CPoP.
        let orig = fixtures::fig3_variant_original();
        let modif = fixtures::fig3_variant_modified();
        let r_orig = crate::Heft.schedule(&orig).makespan() / Cpop.schedule(&orig).makespan();
        let heft_mod = crate::Heft.schedule(&modif).makespan();
        let cpop_mod = Cpop.schedule(&modif).makespan();
        assert!(
            cpop_mod < heft_mod,
            "expected CPoP ({cpop_mod}) to beat HEFT ({heft_mod}) on the weakened network"
        );
        assert!(
            heft_mod / cpop_mod > r_orig + 0.1,
            "weakening links should widen HEFT's gap: {r_orig} -> {}",
            heft_mod / cpop_mod
        );
    }

    #[test]
    fn identical_independent_tasks_all_tie_onto_the_cp_node() {
        // With exactly equal priorities every task is in the critical set,
        // so CPoP serializes them — the behavior visible in the paper's
        // Fig. 3e/3g where all five tasks land on one node.
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        g.add_task("c", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0, 1.0, 1.0], 1.0), g);
        let s = Cpop.schedule(&inst);
        assert!((s.makespan() - 3.0).abs() < 1e-9);
        let n0 = s.assignment(TaskId(0)).node;
        for t in inst.graph.tasks() {
            assert_eq!(s.assignment(t).node, n0);
        }
    }
}
