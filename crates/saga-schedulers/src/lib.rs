//! # saga-schedulers
//!
//! The 17 task-graph scheduling algorithms of the paper's Table I, all
//! implemented against one [`Scheduler`] trait on top of `saga-core`'s
//! [`SchedContext`] kernel. The 15 polynomial-time
//! heuristics are what the paper benchmarks (Fig. 2) and compares
//! adversarially (Fig. 4); the two exponential reference solvers
//! (`BruteForce` and the SMT-substitute `BnbSearch`) are excluded from those
//! experiments exactly as in the paper.

#![warn(missing_docs)]

use saga_core::{DirtyRegion, Instance, RunTrace, SchedContext, Schedule};
use std::any::TypeId;

mod bil;
mod bnb;
mod brute_force;
mod cpop;
mod duplex;
mod ensemble;
mod ert;
mod etf;
mod fastest_node;
mod fcp;
mod flb;
mod gdl;
mod heft;
mod lmt;
mod maxmin;
mod mct;
mod met;
mod mh;
mod minmin;
mod olb;
pub mod online;
pub mod util;
mod wba;

pub use bil::Bil;
pub use bnb::BnbSearch;
pub use brute_force::BruteForce;
pub use cpop::Cpop;
pub use duplex::Duplex;
pub use ensemble::Ensemble;
pub use ert::Ert;
pub use etf::Etf;
pub use fastest_node::FastestNode;
pub use fcp::Fcp;
pub use flb::Flb;
pub use gdl::Gdl;
pub use heft::Heft;
pub use lmt::Lmt;
pub use maxmin::MaxMin;
pub use mct::Mct;
pub use met::Met;
pub use mh::Mh;
pub use minmin::MinMin;
pub use olb::Olb;
pub use wba::Wba;

/// A task-graph scheduling algorithm.
///
/// Implementations must return a schedule that passes
/// [`Schedule::verify`](saga_core::Schedule::verify) for every instance with
/// at least one node — including degenerate instances with zero weights
/// (times may be infinite, but constraints still hold).
///
/// [`schedule_into`](Scheduler::schedule_into) is the hot-path entry point:
/// it reuses a caller-owned [`SchedContext`] so repeated evaluations (PISA
/// runs thousands per cell) allocate nothing after warm-up. The plain
/// [`schedule`](Scheduler::schedule) convenience spins up a fresh context
/// per call and is what one-shot callers and older code use.
pub trait Scheduler: Send + Sync {
    /// The abbreviation used in the paper's tables (e.g. `"HEFT"`).
    fn name(&self) -> &'static str;

    /// Produces a complete schedule for `inst`, reusing `ctx`'s buffers.
    /// Implementations reset `ctx` themselves; the caller just keeps the
    /// context alive between calls.
    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule;

    /// Produces a complete schedule for `inst` with a fresh context.
    fn schedule(&self, inst: &Instance) -> Schedule {
        let mut ctx = SchedContext::new();
        self.schedule_into(inst, &mut ctx)
    }

    /// The makespan of the schedule for `inst`, skipping [`Schedule`]
    /// materialization where the implementation can (the adversarial
    /// annealer only needs the ratio of two makespans).
    fn makespan_into(&self, inst: &Instance, ctx: &mut SchedContext) -> f64 {
        self.schedule_into(inst, ctx).makespan()
    }

    /// Incremental delta-evaluation entry point: like
    /// [`makespan_into`](Scheduler::makespan_into), but may reuse `trace` —
    /// this scheduler's recorded previous run — to replay the unchanged
    /// placement prefix, and records the new run back into `trace`.
    ///
    /// Contract: `trace` must come from this scheduler's previous
    /// incremental call on the *same evolving instance*, and `dirty` must
    /// cover every change to `inst` since that call (pass
    /// [`DirtyRegion::full`] when unknown — e.g. for a brand-new instance).
    /// Implementations replay only when the result is provably bit-identical
    /// to a full run; the default ignores the trace and runs from scratch.
    /// On a context built for the `incremental: false` reference path
    /// ([`EvalPaths::widen`](saga_core::EvalPaths::widen)) the kernel
    /// schedulers take [`DirtyRegion::full`] for every call.
    fn makespan_incremental(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> f64 {
        let _ = dirty;
        trace.invalidate();
        self.makespan_into(inst, ctx)
    }

    /// [`schedule_into`](Scheduler::schedule_into) with the incremental
    /// contract of [`makespan_incremental`](Scheduler::makespan_incremental)
    /// — the metric-objective cells need the materialized [`Schedule`].
    fn schedule_incremental_into(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> Schedule {
        let _ = dirty;
        trace.invalidate();
        self.schedule_into(inst, ctx)
    }
}

/// List schedulers implemented directly on the [`SchedContext`] kernel:
/// one `run` that resets the context and places every task. The blanket
/// [`Scheduler`] impl derives both entry points from it, so `schedule_into`
/// materializes the [`Schedule`] while `makespan_into` reads the makespan
/// straight off the context.
///
/// While the context's tables are pinned, `makespan_into` of a zero-sized
/// implementor is memoized on the context
/// ([`SchedContext::pinned_makespan`]): a scheduler with no fields has no
/// parameters, so its makespan is a pure function of the pinned tables.
/// In the Fig. 2 row, Duplex's MinMin and MaxMin runs then also serve the
/// standalone MinMin and MaxMin columns.
pub(crate) trait KernelRun: Send + Sync + 'static {
    /// The abbreviation used in the paper's tables.
    fn kernel_name(&self) -> &'static str;
    /// Resets `ctx` for `inst` and places every task.
    fn run(&self, inst: &Instance, ctx: &mut SchedContext);

    /// [`run`](KernelRun::run) with placement recording into `trace`.
    /// HEFT, CPoP, MinMin, MaxMin and WBA replay the trace's unchanged
    /// prefix (per `dirty`, see [`Scheduler::makespan_incremental`])
    /// before falling back to their decision loop: they are the Section
    /// VII roster, whose weight-only edits on workflows of up to ~45 tasks
    /// leave long prefixes to replay. (The roster's sixth, FastestNode, is
    /// not a `KernelRun`: its makespan is one sum with nothing to replay.)
    /// The default invalidates the trace and runs from scratch. Every
    /// other scheduler stays on it: the rest anneal only from 3–5-task
    /// starting instances (the pairwise, metric and ablation grids), where
    /// replay measured at parity with a full run. Each replay stops where
    /// its decisions could first differ from a full run's: MinMin and
    /// MaxMin check every replayed selection against the ready dirty
    /// tasks' fresh best finishes, WBA stops at the frontier rule of
    /// [`util::replay_frontier_prefix`], and HEFT and CPoP re-verify their
    /// priority order. Stateful decision loops resume their state after
    /// the replay: WBA advances its RNG one word per replayed step.
    fn run_recorded(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) {
        let _ = dirty;
        trace.invalidate();
        self.run(inst, ctx);
    }
}

impl<T: KernelRun> Scheduler for T {
    fn name(&self) -> &'static str {
        self.kernel_name()
    }

    fn schedule_into(&self, inst: &Instance, ctx: &mut SchedContext) -> Schedule {
        self.run(inst, ctx);
        ctx.snapshot_schedule()
    }

    fn makespan_into(&self, inst: &Instance, ctx: &mut SchedContext) -> f64 {
        // only a zero-sized scheduler is memoized: its makespan on the
        // pinned tables cannot depend on a parameter (a seed, say)
        let key = (std::mem::size_of::<T>() == 0).then(TypeId::of::<T>);
        if let Some(m) = key.and_then(|k| ctx.pinned_makespan(k)) {
            return m;
        }
        self.run(inst, ctx);
        // same completeness guard Schedule materialization enforces — an
        // incomplete placement must never turn into a quietly small makespan
        assert_eq!(
            ctx.placed_count(),
            ctx.task_count(),
            "scheduler left tasks unplaced"
        );
        let m = ctx.current_makespan();
        if let Some(k) = key {
            ctx.memo_pinned_makespan(k, m);
        }
        m
    }

    fn makespan_incremental(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> f64 {
        let dirty = &ctx.paths().widen(dirty);
        // nothing changed since the recorded run: its makespan still holds
        if dirty.is_clean() && trace.matches(inst.graph.task_count(), inst.network.node_count()) {
            return trace.makespan();
        }
        self.run_recorded(inst, ctx, trace, dirty);
        assert_eq!(
            ctx.placed_count(),
            ctx.task_count(),
            "scheduler left tasks unplaced"
        );
        let m = ctx.current_makespan();
        if trace.is_valid() {
            trace.set_makespan(m);
        }
        m
    }

    fn schedule_incremental_into(
        &self,
        inst: &Instance,
        ctx: &mut SchedContext,
        trace: &mut RunTrace,
        dirty: &DirtyRegion,
    ) -> Schedule {
        let dirty = &ctx.paths().widen(dirty);
        // a clean region still needs materialization: the replay path then
        // replays the whole trace (the dirty set never reaches the frontier)
        self.run_recorded(inst, ctx, trace, dirty);
        if trace.is_valid() {
            trace.set_makespan(ctx.current_makespan());
        }
        ctx.snapshot_schedule()
    }
}

/// The 15 polynomial-time schedulers benchmarked in the paper, in the
/// row/column order of its Fig. 2 and Fig. 4 (alphabetical).
pub fn benchmark_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Bil),
        Box::new(Cpop),
        Box::new(Duplex),
        Box::new(Etf),
        Box::new(Fcp),
        Box::new(Flb),
        Box::new(FastestNode),
        Box::new(Gdl),
        Box::new(Heft),
        Box::new(Mct),
        Box::new(Met),
        Box::new(MaxMin),
        Box::new(MinMin),
        Box::new(Olb),
        Box::new(Wba::default()),
    ]
}

/// The subset used by the paper's Section VII application-specific
/// experiments: FastestNode, HEFT, CPoP, MaxMin, MinMin, WBA.
pub fn app_specific_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Cpop),
        Box::new(FastestNode),
        Box::new(Heft),
        Box::new(MaxMin),
        Box::new(MinMin),
        Box::new(Wba::default()),
    ]
}

/// The exponential-time reference solvers (the paper's BruteForce and SMT),
/// excluded from benchmarking/adversarial experiments.
pub fn exact_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(BruteForce::default()),
        Box::new(BnbSearch::default()),
    ]
}

/// Historical comparator baselines from the papers cited in Table I (MH and
/// LMT from the HEFT/CPoP evaluation, ERT from the FCP/FLB evaluation) —
/// not part of the paper's 15-scheduler roster, provided for reproducing
/// those original comparisons.
pub fn historical_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![Box::new(Ert), Box::new(Lmt), Box::new(Mh)]
}

/// A scheduler constructor in the [`by_name`] roster table.
type SchedulerCtor = fn() -> Box<dyn Scheduler>;

/// Static name table backing [`by_name`]: every scheduler the roster
/// functions can construct, without boxing the whole roster per lookup.
static ROSTER: &[(&str, SchedulerCtor)] = &[
    ("BIL", || Box::new(Bil)),
    ("CPoP", || Box::new(Cpop)),
    ("Duplex", || Box::new(Duplex)),
    ("ETF", || Box::new(Etf)),
    ("FCP", || Box::new(Fcp)),
    ("FLB", || Box::new(Flb)),
    ("FastestNode", || Box::new(FastestNode)),
    ("GDL", || Box::new(Gdl)),
    ("HEFT", || Box::new(Heft)),
    ("MCT", || Box::new(Mct)),
    ("MET", || Box::new(Met)),
    ("MaxMin", || Box::new(MaxMin)),
    ("MinMin", || Box::new(MinMin)),
    ("OLB", || Box::new(Olb)),
    ("WBA", || Box::new(Wba::default())),
    ("BruteForce", || Box::new(BruteForce::default())),
    ("BnB", || Box::new(BnbSearch::default())),
    ("ERT", || Box::new(Ert)),
    ("LMT", || Box::new(Lmt)),
    ("MH", || Box::new(Mh)),
];

/// Looks a scheduler up by its Table-I abbreviation (case-insensitive),
/// constructing only the match (the table above is static — no roster-wide
/// boxing per lookup).
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    ROSTER
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, ctor)| ctor())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::fixtures;

    /// The paper's worked examples plus seeded random DAGs of 10–40 tasks.
    fn memo_instances() -> Vec<Instance> {
        let mut v = fixtures::smoke_instances();
        for seed in 0..8u64 {
            let tasks = 10 + 10 * (seed as usize % 4);
            v.push(fixtures::random_instance(
                900 + seed,
                tasks,
                2 + seed as usize % 4,
                0.2,
            ));
        }
        v
    }

    fn fresh(s: &dyn Scheduler, inst: &Instance) -> u64 {
        s.makespan_into(inst, &mut SchedContext::new()).to_bits()
    }

    #[test]
    fn duplex_then_its_components_match_fresh_contexts_on_one_pin() {
        for inst in memo_instances() {
            let mut ctx = SchedContext::new();
            let row: Vec<u64> = ctx.with_pinned(&inst, |ctx| {
                let row = [&Duplex as &dyn Scheduler, &MaxMin, &MinMin]
                    .iter()
                    .map(|s| s.makespan_into(&inst, ctx).to_bits())
                    .collect();
                // Duplex's component runs are what served the lookups
                assert!(ctx.pinned_makespan(TypeId::of::<MinMin>()).is_some());
                assert!(ctx.pinned_makespan(TypeId::of::<MaxMin>()).is_some());
                row
            });
            assert_eq!(
                row,
                vec![
                    fresh(&Duplex, &inst),
                    fresh(&MaxMin, &inst),
                    fresh(&MinMin, &inst)
                ]
            );
            // unpinned: nothing is remembered
            assert!(ctx.pinned_makespan(TypeId::of::<MinMin>()).is_none());
        }
    }

    #[test]
    fn seeded_wba_runs_are_never_memoized() {
        let (a, b) = (Wba { seed: 1 }, Wba { seed: 2 });
        let mut differ = 0;
        for inst in memo_instances() {
            let mut ctx = SchedContext::new();
            let (ma, mb) = ctx.with_pinned(&inst, |ctx| {
                (
                    a.makespan_into(&inst, ctx).to_bits(),
                    b.makespan_into(&inst, ctx).to_bits(),
                )
            });
            assert_eq!((ma, mb), (fresh(&a, &inst), fresh(&b, &inst)));
            differ += usize::from(ma != mb);
        }
        assert!(
            differ > 0,
            "the two seeds never disagree: the test is blind"
        );
    }

    #[test]
    fn the_memo_is_forgotten_on_every_new_pin() {
        let instances = memo_instances();
        let (mut reweighted, mut switched) = (0, 0);
        for (k, inst) in instances.iter().enumerate() {
            let mut ctx = SchedContext::new();
            ctx.pin_tables(inst);
            let before = MinMin.makespan_into(inst, &mut ctx).to_bits();

            // a task-weight edit refreshed in place
            let t = saga_core::TaskId(0);
            let mut edited = inst.clone();
            let cost = edited.graph.cost(t);
            edited.graph.set_cost(t, cost * 3.0 + 1.0).unwrap();
            ctx.pin_tables_dirty(&edited, &DirtyRegion::task_weight(t));
            let after = MinMin.makespan_into(&edited, &mut ctx).to_bits();
            assert_eq!(after, fresh(&MinMin, &edited), "after pin_tables_dirty");
            reweighted += usize::from(after != before);

            // unpinned, then pinned on another instance
            let other = &instances[(k + 1) % instances.len()];
            ctx.unpin_tables();
            ctx.pin_tables(other);
            let m = MinMin.makespan_into(other, &mut ctx).to_bits();
            assert_eq!(m, fresh(&MinMin, other), "after unpin and pin");
            switched += usize::from(m != after);
            ctx.unpin_tables();
        }
        assert!(reweighted > 0 && switched > 0, "no edit moved MinMin");
    }

    #[test]
    fn benchmark_roster_matches_paper() {
        let names: Vec<&str> = benchmark_schedulers().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "BIL",
                "CPoP",
                "Duplex",
                "ETF",
                "FCP",
                "FLB",
                "FastestNode",
                "GDL",
                "HEFT",
                "MCT",
                "MET",
                "MaxMin",
                "MinMin",
                "OLB",
                "WBA"
            ]
        );
    }

    #[test]
    fn app_specific_roster_matches_section_vii() {
        let names: Vec<&str> = app_specific_schedulers().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["CPoP", "FastestNode", "HEFT", "MaxMin", "MinMin", "WBA"]
        );
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name("heft").unwrap().name(), "HEFT");
        assert_eq!(by_name("CPOP").unwrap().name(), "CPoP");
        assert_eq!(by_name("bnb").unwrap().name(), "BnB");
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn by_name_table_covers_every_roster_scheduler() {
        // the static ROSTER is hand-maintained; keep it in lockstep with the
        // roster constructors so lookups never silently miss a scheduler
        let mut all = benchmark_schedulers();
        all.extend(exact_schedulers());
        all.extend(historical_schedulers());
        for s in &all {
            let found = by_name(s.name())
                .unwrap_or_else(|| panic!("{} missing from the by_name table", s.name()));
            assert_eq!(found.name(), s.name());
        }
        assert_eq!(ROSTER.len(), all.len(), "extra or stale by_name entries");
    }
}
