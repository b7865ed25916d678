//! Incremental delta-evaluation support: dirty regions and run traces.
//!
//! The adversarial annealer mutates one weight or one dependency per
//! iteration and then re-evaluates two schedulers. This module carries the
//! two pieces of state that let those re-evaluations reuse the previous run
//! instead of starting from scratch:
//!
//! * a [`DirtyRegion`] — what changed since the last evaluation, produced
//!   from the perturbation's undo record and accumulated across rejected
//!   iterations. Only weight edits are described precisely: a task weight
//!   or dependency weight names its placement-dirty task, and a node
//!   weight names the one execution column to refresh. Link-weight and
//!   structural edits (an added or removed dependency) give a full region:
//!   the kernel re-verifies every table and every scheduler runs from
//!   scratch. Those edits only occur in searches that start from 3–5-task
//!   instances, where incremental evaluation measured at parity with a
//!   full rebuild;
//! * a [`RunTrace`] — the placement sequence `(task, node, start)` of a
//!   scheduler's previous run, plus a scheduler-defined auxiliary row (e.g.
//!   the priority vector whose ties the scheduler broke), recorded by the
//!   kernel while the run executes.
//!
//! A scheduler's incremental entry point replays the trace's prefix with
//! [`SchedContext::place`](crate::SchedContext::place) — skipping every
//! EFT/data-ready scan — until the dirty region reaches the frontier (or a
//! scheduler-specific decision check fails), then falls back to its normal
//! decision loop from that position. Replay is only performed when it is
//! provably bit-identical to the full run; the golden-determinism and
//! golden-PISA suites pin this.
//!
//! A context built with [`EvalPaths`](crate::EvalPaths) `{ incremental:
//! false, .. }` takes the full-rebuild reference path instead:
//! [`SchedContext::pin_tables_dirty`](crate::SchedContext::pin_tables_dirty)
//! and the schedulers' incremental entry points widen every dirty region
//! to [`DirtyRegion::full`].
//! The golden PISA-cell suite runs its battery on both paths in one process
//! and requires the same bits from each.

use crate::{NodeId, SchedContext, TaskId};

/// Maximum number of placement-dirty tasks tracked exactly; merges that
/// overflow this degrade to [`DirtyRegion::full`] (a rare multi-reject
/// pile-up — correct either way, full is just slower).
pub const MAX_DIRTY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Nothing changed since the trace was recorded.
    Clean,
    /// Only the listed tasks' placement inputs changed.
    Tasks,
    /// Anything may have changed (network edits, unknown perturbations).
    Full,
}

/// A conservative description of what changed in an instance since the last
/// evaluation. See the [module docs](self).
///
/// `tasks` lists tasks whose *placement inputs* changed: their execution
/// row (task-weight edit) or their predecessor edge costs (dependency-weight
/// edits target the edge's destination). `edge_tasks` additionally lists
/// tasks whose adjacent edge *costs* must be refreshed in the kernel's CSR
/// views without being placement-dirty themselves (the source of an edited
/// dependency: its successor-edge cost feeds rank computations but not its
/// own placement decision).
#[derive(Debug, Clone, Copy)]
pub struct DirtyRegion {
    scope: Scope,
    tasks: [TaskId; MAX_DIRTY],
    len: u8,
    edge_tasks: [TaskId; 2],
    edge_len: u8,
    structural: bool,
    /// For `Full` regions caused by a *single known node edit*, the
    /// touched node — the kernel then refreshes one execution column
    /// instead of re-verifying every table. A `Full` region without it
    /// takes the verify-everything rebuild.
    node_touched: Option<NodeId>,
}

impl DirtyRegion {
    const EMPTY: DirtyRegion = DirtyRegion {
        scope: Scope::Clean,
        tasks: [TaskId(0); MAX_DIRTY],
        len: 0,
        edge_tasks: [TaskId(0); 2],
        edge_len: 0,
        structural: false,
        node_touched: None,
    };

    /// Nothing changed — the previous evaluation's results still hold.
    pub fn clean() -> Self {
        DirtyRegion::EMPTY
    }

    /// Anything may have changed — evaluate from scratch.
    pub fn full() -> Self {
        DirtyRegion {
            scope: Scope::Full,
            ..DirtyRegion::EMPTY
        }
    }

    /// A dependency was added or removed: a [`full`](Self::full) region
    /// that reports [`is_structural`](Self::is_structural). The kernel
    /// re-verifies every table, rederiving the CSR views and topological
    /// order, and every scheduler runs from scratch.
    pub fn structural() -> Self {
        DirtyRegion {
            structural: true,
            ..DirtyRegion::full()
        }
    }

    /// A node's compute speed changed: every task's execution time on that
    /// node (and every average/ranking) moves, so placement replay is off
    /// the table — but the kernel can refresh one execution column instead
    /// of re-verifying every table.
    pub fn node_weight(v: NodeId) -> Self {
        DirtyRegion {
            scope: Scope::Full,
            node_touched: Some(v),
            ..DirtyRegion::EMPTY
        }
    }

    /// Whether the kernel must fall back to the verify-everything table
    /// rebuild (no usable refresh hints).
    #[inline]
    pub fn refresh_unknown(&self) -> bool {
        self.scope == Scope::Full && self.node_touched.is_none()
    }

    /// The single node whose speed changed, if that is this region's cause.
    #[inline]
    pub fn node_touched(&self) -> Option<NodeId> {
        self.node_touched
    }

    /// A task's compute cost changed: its execution row (and every ranking
    /// derived from it) is stale; nothing structural moved.
    pub fn task_weight(t: TaskId) -> Self {
        let mut d = DirtyRegion {
            scope: Scope::Tasks,
            ..DirtyRegion::EMPTY
        };
        d.tasks[0] = t;
        d.len = 1;
        d
    }

    /// The data size of dependency `from → to` changed: `to`'s data-ready
    /// times are stale (placement-dirty), and `from`'s successor-edge cost
    /// must be refreshed for rank computations.
    pub fn dep_weight(from: TaskId, to: TaskId) -> Self {
        let mut d = DirtyRegion {
            scope: Scope::Tasks,
            ..DirtyRegion::EMPTY
        };
        d.tasks[0] = to;
        d.len = 1;
        d.edge_tasks[0] = from;
        d.edge_len = 1;
        d
    }

    /// Whether nothing changed.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.scope == Scope::Clean
    }

    /// Whether everything must be treated as changed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.scope == Scope::Full
    }

    /// Whether a dependency was added or removed (see
    /// [`structural`](Self::structural)).
    #[inline]
    pub fn is_structural(&self) -> bool {
        self.structural
    }

    /// The placement-dirty tasks, at most [`MAX_DIRTY`]: none for a clean
    /// region; a full region may carry task-level dirt merged into it,
    /// which the kernel still refreshes.
    #[inline]
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks[..self.len as usize]
    }

    /// Tasks whose adjacent CSR edge costs need refreshing, *including* the
    /// placement-dirty ones.
    pub fn edge_touched(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks()
            .iter()
            .copied()
            .chain(self.edge_tasks[..self.edge_len as usize].iter().copied())
    }

    /// Whether `t` is placement-dirty.
    #[inline]
    pub fn contains(&self, t: TaskId) -> bool {
        self.tasks().contains(&t)
    }

    /// Whether any placement-dirty task is currently in `ctx`'s ready
    /// frontier — the generic "dirty region reached the frontier head" stop
    /// condition for replaying frontier-scanning schedulers.
    pub fn any_in_frontier(&self, ctx: &SchedContext) -> bool {
        self.tasks()
            .iter()
            .any(|&t| !ctx.is_placed(t) && ctx.is_ready(t))
    }

    /// Folds `other` into `self`: the result covers every change either
    /// region covers. Degrades to [`full`](Self::full) on overflow; a merge
    /// of two distinct node hints (or of a node hint with more task-level
    /// dirt than fits) falls back to the unknown full rebuild.
    pub fn merge(&mut self, other: &DirtyRegion) {
        match (self.scope, other.scope) {
            (_, Scope::Clean) => {}
            (Scope::Clean, _) => *self = *other,
            (Scope::Full, _) | (_, Scope::Full) => {
                // placement replay is gone either way; the node hint
                // survives task-level dirt and the same node's edit, and
                // anything else leaves an unknown full rebuild
                let mut merged = DirtyRegion {
                    scope: Scope::Full,
                    ..*self
                };
                merged.structural |= other.structural;
                merged.node_touched = match (self.is_full(), other.is_full()) {
                    (true, true) if self.node_touched == other.node_touched => self.node_touched,
                    (true, true) => None,
                    (true, false) => self.node_touched,
                    (false, _) => other.node_touched,
                };
                // task-level dirt folds into the task lists (still refreshed
                // under Full scope — only replay is disabled)
                if !merged.push_tasks(other) {
                    merged.node_touched = None;
                }
                *self = merged;
            }
            (Scope::Tasks, Scope::Tasks) => {
                if !self.push_tasks(other) {
                    *self = DirtyRegion::full();
                }
            }
        }
    }

    /// Appends `other`'s placement-dirty and edge-touched tasks that `self`
    /// lacks; `false` when one of the lists overflows.
    fn push_tasks(&mut self, other: &DirtyRegion) -> bool {
        for &t in other.tasks() {
            if !self.contains(t) {
                if self.len as usize == MAX_DIRTY {
                    return false;
                }
                self.tasks[self.len as usize] = t;
                self.len += 1;
            }
        }
        for &t in &other.edge_tasks[..other.edge_len as usize] {
            if !self.edge_tasks[..self.edge_len as usize].contains(&t) {
                if self.edge_len as usize == self.edge_tasks.len() {
                    return false;
                }
                self.edge_tasks[self.edge_len as usize] = t;
                self.edge_len += 1;
            }
        }
        true
    }
}

/// The recorded placement sequence of one scheduler run, replayable by the
/// same scheduler on a lightly-perturbed instance. See the
/// [module docs](self) for the contract.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// The recorded placements `(task, node, start)`, in placement order.
    pub(crate) placements: Vec<(TaskId, NodeId, f64)>,
    /// Scheduler-defined per-task decision data from the recorded run
    /// (CPoP's priorities), bit-compared on replay.
    aux: Vec<f64>,
    /// Scheduler-defined scalar (CPoP's critical-path length).
    aux_scalar: f64,
    makespan: f64,
    pub(crate) n_tasks: usize,
    pub(crate) n_nodes: usize,
    pub(crate) valid: bool,
    /// Optional nested trace for composite schedulers (see
    /// [`take_sub`](Self::take_sub)).
    sub: Option<Box<RunTrace>>,
}

impl RunTrace {
    /// An empty, invalid trace.
    pub fn new() -> Self {
        RunTrace::default()
    }

    /// Whether the trace holds a complete recorded run.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Whether the trace holds a complete recorded run for an instance of
    /// this shape (the caller guarantees lineage; shape is the cheap sanity
    /// gate on top).
    pub fn matches(&self, n_tasks: usize, n_nodes: usize) -> bool {
        self.valid
            && self.n_tasks == n_tasks
            && self.n_nodes == n_nodes
            && self.placements.len() == n_tasks
    }

    /// Number of recorded placements.
    #[inline]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether no placements are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// The task placed at position `k` of the recorded run.
    #[inline]
    pub fn task(&self, k: usize) -> TaskId {
        self.placements[k].0
    }

    /// The node the task at position `k` was placed on.
    #[inline]
    pub fn node(&self, k: usize) -> NodeId {
        self.placements[k].1
    }

    /// The start time of the placement at position `k`.
    #[inline]
    pub fn start(&self, k: usize) -> f64 {
        self.placements[k].2
    }

    /// The recorded run's makespan (set by the incremental entry points).
    #[inline]
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Stores the run's makespan alongside the placements.
    #[inline]
    pub fn set_makespan(&mut self, m: f64) {
        self.makespan = m;
    }

    /// The scheduler-defined per-task decision row of the recorded run.
    #[inline]
    pub fn aux(&self) -> &[f64] {
        &self.aux
    }

    /// Replaces the auxiliary row (buffer reused across runs).
    pub fn set_aux(&mut self, values: &[f64]) {
        self.aux.clear();
        self.aux.extend_from_slice(values);
    }

    /// The scheduler-defined scalar of the recorded run.
    #[inline]
    pub fn aux_scalar(&self) -> f64 {
        self.aux_scalar
    }

    /// Stores the scheduler-defined scalar.
    #[inline]
    pub fn set_aux_scalar(&mut self, v: f64) {
        self.aux_scalar = v;
    }

    /// Marks the trace unusable (recorded buffers are kept for reuse).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Detaches the sub-trace slot (for composite schedulers that run two
    /// component schedulers per evaluation — Duplex records MinMin into the
    /// trace proper and MaxMin into the sub-trace). Lazily boxed once;
    /// return it with [`put_sub`](Self::put_sub).
    pub fn take_sub(&mut self) -> Box<RunTrace> {
        self.sub.take().unwrap_or_default()
    }

    /// Re-attaches the sub-trace taken by [`take_sub`](Self::take_sub).
    pub fn put_sub(&mut self, sub: Box<RunTrace>) {
        self.sub = Some(sub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_tasks_and_flags() {
        let mut d = DirtyRegion::task_weight(TaskId(1));
        d.merge(&DirtyRegion::clean());
        assert_eq!(d.tasks(), &[TaskId(1)]);
        d.merge(&DirtyRegion::dep_weight(TaskId(0), TaskId(3)));
        assert!(!d.is_full() && !d.is_structural());
        assert!(d.contains(TaskId(1)) && d.contains(TaskId(3)));
        d.merge(&DirtyRegion::structural());
        assert!(d.is_full() && d.is_structural() && d.refresh_unknown());
    }

    #[test]
    fn structural_region_is_full() {
        let d = DirtyRegion::structural();
        assert!(d.is_full() && d.is_structural() && d.refresh_unknown());
        assert!(d.tasks().is_empty());
        let mut clean = DirtyRegion::clean();
        clean.merge(&d);
        assert!(clean.is_full() && clean.is_structural());
        assert!(!DirtyRegion::full().is_structural());
    }

    #[test]
    fn node_hint_survives_task_dirt() {
        let mut d = DirtyRegion::node_weight(NodeId(2));
        d.merge(&DirtyRegion::task_weight(TaskId(4)));
        assert!(d.is_full() && !d.refresh_unknown());
        assert_eq!(d.node_touched(), Some(NodeId(2)));
        assert!(d.contains(TaskId(4)));
        // task dirt first, node edit second: same region
        let mut e = DirtyRegion::dep_weight(TaskId(1), TaskId(4));
        e.merge(&DirtyRegion::node_weight(NodeId(2)));
        assert!(e.is_full() && !e.refresh_unknown());
        assert_eq!(e.node_touched(), Some(NodeId(2)));
        assert_eq!(
            e.edge_touched().collect::<Vec<_>>(),
            vec![TaskId(4), TaskId(1)]
        );
        // the same node twice keeps the hint; two nodes lose it
        e.merge(&DirtyRegion::node_weight(NodeId(2)));
        assert!(!e.refresh_unknown());
        e.merge(&DirtyRegion::node_weight(NodeId(0)));
        assert!(e.refresh_unknown());
    }

    #[test]
    fn merge_overflow_degrades_to_full() {
        let mut d = DirtyRegion::task_weight(TaskId(0));
        for i in 1..=MAX_DIRTY as u32 {
            d.merge(&DirtyRegion::task_weight(TaskId(i)));
        }
        assert!(d.is_full());
    }

    #[test]
    fn clean_merge_adopts_other() {
        let mut d = DirtyRegion::clean();
        d.merge(&DirtyRegion::dep_weight(TaskId(2), TaskId(5)));
        assert_eq!(d.tasks(), &[TaskId(5)]);
        let touched: Vec<TaskId> = d.edge_touched().collect();
        assert_eq!(touched, vec![TaskId(5), TaskId(2)]);
        assert!(!d.is_structural());
    }

    #[test]
    fn trace_shape_gate() {
        let mut t = RunTrace::new();
        assert!(!t.matches(3, 2));
        t.placements = vec![(TaskId(0), NodeId(0), 0.0); 3];
        t.n_tasks = 3;
        t.n_nodes = 2;
        t.valid = true;
        assert!(t.matches(3, 2));
        assert!(!t.matches(4, 2));
        t.invalidate();
        assert!(!t.matches(3, 2));
    }
}
