//! The allocation-free scheduling kernel.
//!
//! [`SchedContext`] owns every buffer a list-scheduler run needs — cached
//! cost tables, CSR dependency views, per-node timelines, the incremental
//! ready queue, and scratch pools — and [`SchedContext::reset`] rebuilds all
//! of it for a new instance while *reusing capacity*. A caller that keeps
//! one context alive (PISA's annealer runs tens of thousands of scheduler
//! evaluations per cell) allocates approximately nothing after warm-up.
//!
//! Three cached structures carry the speedup:
//!
//! * a dense `exec[t * |V| + v]` execution-time matrix and a copied link
//!   matrix, so EFT queries stop dividing and pointer-chasing in the inner
//!   loop;
//! * flat CSR predecessor/successor views (offsets + task ids + costs in
//!   edge-insertion order), replacing `Vec<Vec<DepEdge>>` traversals;
//! * an incrementally maintained ready queue: [`SchedContext::place`]
//!   decrements unplaced-predecessor counters and inserts newly ready tasks
//!   in id order, so the per-placement "which tasks are ready" question is
//!   answered in O(out-degree) instead of an O(|T|) rescan.
//!
//! Every query reproduces the pre-kernel schedule builder's semantics
//! bit-for-bit (the golden-determinism suite in the workspace root pins
//! this): the cached tables hold exactly the values the builder used to
//! recompute, and iteration orders match the original adjacency-list orders.
//!
//! The tables snapshot the instance at [`SchedContext::reset`] time; callers
//! must not mutate the instance between `reset` and the queries that follow.

use crate::incremental::{DirtyRegion, RunTrace};
use crate::{later, Assignment, Instance, NodeId, Schedule, TaskId};
use std::any::TypeId;

/// Sets `v` to `n` copies of `value`, preferring an in-place fill (a memset
/// the run-state clear performs three times per scheduler evaluation) over
/// the clear-and-resize push loop.
fn set_all<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
    if v.len() == n {
        v.fill(value);
    } else {
        v.clear();
        v.resize(n, value);
    }
}

/// Bitwise slice equality for weight snapshots (exact: `to_bits`, so `-0.0`
/// and `0.0` — which divide differently — never compare equal).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of every task cost against the snapshot.
fn bits_eq_costs(g: &crate::TaskGraph, snap: &[f64]) -> bool {
    g.task_count() == snap.len()
        && g.tasks()
            .zip(snap)
            .all(|(t, s)| g.cost(t).to_bits() == s.to_bits())
}

/// The data-ready arrivals fold over one sender's link row:
/// `out[v] = max(out[v], f + cost / row[v])` for every node `v`.
#[inline]
fn fold_arrivals(out: &mut [f64], row: &[f64], f: f64, cost: f64) {
    for (r, &link) in out.iter_mut().zip(row) {
        let arrival = f + cost / link;
        *r = later(*r, arrival);
    }
}

/// Which evaluation path a [`SchedContext`] runs: `incremental: false`
/// selects the full-rebuild reference path the incremental fast path must
/// match bit for bit. No production caller changes the default; the field
/// lets one test process run the golden fixtures on both paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalPaths {
    /// Incremental delta-evaluation (selective table refresh + prefix
    /// replay). `false` makes [`SchedContext::pin_tables_dirty`] and the
    /// schedulers' `makespan_incremental` and `schedule_incremental_into`
    /// widen every dirty region they are given to [`DirtyRegion::full`]
    /// ([`Self::widen`]), so every evaluation on the context rebuilds its
    /// tables and runs from scratch.
    pub incremental: bool,
}

impl Default for EvalPaths {
    fn default() -> Self {
        EvalPaths { incremental: true }
    }
}

impl EvalPaths {
    /// The dirty region an evaluation may use: `dirty` itself on the
    /// incremental path, [`DirtyRegion::full`] on the full-rebuild
    /// reference path.
    #[inline]
    pub fn widen(self, dirty: &DirtyRegion) -> DirtyRegion {
        if self.incremental {
            *dirty
        } else {
            DirtyRegion::full()
        }
    }
}

/// A placed interval on a node timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) start: f64,
    pub(crate) finish: f64,
    pub(crate) task: TaskId,
}

/// Reusable arena + cursor for building schedules without per-run
/// allocation: cached cost tables, CSR dependency views, per-node
/// timelines and an incremental ready queue, which
/// [`reset`](Self::reset) rebuilds for a new instance while reusing
/// capacity.
#[derive(Debug, Clone, Default)]
pub struct SchedContext {
    // ---- cached instance tables (rebuilt by `reset`) ----
    n_tasks: usize,
    n_nodes: usize,
    /// `exec[t * n_nodes + v] = c(t) / s(v)` (0 for zero-cost tasks).
    exec: Vec<f64>,
    /// Row-major copy of the link-strength matrix.
    links: Vec<f64>,
    pred_off: Vec<u32>,
    pred_task: Vec<TaskId>,
    pred_cost: Vec<f64>,
    succ_off: Vec<u32>,
    succ_task: Vec<TaskId>,
    succ_cost: Vec<f64>,
    /// Topological order with smallest-id tie-breaking (identical to
    /// `TaskGraph::topological_order`).
    topo: Vec<TaskId>,
    /// HEFT-style average execution time per task.
    avg_exec: Vec<f64>,
    /// Mean inverse link strength (the average-communication multiplier).
    inv_link: f64,
    /// The one strength of every off-diagonal link, when they all have the
    /// same bits (`+inf` on a one-node network); `None` selects the general
    /// data-ready fold.
    uniform_link: Option<f64>,
    /// Mean inverse node speed (cached so speed-preserving rebuilds skip
    /// the divisions).
    inv_speed: f64,
    fastest: NodeId,
    /// Bit-exact snapshots of the task costs and node speeds the `exec`
    /// matrix was built from: a rebuild for an instance that differs in a
    /// single weight (the annealer's common case) recomputes only the
    /// affected row or column instead of the whole division grid.
    cost_snap: Vec<f64>,
    speed_snap: Vec<f64>,
    // ---- run state (cleared by `reset`) ----
    timelines: Vec<Vec<Slot>>,
    finish: Vec<f64>,
    node_of: Vec<NodeId>,
    /// Placement epochs: task `t` is placed iff `placed_epoch[t] == epoch`.
    /// Clearing the run state is then an epoch bump instead of a fill, and
    /// `finish`/`node_of` need no clearing at all — their entries are only
    /// read for tasks placed in the *current* epoch.
    placed_epoch: Vec<u32>,
    epoch: u32,
    placed_count: usize,
    /// Largest finish time on each node's timeline (0 when empty): where
    /// an append placement may start, and the row
    /// [`append_tails`](Self::append_tails) hands to the append composes.
    /// Not the last slot's finish: a zero-duration task placed on an
    /// earlier slot's boundary can sit at the end of the slot vector with
    /// an *earlier* finish.
    max_finish: Vec<f64>,
    /// Number of unplaced predecessors per task.
    unplaced_preds: Vec<u32>,
    /// Unplaced tasks whose predecessors are all placed, ascending by id.
    ready: Vec<TaskId>,
    /// Initial predecessor counts / ready set for the cached CSR structure
    /// (what `clear_run_state` restores by straight copy).
    init_preds: Vec<u32>,
    init_ready: Vec<TaskId>,
    // ---- scratch ----
    frontier_heap: std::collections::BinaryHeap<std::cmp::Reverse<TaskId>>,
    indeg_scratch: Vec<u32>,
    f64_pool: Vec<Vec<f64>>,
    task_pool: Vec<Vec<TaskId>>,
    node_pool: Vec<Vec<NodeId>>,
    // ---- placement recording (incremental delta-evaluation) ----
    /// When true, every [`place`](Self::place) pushes its `(task, node,
    /// start)` onto `rec`; enabled only inside schedulers' incremental
    /// entry points.
    recording: bool,
    rec: Vec<(TaskId, NodeId, f64)>,
    /// When true, [`reset`](Self::reset) skips the table rebuild and only
    /// clears the run state — see [`pin_tables`](Self::pin_tables). Only
    /// [`set_pinned`](Self::set_pinned) assigns it.
    pinned: bool,
    /// Makespans of parameterless schedulers on the pinned tables, keyed by
    /// the scheduler's type ([`pinned_makespan`](Self::pinned_makespan)).
    /// Emptied whenever `pinned` is assigned, so an entry never outlives
    /// the tables it was computed on.
    pinned_makespans: Vec<(TypeId, f64)>,
    /// When true, the run state is exactly as [`clear_run_state`]
    /// (Self::clear_run_state) left it (no placement since), so a pinned
    /// `reset` can skip clearing too. The annealer's objective pins then
    /// immediately runs the first scheduler; this makes that first reset
    /// free.
    run_clean: bool,
    // ---- configuration (kept by `reset`) ----
    /// Which evaluation paths this context runs.
    paths: EvalPaths,
}

impl SchedContext {
    /// An empty context; owns no buffers until the first [`reset`](Self::reset).
    pub fn new() -> Self {
        SchedContext::default()
    }

    /// An empty context that runs `paths` instead of the default fast
    /// paths. [`reset`](Self::reset) and pool reuse keep the choice.
    pub fn with_paths(paths: EvalPaths) -> Self {
        SchedContext {
            paths,
            ..SchedContext::default()
        }
    }

    /// The evaluation paths this context runs.
    #[inline]
    pub fn paths(&self) -> EvalPaths {
        self.paths
    }

    /// Rebuilds every cached table and clears the run state for `inst`,
    /// reusing existing capacity.
    ///
    /// While [`pin_tables`](Self::pin_tables) is active, the (unchanged)
    /// tables are kept and only the run state is cleared.
    pub fn reset(&mut self, inst: &Instance) {
        if self.pinned {
            debug_assert_eq!(self.n_tasks, inst.graph.task_count(), "pinned tables stale");
            debug_assert_eq!(
                self.n_nodes,
                inst.network.node_count(),
                "pinned tables stale"
            );
            debug_assert_eq!(
                self.pred_task.len(),
                inst.graph.dependency_count(),
                "pinned tables stale (dependency structure changed)"
            );
            if !self.run_clean {
                self.clear_run_state();
            }
            return;
        }
        self.rebuild_tables(inst);
        self.clear_run_state();
    }

    /// Declares that every `reset` until [`unpin_tables`](Self::unpin_tables)
    /// will be for this same, unmodified instance, so the cost tables built
    /// here can be shared across several scheduler runs (the adversarial
    /// annealer evaluates two schedulers per candidate). The caller must not
    /// mutate the instance while the pin is active.
    ///
    /// While the pin holds, the context also memoizes the makespans of
    /// parameterless schedulers ([`pinned_makespan`](Self::pinned_makespan)).
    /// Pinning, re-pinning and unpinning all clear that memo.
    pub fn pin_tables(&mut self, inst: &Instance) {
        self.set_pinned(false);
        self.rebuild_tables(inst);
        self.clear_run_state();
        self.set_pinned(true);
    }

    /// Ends a [`pin_tables`](Self::pin_tables) scope; subsequent `reset`s
    /// rebuild the tables again.
    pub fn unpin_tables(&mut self) {
        self.set_pinned(false);
    }

    /// The one place `pinned` is assigned: any change of pin (or re-pin)
    /// may change the tables, so it also forgets every memoized makespan.
    fn set_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
        self.pinned_makespans.clear();
    }

    /// The makespan recorded for `key` by
    /// [`memo_pinned_makespan`](Self::memo_pinned_makespan) since the
    /// tables were last pinned, if any.
    ///
    /// The memo is for schedulers whose makespan is a pure function of the
    /// pinned tables: the scheduler blanket impl keys it by the type of a
    /// zero-sized scheduler, which has no parameters (seeded schedulers
    /// such as WBA are never zero-sized). Only `makespan_into` reads or
    /// writes it; `schedule_into` and the incremental entry points never do.
    #[inline]
    pub fn pinned_makespan(&self, key: TypeId) -> Option<f64> {
        self.pinned_makespans
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, m)| m)
    }

    /// Records `makespan` under `key` for the rest of the current pin; a
    /// no-op while the tables are not pinned. See
    /// [`pinned_makespan`](Self::pinned_makespan).
    pub fn memo_pinned_makespan(&mut self, key: TypeId, makespan: f64) {
        if self.pinned {
            self.pinned_makespans.push((key, makespan));
        }
    }

    /// [`pin_tables`](Self::pin_tables) for an instance that differs from
    /// the one the current tables were built for *only* by `dirty` — the
    /// annealer's per-iteration entry point. Refreshes exactly the stale
    /// pieces (a task's execution row, an edge's CSR costs, or a node's
    /// execution column) with the same expressions the full rebuild uses,
    /// so the refreshed tables are bit-identical to a full
    /// [`pin_tables`](Self::pin_tables).
    /// Falls back to the full rebuild for [`DirtyRegion::full`] regions
    /// (link-weight and structural edits among them) or when the cached
    /// tables don't line up with the instance's shape.
    ///
    /// The caller is responsible for `dirty` actually covering every change
    /// since the tables were last built (the annealer derives it from the
    /// perturbation undo records); the golden suites pin the equivalence.
    /// A context on the `incremental: false` reference path widens `dirty`
    /// to [`DirtyRegion::full`] ([`EvalPaths::widen`]).
    ///
    /// These hints and `rebuild_tables`' snapshot diff are two refresh
    /// mechanisms for one table set, and both stay because each measured a
    /// win over the other alone (`pisa_bench` `items_per_s`, 8 alternating
    /// pairs, 2-vCPU Xeon). Ignoring the hints and letting the snapshot
    /// diff find the change read `app` ×0.942 (1 of 8 pairs won) and `fig4`
    /// ×0.926 (2 of 8): the hints skip the diff's scan of every weight.
    pub fn pin_tables_dirty(&mut self, inst: &Instance, dirty: &DirtyRegion) {
        let dirty = &self.paths.widen(dirty);
        let g = &inst.graph;
        let net = &inst.network;
        let aligned = self.n_tasks == g.task_count()
            && self.n_nodes == net.node_count()
            && self.exec.len() == self.n_tasks * self.n_nodes
            && self.cost_snap.len() == self.n_tasks
            && self.avg_exec.len() == self.n_tasks
            && self.speed_snap.len() == self.n_nodes
            && self.links.len() == self.n_nodes * self.n_nodes;
        if dirty.refresh_unknown() || !aligned {
            self.pin_tables(inst);
            return;
        }
        self.set_pinned(false);
        if let Some(v) = dirty.node_touched() {
            // one node speed moved: refresh its execution column, the
            // speed-derived scalars, and (inv_speed changed) every average
            // execution time — the same expressions the full build uses
            let nt = self.n_tasks;
            let nv = self.n_nodes;
            self.speed_snap[v.index()] = net.speeds()[v.index()];
            self.inv_speed = net.mean_inverse_speed();
            self.fastest = net.fastest_node();
            for t in 0..nt {
                self.exec[t * nv + v.index()] = net.exec_time(g.cost(TaskId(t as u32)), v);
            }
            self.rebuild_avg_exec(g);
        }
        debug_assert_eq!(
            self.pred_task.len(),
            g.dependency_count(),
            "dependency count changed under a region with refresh hints"
        );
        for t in dirty.edge_touched() {
            self.refresh_adjacent_edge_costs(g, t);
        }
        for &t in dirty.tasks() {
            self.refresh_task_row(g, net, t);
        }
        if !self.run_clean {
            self.clear_run_state();
        }
        self.set_pinned(true);
    }

    /// Recomputes every task's average execution time (HEFT/CPoP ranking
    /// inputs) — multiplications only, from the cached mean inverse speed.
    fn rebuild_avg_exec(&mut self, g: &crate::TaskGraph) {
        let inv_speed = self.inv_speed;
        self.avg_exec.clear();
        self.avg_exec.extend(g.tasks().map(|t| {
            let c = g.cost(t);
            if c == 0.0 {
                0.0
            } else {
                c * inv_speed
            }
        }));
    }

    /// Recomputes the cached execution row, cost snapshot and average
    /// execution time of `t` — the same expressions `rebuild_tables` uses,
    /// so unchanged inputs reproduce unchanged bits.
    fn refresh_task_row(&mut self, g: &crate::TaskGraph, net: &crate::Network, t: TaskId) {
        let c = g.cost(t);
        self.cost_snap[t.index()] = c;
        self.avg_exec[t.index()] = if c == 0.0 { 0.0 } else { c * self.inv_speed };
        let nv = self.n_nodes;
        let row = &mut self.exec[t.index() * nv..(t.index() + 1) * nv];
        for (v, slot) in row.iter_mut().enumerate() {
            *slot = net.exec_time(c, NodeId(v as u32));
        }
    }

    /// Re-copies the CSR edge costs adjacent to `t` (its predecessor row
    /// and its successor row) from the graph. Structure must be unchanged.
    fn refresh_adjacent_edge_costs(&mut self, g: &crate::TaskGraph, t: TaskId) {
        let (s, e) = self.pred_range(t);
        for (i, edge) in (s..e).zip(g.predecessors(t)) {
            debug_assert_eq!(self.pred_task[i], edge.task, "CSR structure drifted");
            self.pred_cost[i] = edge.cost;
        }
        let (s, e) = self.succ_range(t);
        for (i, edge) in (s..e).zip(g.successors(t)) {
            debug_assert_eq!(self.succ_task[i], edge.task, "CSR structure drifted");
            self.succ_cost[i] = edge.cost;
        }
    }

    /// Starts recording placements (cleared buffer). Every subsequent
    /// [`place`](Self::place) pushes one `(task, node, start)` entry until
    /// [`take_recording`](Self::take_recording).
    pub fn begin_recording(&mut self) {
        self.rec.clear();
        self.recording = true;
    }

    /// Stops recording and swaps the recorded placement vector into
    /// `trace` (the trace's previous vector comes back for reuse), marking
    /// it valid for the current instance shape.
    pub fn take_recording(&mut self, trace: &mut RunTrace) {
        self.recording = false;
        std::mem::swap(&mut trace.placements, &mut self.rec);
        trace.n_tasks = self.n_tasks;
        trace.n_nodes = self.n_nodes;
        trace.valid = true;
    }

    /// Rebuilds the instance-derived cost tables and views.
    ///
    /// The CSR dependency views and the topological order depend only on the
    /// graph's *structure*; when the new instance's structure is verified
    /// identical to the cached one (the adversarial annealer's weight
    /// perturbations leave it untouched two times out of three), only the
    /// edge costs are refreshed and the Kahn rebuild is skipped.
    ///
    /// The weight snapshots serve every caller without a dirty region:
    /// `reset` for a new instance and the full-region fallback of
    /// [`pin_tables_dirty`](Self::pin_tables_dirty), which link and
    /// structural edits take. Dropping them (a full rebuild on every call
    /// here, the dirty hints kept) read `fig4` `items_per_s` ×0.936 (2 of
    /// 8 alternating `pisa_bench` pairs won, 2-vCPU Xeon).
    fn rebuild_tables(&mut self, inst: &Instance) {
        let g = &inst.graph;
        let net = &inst.network;
        let nt = g.task_count();
        let nv = net.node_count();
        let same_shape = nt == self.n_tasks && nv == self.n_nodes;
        self.n_tasks = nt;
        self.n_nodes = nv;

        // Weight snapshots: every derived quantity below is recomputed with
        // the *same* expression whether refreshed selectively or in full, so
        // a bitwise-equal input slice guarantees bitwise-equal outputs — the
        // comparisons replace divisions, never results.
        let speeds_same = same_shape && bits_eq(net.speeds(), &self.speed_snap);
        let links_same = same_shape && bits_eq(net.links(), &self.links);
        let avg_ok = self.refresh_exec(g, net, same_shape, speeds_same);
        if !links_same {
            self.links.clear();
            self.links.extend_from_slice(net.links());
            (self.inv_link, self.uniform_link) = crate::network::link_pass(&self.links, nv);
        }
        if !speeds_same {
            self.speed_snap.clear();
            self.speed_snap.extend_from_slice(net.speeds());
            self.inv_speed = net.mean_inverse_speed();
            self.fastest = net.fastest_node();
        }

        if !(same_shape && self.try_refresh_csr_costs(g)) {
            self.rebuild_csr(g);
            self.rebuild_topo();
        }

        if !avg_ok {
            self.rebuild_avg_exec(g);
        }
    }

    /// Rebuilds the dense execution-time matrix, recomputing only the rows
    /// whose task cost changed (speeds unchanged) or the columns whose node
    /// speed changed (costs unchanged); anything else rebuilds in full. Each
    /// refreshed entry uses the same `net.exec_time` expression as the full
    /// build, so all three paths are bit-identical. Returns `true` when it
    /// also kept `avg_exec` up to date (the changed-rows path, where the
    /// cached mean inverse speed is still valid); the caller recomputes
    /// `avg_exec` otherwise.
    fn refresh_exec(
        &mut self,
        g: &crate::TaskGraph,
        net: &crate::Network,
        same_shape: bool,
        speeds_same: bool,
    ) -> bool {
        let nt = self.n_tasks;
        let nv = self.n_nodes;
        let aligned = same_shape && self.cost_snap.len() == nt && self.exec.len() == nt * nv;
        if aligned && speeds_same && self.avg_exec.len() == nt {
            let inv_speed = self.inv_speed;
            for t in g.tasks() {
                let c = g.cost(t);
                if c.to_bits() != self.cost_snap[t.index()].to_bits() {
                    self.cost_snap[t.index()] = c;
                    self.avg_exec[t.index()] = if c == 0.0 { 0.0 } else { c * inv_speed };
                    let row = &mut self.exec[t.index() * nv..(t.index() + 1) * nv];
                    for (v, slot) in row.iter_mut().enumerate() {
                        *slot = net.exec_time(c, NodeId(v as u32));
                    }
                }
            }
            return true;
        }
        if aligned && self.speed_snap.len() == nv && bits_eq_costs(g, &self.cost_snap) {
            for (v, (&s, &snap)) in net.speeds().iter().zip(&self.speed_snap).enumerate() {
                if s.to_bits() != snap.to_bits() {
                    for t in 0..nt {
                        self.exec[t * nv + v] =
                            net.exec_time(g.cost(TaskId(t as u32)), NodeId(v as u32));
                    }
                }
            }
            return false;
        }
        self.exec.clear();
        self.exec.reserve(nt * nv);
        self.cost_snap.clear();
        self.cost_snap.reserve(nt);
        for t in g.tasks() {
            let c = g.cost(t);
            self.cost_snap.push(c);
            for v in net.nodes() {
                self.exec.push(net.exec_time(c, v));
            }
        }
        false
    }

    /// Rebuilds the CSR views, preserving adjacency-list order.
    fn rebuild_csr(&mut self, g: &crate::TaskGraph) {
        self.pred_off.clear();
        self.pred_task.clear();
        self.pred_cost.clear();
        self.succ_off.clear();
        self.succ_task.clear();
        self.succ_cost.clear();
        self.pred_off.push(0);
        self.succ_off.push(0);
        for t in g.tasks() {
            for e in g.predecessors(t) {
                self.pred_task.push(e.task);
                self.pred_cost.push(e.cost);
            }
            for e in g.successors(t) {
                self.succ_task.push(e.task);
                self.succ_cost.push(e.cost);
            }
            self.pred_off.push(self.pred_task.len() as u32);
            self.succ_off.push(self.succ_task.len() as u32);
        }
        self.init_preds.clear();
        self.init_ready.clear();
        for t in 0..g.task_count() {
            let deg = self.pred_off[t + 1] - self.pred_off[t];
            self.init_preds.push(deg);
            if deg == 0 {
                self.init_ready.push(TaskId(t as u32));
            }
        }
    }

    /// If `g`'s dependency structure is exactly the cached CSR structure
    /// (same adjacency ids in the same order), refreshes the CSR edge costs
    /// in place and returns `true` — the cached topological order remains
    /// valid because it is a pure function of that structure. Returns
    /// `false` on the first mismatch (partial cost writes are fine: the
    /// caller then rebuilds everything). Exact comparison, no fingerprints.
    fn try_refresh_csr_costs(&mut self, g: &crate::TaskGraph) -> bool {
        let ne = g.dependency_count();
        if self.pred_task.len() != ne
            || self.succ_task.len() != ne
            || self.pred_off.len() != self.n_tasks + 1
            || self.succ_off.len() != self.n_tasks + 1
        {
            return false;
        }
        let mut pi = 0usize;
        let mut si = 0usize;
        for t in g.tasks() {
            let ti = t.index();
            for e in g.predecessors(t) {
                if self.pred_task[pi] != e.task {
                    return false;
                }
                self.pred_cost[pi] = e.cost;
                pi += 1;
            }
            if self.pred_off[ti + 1] as usize != pi {
                return false;
            }
            for e in g.successors(t) {
                if self.succ_task[si] != e.task {
                    return false;
                }
                self.succ_cost[si] = e.cost;
                si += 1;
            }
            if self.succ_off[ti + 1] as usize != si {
                return false;
            }
        }
        true
    }

    /// Clears the per-run placement state (tables untouched): an epoch bump
    /// for the placed flags, straight copies of the cached initial
    /// predecessor counters and ready set (pure functions of the CSR
    /// structure, maintained by `rebuild_csr`), and no `finish`/`node_of`
    /// fills — those entries are never read for tasks unplaced in the
    /// current epoch.
    fn clear_run_state(&mut self) {
        let nt = self.n_tasks;
        let nv = self.n_nodes;
        // saga-lint: allow(hot-alloc) — warm-up only: grows the timeline table the first time a node count is seen; steady-state runs hit the resize_with no-op and the clear below reuses capacity
        self.timelines.resize_with(nv, Vec::new);
        for tl in &mut self.timelines {
            tl.clear();
        }
        set_all(&mut self.max_finish, nv, 0.0);
        if self.placed_epoch.len() != nt || self.epoch == u32::MAX {
            set_all(&mut self.placed_epoch, nt, 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        if self.finish.len() != nt {
            self.finish.resize(nt, f64::NAN);
            self.node_of.resize(nt, NodeId(0));
        }
        self.placed_count = 0;
        self.unplaced_preds.clone_from(&self.init_preds);
        self.ready.clone_from(&self.init_ready);
        self.run_clean = true;
    }

    /// Kahn's algorithm with smallest-id tie-breaking, matching
    /// `TaskGraph::topological_order` exactly: the frontier is a binary
    /// min-heap over task ids, seeded from the cached initial predecessor
    /// counts and ready set that `rebuild_csr` just built.
    fn rebuild_topo(&mut self) {
        use std::cmp::Reverse;
        self.indeg_scratch.clone_from(&self.init_preds);
        self.frontier_heap.clear();
        self.frontier_heap
            .extend(self.init_ready.iter().map(|&t| Reverse(t)));
        self.topo.clear();
        while let Some(Reverse(t)) = self.frontier_heap.pop() {
            self.topo.push(t);
            let (s, e) = self.succ_range(t);
            for i in s..e {
                let st = self.succ_task[i];
                let d = &mut self.indeg_scratch[st.index()];
                *d -= 1;
                if *d == 0 {
                    self.frontier_heap.push(Reverse(st));
                }
            }
        }
        debug_assert_eq!(self.topo.len(), self.n_tasks, "graph must be acyclic");
    }

    #[inline]
    fn pred_range(&self, t: TaskId) -> (usize, usize) {
        (
            self.pred_off[t.index()] as usize,
            self.pred_off[t.index() + 1] as usize,
        )
    }

    #[inline]
    fn succ_range(&self, t: TaskId) -> (usize, usize) {
        (
            self.succ_off[t.index()] as usize,
            self.succ_off[t.index() + 1] as usize,
        )
    }

    // ---- instance views ----

    /// Number of tasks in the instance the context was last reset for.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.n_tasks
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes as u32).map(NodeId)
    }

    /// Iterator over all task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n_tasks as u32).map(TaskId)
    }

    /// Cached execution time `c(t) / s(v)`.
    #[inline]
    pub fn exec_time(&self, t: TaskId, v: NodeId) -> f64 {
        self.exec[t.index() * self.n_nodes + v.index()]
    }

    /// The execution-time row of `t` over all nodes.
    #[inline]
    pub fn exec_row(&self, t: TaskId) -> &[f64] {
        &self.exec[t.index() * self.n_nodes..(t.index() + 1) * self.n_nodes]
    }

    /// Communication time of `bytes` from `u` to `v` (0 on the same node or
    /// for empty messages), from the cached link matrix.
    #[inline]
    pub fn comm_time(&self, bytes: f64, u: NodeId, v: NodeId) -> f64 {
        if u == v || bytes == 0.0 {
            0.0
        } else {
            bytes / self.links[u.index() * self.n_nodes + v.index()]
        }
    }

    /// The cached link-strength row of `u` (`node_count()` entries, with
    /// the infinite self-link at `u`): element `v` is the strength
    /// [`comm_time`](Self::comm_time) divides by for `u -> v`.
    #[inline]
    pub fn link_row(&self, u: NodeId) -> &[f64] {
        &self.links[u.index() * self.n_nodes..][..self.n_nodes]
    }

    /// The one strength of every link, if all links have the same bits
    /// (`+inf` on a one-node network, which has none): the networks on
    /// which [`data_ready_times_into`](Self::data_ready_times_into) takes
    /// its O(preds + nodes) fold.
    #[inline]
    pub fn uniform_link(&self) -> Option<f64> {
        self.uniform_link
    }

    /// The fastest node (lowest id on ties), cached at reset.
    #[inline]
    pub fn fastest_node(&self) -> NodeId {
        self.fastest
    }

    /// Predecessor edges of `t` as `(predecessor, data size)`, in the
    /// graph's adjacency order.
    pub fn preds(&self, t: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let (s, e) = self.pred_range(t);
        self.pred_task[s..e]
            .iter()
            .copied()
            .zip(self.pred_cost[s..e].iter().copied())
    }

    /// Successor edges of `t` as `(successor, data size)`.
    pub fn succs(&self, t: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let (s, e) = self.succ_range(t);
        self.succ_task[s..e]
            .iter()
            .copied()
            .zip(self.succ_cost[s..e].iter().copied())
    }

    /// The cached topological order (smallest-id tie-breaking).
    #[inline]
    pub fn topo_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// HEFT-style average execution time per task
    /// (`c(t) * mean_v 1/s(v)`, 0 for zero-cost tasks).
    #[inline]
    pub fn avg_exec(&self) -> &[f64] {
        &self.avg_exec
    }

    /// Average communication time of a dependency carrying `bytes`.
    #[inline]
    pub fn avg_comm(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            0.0
        } else {
            bytes * self.inv_link
        }
    }

    // ---- run state queries ----

    /// Whether `t` has been placed.
    #[inline]
    pub fn is_placed(&self, t: TaskId) -> bool {
        self.placed_epoch[t.index()] == self.epoch
    }

    /// Whether every predecessor of `t` has been placed.
    #[inline]
    pub fn is_ready(&self, t: TaskId) -> bool {
        self.unplaced_preds[t.index()] == 0
    }

    /// Number of tasks placed so far.
    #[inline]
    pub fn placed_count(&self) -> usize {
        self.placed_count
    }

    /// Unplaced tasks whose predecessors are all placed, ascending by id.
    /// Maintained incrementally by [`place`](Self::place).
    #[inline]
    pub fn ready(&self) -> &[TaskId] {
        &self.ready
    }

    /// Finish time of a placed task.
    ///
    /// # Panics
    /// Panics (debug) if the task has not been placed.
    #[inline]
    pub fn finish_time(&self, t: TaskId) -> f64 {
        debug_assert!(self.is_placed(t), "task {t} not placed yet");
        self.finish[t.index()]
    }

    /// Node of a placed task.
    #[inline]
    pub fn node_of(&self, t: TaskId) -> NodeId {
        debug_assert!(self.is_placed(t), "task {t} not placed yet");
        self.node_of[t.index()]
    }

    /// Earliest time all of `t`'s input data can be present on `v`:
    /// `max_p finish(p) + c(p,t)/s(node(p), v)`.
    ///
    /// # Panics
    /// Panics (debug) if a predecessor is unplaced.
    pub fn data_ready_time(&self, t: TaskId, v: NodeId) -> f64 {
        let mut ready = 0.0f64;
        let (s, e) = self.pred_range(t);
        for i in s..e {
            let p = self.pred_task[i].index();
            debug_assert!(
                self.is_placed(self.pred_task[i]),
                "predecessor {} unplaced",
                self.pred_task[i]
            );
            let arrival = self.finish[p] + self.comm_time(self.pred_cost[i], self.node_of[p], v);
            ready = later(ready, arrival);
        }
        ready
    }

    /// [`data_ready_time`](Self::data_ready_time) for every node at once,
    /// into `out` (length `node_count()`). One pass over the predecessors
    /// loads each `finish`/`node_of`/link row once instead of once per node;
    /// per node the arrivals fold in the same predecessor order, so the
    /// results are bit-identical to the per-node query.
    ///
    /// On a network whose links all have one strength the row costs
    /// O(preds + nodes) instead (see `data_ready_times_uniform`).
    pub fn data_ready_times_into(&self, t: TaskId, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_nodes);
        if let Some(link) = self.uniform_link {
            self.data_ready_times_uniform(t, link, out);
            return;
        }
        out.fill(0.0);
        let (s, e) = self.pred_range(t);
        for i in s..e {
            let p = self.pred_task[i].index();
            debug_assert!(
                self.is_placed(self.pred_task[i]),
                "predecessor {} unplaced",
                self.pred_task[i]
            );
            let f = self.finish[p];
            let pn = self.node_of[p].index();
            let cost = self.pred_cost[i];
            if cost == 0.0 {
                // empty message: arrives at `f` everywhere
                for r in out.iter_mut() {
                    *r = later(*r, f);
                }
                continue;
            }
            // Branchless inner loop: every entry folds elementwise, so the
            // sender's own entry (whose division result — possibly junk off
            // the unused link-matrix diagonal — must not count) is saved
            // first and refolded with the local arrival `f` afterwards.
            // Off-diagonal entries compute exactly the branchy form's
            // `f + cost / row[v]`.
            let keep = out[pn];
            let row = &self.links[pn * self.n_nodes..][..self.n_nodes];
            fold_arrivals(out, row, f, cost);
            out[pn] = later(keep, f);
        }
    }

    /// [`data_ready_times_into`](Self::data_ready_times_into) when every
    /// link has strength `link`. A predecessor's data reaches every node
    /// but its own at the same time, its remote arrival `f + cost / link`
    /// (`f` for an empty message), and its own node at its finish `f`. So
    /// every node gets the best remote arrival `b1`, except the node `b1`
    /// came from, which gets the best remote arrival from any other node;
    /// then each node hosting predecessors is raised to their finishes.
    /// That is the same set of values per node as the general fold's, and
    /// `max` of non-NaN values that are never `-0.0` is exact in any order,
    /// so the row is bit-identical.
    fn data_ready_times_uniform(&self, t: TaskId, link: f64, out: &mut [f64]) {
        let (s, e) = self.pred_range(t);
        // best remote arrival, its node (`usize::MAX`: none above 0 yet),
        // and the best remote arrival from any other node
        let (mut b1, mut n1, mut b2) = (0.0f64, usize::MAX, 0.0f64);
        for i in s..e {
            let p = self.pred_task[i].index();
            debug_assert!(
                self.is_placed(self.pred_task[i]),
                "predecessor {} unplaced",
                self.pred_task[i]
            );
            let f = self.finish[p];
            let cost = self.pred_cost[i];
            let r = if cost == 0.0 { f } else { f + cost / link };
            let pn = self.node_of[p].index();
            if r > b1 {
                if pn != n1 {
                    b2 = b1;
                    n1 = pn;
                }
                b1 = r;
            } else if pn != n1 {
                b2 = later(b2, r);
            }
        }
        out.fill(b1);
        if let Some(own) = out.get_mut(n1) {
            *own = b2;
        }
        for i in s..e {
            let p = self.pred_task[i].index();
            let pn = self.node_of[p].index();
            out[pn] = later(out[pn], self.finish[p]);
        }
    }

    /// Earliest start on `v` at or after `ready` after every slot on the
    /// node (no insertion): the later of `ready` and the node's max finish.
    /// An empty timeline's max finish is `0.0`, which folds away against
    /// any data-ready time.
    pub fn earliest_start_append(&self, v: NodeId, ready: f64) -> f64 {
        later(self.max_finish[v.index()], ready)
    }

    /// Earliest start on `v` at or after `ready`, allowed to fill an idle
    /// gap between already-placed tasks (HEFT's insertion policy).
    ///
    /// The gap before slot `s` takes the task when it starts no later than
    /// `s.start` and ends by `s.start`, up to [`TIME_EPS`](crate::TIME_EPS)
    /// of rounding. A task starting later than `s` would run inside it,
    /// however short the task is (a subnormal cost on a slow node lasts
    /// less than the tolerance). An end of `+inf` (a finite sum can
    /// overflow) is by `s.start` only when `s` starts at `+inf` too, as
    /// [`Schedule::verify`](crate::Schedule::verify) reads it, though the
    /// tolerance sum may overflow to `+inf` as well.
    pub fn earliest_start_insertion(&self, v: NodeId, ready: f64, duration: f64) -> f64 {
        let slots = &self.timelines[v.index()];
        if duration.is_infinite() {
            // a never-ending task fits no gap: it starts after every slot
            // ends, which is after the last slot only when no
            // zero-duration boundary task sits last
            return later(ready, self.max_finish[v.index()]);
        }
        // Data arriving at or after every slot's finish: the scan's candidate
        // never rises above `ready` and both the early gap-return and the
        // fall-through return exactly `ready` — skip the scan. (Gated on the
        // maintained per-node max finish, NOT the last slot's finish: a
        // zero-duration boundary task at the end of the slot vector can
        // finish earlier than its predecessors.)
        if !slots.is_empty() && ready >= self.max_finish[v.index()] {
            return ready;
        }
        let mut candidate = ready;
        for s in slots {
            let end = candidate + duration;
            if candidate <= s.start
                && end <= s.start + crate::schedule::TIME_EPS * later(s.start.abs(), 1.0)
                && (end < f64::INFINITY || s.start == f64::INFINITY)
            {
                return candidate;
            }
            candidate = later(candidate, s.finish);
        }
        candidate
    }

    /// The earliest-finish-time query used by HEFT-family schedulers:
    /// `(start, finish)` for placing `t` on `v` now.
    pub fn eft(&self, t: TaskId, v: NodeId, insertion: bool) -> (f64, f64) {
        let duration = self.exec_time(t, v);
        let ready = self.data_ready_time(t, v);
        let start = if insertion {
            self.earliest_start_insertion(v, ready, duration)
        } else {
            self.earliest_start_append(v, ready)
        };
        (start, start + duration)
    }

    /// The max finish time on each node's timeline (`0.0` for an empty
    /// timeline), maintained by [`place`](Self::place)/
    /// [`unplace`](Self::unplace). Composing `later(append_tails()[v],
    /// ready)` reproduces
    /// [`earliest_start_append`](Self::earliest_start_append) bit for bit.
    /// In an append-only state this is also the last slot's finish; after
    /// an insertion a zero-duration task can sit last with an earlier
    /// finish, and an append placement must still start after every slot.
    #[inline]
    pub fn append_tails(&self) -> &[f64] {
        &self.max_finish
    }

    /// Checks that the ready queue is strictly ascending by id (debug
    /// builds only) — the order [`ready`](Self::ready) promises and the
    /// scan-and-shift upkeep of [`ready_remove`](Self::ready_remove) and
    /// [`ready_insert`](Self::ready_insert) relies on.
    #[inline]
    fn debug_check_ready(&self) {
        debug_assert!(
            self.ready.windows(2).all(|w| w[0] < w[1]),
            "ready queue not strictly ascending: {:?}",
            self.ready
        );
    }

    /// Removes `t` from the ready queue if it is there: a linear scan for
    /// it, then the tail shifted left by hand. Ready sets are small, so
    /// this beats a binary search plus a `memmove` call.
    #[inline]
    fn ready_remove(&mut self, t: TaskId) {
        let ready = &mut self.ready;
        let Some(mut i) = ready.iter().position(|&r| r == t) else {
            return;
        };
        let last = ready.len() - 1;
        while i < last {
            ready[i] = ready[i + 1];
            i += 1;
        }
        ready.truncate(last);
    }

    /// Inserts `t` into the ready queue at its id position: pushed at the
    /// end, then walked back past the larger ids, each shifted right by
    /// one. `t` is not in the queue yet (it was placed, or had an unplaced
    /// predecessor), which [`debug_check_ready`](Self::debug_check_ready)
    /// confirms.
    #[inline]
    fn ready_insert(&mut self, t: TaskId) {
        let ready = &mut self.ready;
        ready.push(t);
        let mut i = ready.len() - 1;
        while i > 0 && ready[i - 1] > t {
            ready[i] = ready[i - 1];
            i -= 1;
        }
        ready[i] = t;
    }

    /// Current makespan over placed tasks. Every placed task sits on
    /// exactly one node timeline and `max_finish` is maintained per
    /// placement, so folding the per-node maxima visits `|V|` entries
    /// instead of scanning (and epoch-filtering) every task's finish slot —
    /// same value set under the same [`later`] fold from `0.0`, so the
    /// result is bit-identical.
    pub fn current_makespan(&self) -> f64 {
        self.max_finish.iter().copied().fold(0.0, later)
    }

    // ---- mutation ----

    /// Places `t` on `v` at `start`; the finish time comes from the cached
    /// execution time. Updates the ready queue incrementally.
    ///
    /// # Panics
    /// Panics (debug) on double placement. The caller is responsible for a
    /// feasible `start` (as returned by [`eft`](Self::eft)).
    pub fn place(&mut self, t: TaskId, v: NodeId, start: f64) {
        debug_assert!(!self.is_placed(t), "task {t} placed twice");
        self.run_clean = false;
        if self.recording {
            self.rec.push((t, v, start));
        }
        let duration = self.exec_time(t, v);
        let finish = start + duration;
        let slot = Slot {
            start,
            finish,
            task: t,
        };
        let timeline = &mut self.timelines[v.index()];
        if timeline.last().is_none_or(|last| last.start <= start) {
            // append: the same position `partition_point` finds on a
            // timeline sorted by start
            timeline.push(slot);
        } else {
            let pos = timeline.partition_point(|s| s.start <= start);
            timeline.insert(pos, slot);
        }
        let mf = &mut self.max_finish[v.index()];
        *mf = later(*mf, finish);
        self.finish[t.index()] = finish;
        self.node_of[t.index()] = v;
        self.placed_epoch[t.index()] = self.epoch;
        self.placed_count += 1;
        // ready-queue maintenance: remove t, admit newly ready successors
        self.ready_remove(t);
        let (s, e) = self.succ_range(t);
        for i in s..e {
            let st = self.succ_task[i];
            let d = &mut self.unplaced_preds[st.index()];
            *d -= 1;
            if *d == 0 && self.placed_epoch[st.index()] != self.epoch {
                self.ready_insert(st);
            }
        }
        self.debug_check_ready();
    }

    /// Reverts the placement of `t`, restoring the ready queue and
    /// predecessor counters — the undo operation exact solvers use for
    /// depth-first search without cloning the whole context.
    ///
    /// Placements must be reverted in LIFO order relative to `t`'s
    /// successors (no successor of `t` may still be placed).
    ///
    /// # Panics
    /// Panics (debug) if `t` is not placed or a successor still is.
    pub fn unplace(&mut self, t: TaskId) {
        debug_assert!(self.is_placed(t), "task {t} not placed");
        debug_assert!(
            !self.recording,
            "unplace during placement recording (exact solvers don't record)"
        );
        self.run_clean = false;
        let v = self.node_of[t.index()];
        let timeline = &mut self.timelines[v.index()];
        let pos = timeline
            .iter()
            .position(|s| s.task == t)
            .expect("placed task missing from its timeline");
        timeline.remove(pos);
        self.max_finish[v.index()] = timeline.iter().map(|s| s.finish).fold(0.0, later);
        self.placed_epoch[t.index()] = 0;
        self.finish[t.index()] = f64::NAN;
        self.placed_count -= 1;
        let (s, e) = self.succ_range(t);
        for i in s..e {
            let st = self.succ_task[i];
            debug_assert!(!self.is_placed(st), "successor {st} still placed");
            if self.unplaced_preds[st.index()] == 0 {
                self.ready_remove(st);
            }
            self.unplaced_preds[st.index()] += 1;
        }
        // t itself becomes ready again (its predecessors are untouched)
        if self.unplaced_preds[t.index()] == 0 {
            self.ready_insert(t);
        }
        self.debug_check_ready();
    }

    /// Builds the completed [`Schedule`] from the timelines without
    /// consuming the context.
    ///
    /// # Panics
    /// Panics if any task is unplaced — schedulers must place every task.
    pub fn snapshot_schedule(&self) -> Schedule {
        assert_eq!(
            self.placed_count, self.n_tasks,
            "scheduler left tasks unplaced"
        );
        // Emit the starts recorded at placement time. Recomputing them as
        // `finish - duration` loses an ulp, which is enough to re-order a
        // zero-duration task behind the slot whose boundary it sits on and
        // make verify() report a phantom overlap.
        // saga-lint: allow(hot-alloc) — builds the owned `Schedule` that `schedule_into` returns; the kernel schedulers' `makespan_into` never calls it
        let mut assignments: Vec<Assignment> = Vec::with_capacity(self.placed_count);
        for (vi, timeline) in self.timelines.iter().enumerate() {
            for s in timeline {
                assignments.push(Assignment {
                    task: s.task,
                    node: NodeId(vi as u32),
                    start: s.start,
                    finish: s.finish,
                });
            }
        }
        Schedule::from_assignments(self.n_nodes, assignments)
    }

    // ---- rankings ----

    /// Upward rank of every task (HEFT's priority) into `out`:
    /// `rank_u(t) = avg_exec(t) + max_s (avg_comm(t,s) + rank_u(s))`.
    pub fn upward_ranks_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_tasks, 0.0);
        for &t in self.topo.iter().rev() {
            let mut best = 0.0f64;
            let (s, e) = self.succ_range(t);
            for i in s..e {
                best = later(
                    best,
                    self.avg_comm(self.succ_cost[i]) + out[self.succ_task[i].index()],
                );
            }
            out[t.index()] = self.avg_exec[t.index()] + best;
        }
    }

    /// Downward rank of every task (CPoP's second component) into `out`:
    /// `rank_d(t) = max_p (rank_d(p) + avg_exec(p) + avg_comm(p,t))`.
    pub fn downward_ranks_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n_tasks, 0.0);
        for &t in &self.topo {
            let (s, e) = self.succ_range(t);
            for i in s..e {
                let via =
                    out[t.index()] + self.avg_exec[t.index()] + self.avg_comm(self.succ_cost[i]);
                let r = &mut out[self.succ_task[i].index()];
                *r = later(*r, via);
            }
        }
    }

    /// The critical-path length `max_t rank_u(t) + rank_d(t)` given the two
    /// rank vectors.
    pub fn critical_length(up: &[f64], down: &[f64]) -> f64 {
        let mut length = 0.0f64;
        for (u, d) in up.iter().zip(down) {
            let l = u + d;
            if l > length {
                length = l;
            }
        }
        length
    }

    // ---- scratch pools ----

    /// Borrows a cleared `Vec<f64>` from the pool (allocates only until the
    /// pool has warmed up). Return it with [`give_f64`](Self::give_f64).
    pub fn take_f64(&mut self) -> Vec<f64> {
        self.f64_pool.pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool.
    pub fn give_f64(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.f64_pool.push(buf);
    }

    /// Borrows a cleared `Vec<TaskId>` from the pool.
    pub fn take_tasks(&mut self) -> Vec<TaskId> {
        self.task_pool.pop().unwrap_or_default()
    }

    /// Returns a task scratch buffer to the pool.
    pub fn give_tasks(&mut self, mut buf: Vec<TaskId>) {
        buf.clear();
        self.task_pool.push(buf);
    }

    /// Borrows a cleared `Vec<NodeId>` from the pool.
    pub fn take_nodes(&mut self) -> Vec<NodeId> {
        self.node_pool.pop().unwrap_or_default()
    }

    /// Returns a node scratch buffer to the pool.
    pub fn give_nodes(&mut self, mut buf: Vec<NodeId>) {
        buf.clear();
        self.node_pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, TaskGraph};

    fn diamond_instance() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 2.0);
        let c = g.add_task("c", 3.0);
        let d = g.add_task("d", 4.0);
        g.add_dependency(a, b, 0.5).unwrap();
        g.add_dependency(a, c, 0.5).unwrap();
        g.add_dependency(b, d, 0.5).unwrap();
        g.add_dependency(c, d, 0.5).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 2.0), g)
    }

    /// `a` → `b`, `a` → `c` (4 bytes each), unit costs 2, speeds 1 and 2,
    /// links 2.
    fn fork_instance() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 2.0);
        let c = g.add_task("c", 2.0);
        g.add_dependency(a, b, 4.0).unwrap();
        g.add_dependency(a, c, 4.0).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 2.0), g)
    }

    #[test]
    fn data_ready_and_eft_account_for_communication() {
        let inst = fork_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        ctx.place(TaskId(0), NodeId(1), 0.0); // exec 1 on the speed-2 node
                                              // same node: no communication
        assert_eq!(ctx.data_ready_time(TaskId(1), NodeId(1)), 1.0);
        assert_eq!(ctx.eft(TaskId(1), NodeId(1), true), (1.0, 2.0));
        // cross node: 4 bytes / strength 2 = 2, then exec 2 on speed 1
        assert_eq!(ctx.data_ready_time(TaskId(1), NodeId(0)), 3.0);
        assert_eq!(ctx.eft(TaskId(1), NodeId(0), true), (3.0, 5.0));
    }

    #[test]
    fn insertion_fills_only_gaps_the_task_fits() {
        let inst = fork_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        // occupy [5, 7] on node 0, leaving a gap [0, 5)
        ctx.place(TaskId(2), NodeId(0), 5.0);
        assert_eq!(ctx.earliest_start_append(NodeId(0), 0.0), 7.0);
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 0.0, 2.0), 0.0);
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 0.0, 5.0), 0.0);
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 0.0, 6.0), 7.0);
        // a ready time inside the gap shrinks it
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 4.0, 2.0), 7.0);
        // a gap between two slots: [2, 6) after [0, 2]
        ctx.reset(&inst);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        ctx.place(TaskId(1), NodeId(0), 6.0);
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 0.0, 4.0), 2.0);
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 0.0, 4.5), 8.0);
    }

    #[test]
    fn current_makespan_tracks_placed_tasks() {
        let inst = fork_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        assert_eq!(ctx.current_makespan(), 0.0);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        assert_eq!(ctx.current_makespan(), 2.0);
        ctx.place(TaskId(1), NodeId(1), 4.0);
        assert_eq!(ctx.current_makespan(), 5.0);
    }

    #[test]
    fn a_zero_speed_node_gives_an_infinite_finish_that_verifies() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = Instance::new(Network::complete(&[0.0], 1.0), g);
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        let (s, f) = ctx.eft(TaskId(0), NodeId(0), true);
        assert_eq!(s, 0.0);
        assert!(f.is_infinite());
        ctx.place(TaskId(0), NodeId(0), s);
        ctx.snapshot_schedule().verify(&inst).unwrap();
    }

    #[test]
    fn cached_tables_match_direct_computation() {
        let inst = diamond_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        for t in inst.graph.tasks() {
            for v in inst.network.nodes() {
                assert_eq!(
                    ctx.exec_time(t, v),
                    inst.network.exec_time(inst.graph.cost(t), v)
                );
            }
        }
        assert_eq!(ctx.comm_time(0.5, NodeId(0), NodeId(1)), 0.25);
        assert_eq!(ctx.comm_time(0.5, NodeId(1), NodeId(1)), 0.0);
        assert_eq!(ctx.topo_order(), &inst.graph.topological_order()[..]);
        assert_eq!(ctx.fastest_node(), inst.network.fastest_node());
        let avg = crate::ranking::AverageCosts::new(&inst);
        assert_eq!(ctx.avg_exec(), &avg.exec[..]);
        assert_eq!(ctx.avg_comm(0.5), avg.comm(0.5));
    }

    #[test]
    fn ready_queue_updates_incrementally() {
        let inst = diamond_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        assert_eq!(ctx.ready(), &[TaskId(0)]);
        assert!(ctx.is_ready(TaskId(0)) && !ctx.is_ready(TaskId(1)));
        ctx.place(TaskId(0), NodeId(0), 0.0);
        assert_eq!(ctx.ready(), &[TaskId(1), TaskId(2)]);
        assert!(ctx.is_ready(TaskId(1)) && ctx.is_ready(TaskId(2)));
        ctx.place(TaskId(2), NodeId(1), 2.0);
        assert_eq!(ctx.ready(), &[TaskId(1)]);
        ctx.place(TaskId(1), NodeId(0), 1.0);
        assert_eq!(ctx.ready(), &[TaskId(3)]);
        ctx.place(TaskId(3), NodeId(0), 10.0);
        assert!(ctx.ready().is_empty());
        assert_eq!(ctx.placed_count(), 4);
        ctx.snapshot_schedule().verify(&inst).unwrap();
    }

    #[test]
    fn unplace_restores_state_exactly() {
        let inst = diamond_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        let ready_before = ctx.ready().to_vec();
        let makespan_before = ctx.current_makespan();
        ctx.place(TaskId(1), NodeId(1), 3.0);
        ctx.unplace(TaskId(1));
        assert_eq!(ctx.ready(), &ready_before[..]);
        assert_eq!(ctx.current_makespan(), makespan_before);
        assert!(!ctx.is_placed(TaskId(1)));
        assert!(ctx.is_ready(TaskId(1)));
        // and the timeline slot is gone: same EFT as before
        let (s, _) = ctx.eft(TaskId(2), NodeId(1), false);
        ctx.place(TaskId(2), NodeId(1), s);
        assert_eq!(ctx.node_of(TaskId(2)), NodeId(1));
    }

    #[test]
    fn reset_reuses_capacity_across_instances() {
        let a = diamond_instance();
        let g = TaskGraph::chain(&[1.0, 1.0], &[0.5]);
        let b = Instance::new(Network::complete(&[1.0], 1.0), g);
        let mut ctx = SchedContext::new();
        ctx.reset(&a);
        ctx.place(TaskId(0), NodeId(1), 0.0);
        ctx.reset(&b);
        assert_eq!(ctx.task_count(), 2);
        assert_eq!(ctx.node_count(), 1);
        assert_eq!(ctx.ready(), &[TaskId(0)]);
        assert_eq!(ctx.placed_count(), 0);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        ctx.place(TaskId(1), NodeId(0), 1.5);
        ctx.snapshot_schedule().verify(&b).unwrap();
    }

    #[test]
    fn ranks_match_ranking_module() {
        let inst = diamond_instance();
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        let mut up = Vec::new();
        let mut down = Vec::new();
        ctx.upward_ranks_into(&mut up);
        ctx.downward_ranks_into(&mut down);
        assert_eq!(up, crate::ranking::upward_rank(&inst));
        assert_eq!(down, crate::ranking::downward_rank(&inst));
        let cp = crate::ranking::critical_path(&inst);
        assert_eq!(SchedContext::critical_length(&up, &down), cp.length);
    }

    #[test]
    fn insertion_shortcut_gates_on_max_finish_not_last_slot() {
        // One node; A (cost 1) at [2,3]; zero-cost Z legally at [2,2] —
        // partition_point orders Z after A, so the timeline's *last* slot
        // finishes at 2 while the max finish is 3. A 1-long query with data
        // ready at 2.5 must not slip inside A's slot.
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("z", 0.0);
        g.add_task("q", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        ctx.place(TaskId(0), NodeId(0), 2.0);
        ctx.place(TaskId(1), NodeId(0), 2.0); // zero-duration boundary task
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 2.5, 1.0), 3.0);
        // a placement driven through eft stays verifiable
        let (s, _) = ctx.eft(TaskId(2), NodeId(0), true);
        ctx.place(TaskId(2), NodeId(0), s);
        ctx.snapshot_schedule().verify(&inst).unwrap();
        // and unplace recomputes the per-node max finish
        ctx.unplace(TaskId(2));
        ctx.unplace(TaskId(0));
        assert_eq!(ctx.earliest_start_insertion(NodeId(0), 2.5, 1.0), 2.5);
    }

    #[test]
    fn append_queries_after_an_insertion_start_after_every_slot() {
        // A at [2, 3], then a zero-duration Z at [2, 2] sorts last on node
        // 0: the last slot finishes at 2, inside A. Append queries must
        // answer from the max finish 3, or the tasks they place overlap A.
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let z = g.add_task("z", 0.0);
        let b = g.add_task("b", 2.0);
        let c = g.add_task("c", 0.5);
        let d = g.add_task("d", 1.5);
        g.add_dependency(a, c, 0.2).unwrap();
        g.add_dependency(z, c, 0.0).unwrap();
        g.add_dependency(b, d, 1.0).unwrap();
        let inst = Instance::new(Network::complete(&[1.0, 0.5], 1.0), g);
        let mut ctx = SchedContext::new();
        ctx.reset(&inst);
        ctx.place(a, NodeId(0), 2.0);
        ctx.place(z, NodeId(0), 2.0);
        assert_eq!(ctx.earliest_start_append(NodeId(0), 0.0), 3.0);
        assert_eq!(ctx.append_tails(), &[3.0, 0.0]);
        // the rest append on node 0, as an append-only scheduler would
        // place them there
        for t in [b, c, d] {
            let (start, _) = ctx.eft(t, NodeId(0), false);
            assert!(start >= 3.0, "{t} starts at {start}, inside a");
            ctx.place(t, NodeId(0), start);
        }
        ctx.snapshot_schedule().verify(&inst).unwrap();
    }

    #[test]
    fn pinned_tables_survive_reset_and_unpin_rebuilds() {
        let inst = diamond_instance();
        let mut ctx = SchedContext::new();
        ctx.pin_tables(&inst);
        ctx.place(TaskId(0), NodeId(0), 0.0);
        ctx.reset(&inst); // run state cleared, tables kept
        assert_eq!(ctx.placed_count(), 0);
        assert_eq!(ctx.ready(), &[TaskId(0)]);
        assert_eq!(ctx.exec_time(TaskId(1), NodeId(1)), 1.0);
        ctx.unpin_tables();
        // after unpin, reset follows instance changes again
        let mut changed = inst.clone();
        changed.network.set_speed(NodeId(1), 4.0);
        ctx.reset(&changed);
        assert_eq!(ctx.exec_time(TaskId(1), NodeId(1)), 0.5);
    }

    #[test]
    fn scratch_pools_recycle_buffers() {
        let mut ctx = SchedContext::new();
        let mut buf = ctx.take_f64();
        buf.extend([1.0, 2.0]);
        let cap = buf.capacity();
        ctx.give_f64(buf);
        let again = ctx.take_f64();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        let tasks = ctx.take_tasks();
        ctx.give_tasks(tasks);
        let mut nodes = ctx.take_nodes();
        nodes.push(NodeId(3));
        ctx.give_nodes(nodes);
        assert!(ctx.take_nodes().is_empty());
    }
}
