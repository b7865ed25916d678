//! The task graph `G = (T, D)` of the paper's Section II.
//!
//! A directed acyclic graph whose vertices are tasks with compute cost
//! `c(t) > 0` and whose edges are data dependencies with transfer size
//! `c(t, t')`. The representation is adjacency lists in both directions,
//! indexed densely by [`TaskId`], which keeps scheduler inner loops
//! allocation-free.

use crate::{GraphError, TaskId};

/// The one rule for a task or dependency cost, the network's weight rule
/// (`network.rs`) with infinity refused too: finite and
/// non-negative, or [`GraphError::InvalidCost`]. `-0.0` passes `>= 0.0`
/// and is stored as `+0.0`, the zero it means, so no cost carries a sign
/// that a later division could turn into `-inf`.
fn checked_cost(cost: f64) -> Result<f64, GraphError> {
    if cost.is_finite() && cost >= 0.0 {
        // `-0.0 + 0.0` is `+0.0`; every other accepted value is unchanged
        Ok(cost + 0.0)
    } else {
        Err(GraphError::InvalidCost { value: cost })
    }
}

/// A weighted dependency edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepEdge {
    /// The other endpoint (successor in `succs`, predecessor in `preds`).
    pub task: TaskId,
    /// Data size `c(t, t')` exchanged over the dependency.
    pub cost: f64,
}

/// A directed acyclic task graph with weighted tasks and dependencies.
#[derive(Debug, Default)]
pub struct TaskGraph {
    names: Vec<String>,
    costs: Vec<f64>,
    succs: Vec<Vec<DepEdge>>,
    preds: Vec<Vec<DepEdge>>,
    edge_count: usize,
}

impl Clone for TaskGraph {
    fn clone(&self) -> Self {
        TaskGraph {
            names: self.names.clone(),
            costs: self.costs.clone(),
            succs: self.succs.clone(),
            preds: self.preds.clone(),
            edge_count: self.edge_count,
        }
    }

    /// Reuses the destination's buffers, including the per-task name and
    /// adjacency allocations — annealing loops clone candidate instances
    /// every iteration, and this keeps them allocation-free after warm-up.
    fn clone_from(&mut self, source: &Self) {
        clone_vec_into(&mut self.names, &source.names, |dst, src| {
            dst.clear();
            dst.push_str(src);
        });
        self.costs.clear();
        self.costs.extend_from_slice(&source.costs);
        clone_vec_into(&mut self.succs, &source.succs, |dst, src| {
            dst.clear();
            dst.extend_from_slice(src);
        });
        clone_vec_into(&mut self.preds, &source.preds, |dst, src| {
            dst.clear();
            dst.extend_from_slice(src);
        });
        self.edge_count = source.edge_count;
    }
}

/// Element-wise `clone_from` for a vector, truncating or growing `dst` to
/// `src`'s length while reusing surviving elements' allocations.
fn clone_vec_into<T: Clone>(dst: &mut Vec<T>, src: &[T], reuse: impl Fn(&mut T, &T)) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        reuse(d, s);
    }
    for s in &src[dst.len()..] {
        dst.push(s.clone());
    }
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty task graph with room for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        TaskGraph {
            names: Vec::with_capacity(n),
            costs: Vec::with_capacity(n),
            succs: Vec::with_capacity(n),
            preds: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Adds a task with compute cost `cost` and returns its id.
    ///
    /// # Panics
    /// Panics if `cost` is negative, infinite or NaN; use
    /// [`TaskGraph::try_add_task`] for a fallible variant.
    pub fn add_task(&mut self, name: impl Into<String>, cost: f64) -> TaskId {
        self.try_add_task(name, cost).expect("invalid task cost")
    }

    /// Fallible version of [`TaskGraph::add_task`].
    pub fn try_add_task(
        &mut self,
        name: impl Into<String>,
        cost: f64,
    ) -> Result<TaskId, GraphError> {
        let cost = checked_cost(cost)?;
        let id = TaskId(self.names.len() as u32);
        self.names.push(name.into());
        self.costs.push(cost);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        Ok(id)
    }

    /// Number of tasks `|T|`.
    #[inline]
    pub fn task_count(&self) -> usize {
        self.names.len()
    }

    /// Number of dependencies `|D|`.
    #[inline]
    pub fn dependency_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all task ids in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.names.len() as u32).map(TaskId)
    }

    /// The display name of a task.
    pub fn name(&self, t: TaskId) -> &str {
        &self.names[t.index()]
    }

    /// The compute cost `c(t)`.
    #[inline]
    pub fn cost(&self, t: TaskId) -> f64 {
        self.costs[t.index()]
    }

    /// Sets the compute cost `c(t)`.
    pub fn set_cost(&mut self, t: TaskId, cost: f64) -> Result<(), GraphError> {
        let cost = checked_cost(cost)?;
        if t.index() >= self.costs.len() {
            return Err(GraphError::NoSuchTask { task: t });
        }
        self.costs[t.index()] = cost;
        Ok(())
    }

    /// Successor edges of `t` (tasks that consume `t`'s output).
    #[inline]
    pub fn successors(&self, t: TaskId) -> &[DepEdge] {
        &self.succs[t.index()]
    }

    /// Predecessor edges of `t` (tasks whose output `t` consumes).
    #[inline]
    pub fn predecessors(&self, t: TaskId) -> &[DepEdge] {
        &self.preds[t.index()]
    }

    /// Whether the dependency `(from, to)` exists.
    pub fn has_dependency(&self, from: TaskId, to: TaskId) -> bool {
        self.succs[from.index()].iter().any(|e| e.task == to)
    }

    /// The data size `c(t, t')` of a dependency, if present.
    pub fn dependency_cost(&self, from: TaskId, to: TaskId) -> Option<f64> {
        self.succs[from.index()]
            .iter()
            .find(|e| e.task == to)
            .map(|e| e.cost)
    }

    /// Adds a dependency `(from, to)` with data size `cost`.
    ///
    /// Rejects self-loops, duplicates, and edges that would form a cycle, so
    /// the graph is a DAG by construction.
    pub fn add_dependency(
        &mut self,
        from: TaskId,
        to: TaskId,
        cost: f64,
    ) -> Result<(), GraphError> {
        let cost = checked_cost(cost)?;
        if from == to {
            return Err(GraphError::SelfLoop { task: from });
        }
        if from.index() >= self.task_count() {
            return Err(GraphError::NoSuchTask { task: from });
        }
        if to.index() >= self.task_count() {
            return Err(GraphError::NoSuchTask { task: to });
        }
        if self.has_dependency(from, to) {
            return Err(GraphError::DuplicateDependency { from, to });
        }
        if self.reaches(to, from) {
            return Err(GraphError::CycleWouldForm { from, to });
        }
        self.succs[from.index()].push(DepEdge { task: to, cost });
        self.preds[to.index()].push(DepEdge { task: from, cost });
        self.edge_count += 1;
        Ok(())
    }

    /// Removes the dependency `(from, to)`.
    pub fn remove_dependency(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        self.remove_dependency_tracked(from, to).map(|_| ())
    }

    /// [`remove_dependency`](Self::remove_dependency), additionally
    /// reporting `(cost, succ position, pred position)` of the removed edge
    /// so [`restore_dependency_at`](Self::restore_dependency_at) can revert
    /// the removal with the adjacency lists in their exact original order —
    /// the undo operation in-place annealing loops rely on.
    pub fn remove_dependency_tracked(
        &mut self,
        from: TaskId,
        to: TaskId,
    ) -> Result<(f64, usize, usize), GraphError> {
        let s = &mut self.succs[from.index()];
        let Some(si) = s.iter().position(|e| e.task == to) else {
            return Err(GraphError::NoSuchDependency { from, to });
        };
        let cost = s[si].cost;
        s.swap_remove(si);
        let p = &mut self.preds[to.index()];
        let pi = p
            .iter()
            .position(|e| e.task == from)
            .expect("pred/succ lists out of sync");
        p.swap_remove(pi);
        self.edge_count -= 1;
        Ok((cost, si, pi))
    }

    /// Reverts a [`remove_dependency_tracked`](Self::remove_dependency_tracked):
    /// re-inserts the edge and swaps it back to its recorded positions, so
    /// the adjacency lists are bitwise identical to before the removal
    /// (`swap_remove` moved the last element into the hole; pushing and
    /// swapping back inverts that exactly). `cost` is stored as given, not
    /// through the cost rule: it is the removed edge's own bits.
    ///
    /// # Panics
    /// Panics if the recorded positions are out of range for the lists'
    /// current lengths — i.e. if the graph was mutated since the removal.
    pub fn restore_dependency_at(
        &mut self,
        from: TaskId,
        to: TaskId,
        cost: f64,
        succ_pos: usize,
        pred_pos: usize,
    ) {
        let s = &mut self.succs[from.index()];
        s.push(DepEdge { task: to, cost });
        let last = s.len() - 1;
        s.swap(succ_pos, last);
        let p = &mut self.preds[to.index()];
        p.push(DepEdge { task: from, cost });
        let last = p.len() - 1;
        p.swap(pred_pos, last);
        self.edge_count += 1;
    }

    /// Reverts the most recent [`add_dependency`](Self::add_dependency) of
    /// `(from, to)`: the edge must still be the *last* entry of both
    /// adjacency lists (nothing touched the graph since), so popping both
    /// restores the exact prior state.
    ///
    /// # Panics
    /// Panics if `(from, to)` is not the last edge of both lists.
    pub fn pop_dependency(&mut self, from: TaskId, to: TaskId) {
        let s = &mut self.succs[from.index()];
        assert_eq!(
            s.last().map(|e| e.task),
            Some(to),
            "pop_dependency: ({from}, {to}) is not the most recent succ edge"
        );
        s.pop();
        let p = &mut self.preds[to.index()];
        assert_eq!(
            p.last().map(|e| e.task),
            Some(from),
            "pop_dependency: ({from}, {to}) is not the most recent pred edge"
        );
        p.pop();
        self.edge_count -= 1;
    }

    /// Updates the data size of an existing dependency.
    pub fn set_dependency_cost(
        &mut self,
        from: TaskId,
        to: TaskId,
        cost: f64,
    ) -> Result<(), GraphError> {
        let cost = checked_cost(cost)?;
        let Some(e) = self.succs[from.index()].iter_mut().find(|e| e.task == to) else {
            return Err(GraphError::NoSuchDependency { from, to });
        };
        e.cost = cost;
        let p = self.preds[to.index()]
            .iter_mut()
            .find(|e| e.task == from)
            .expect("pred/succ lists out of sync");
        p.cost = cost;
        Ok(())
    }

    /// Iterator over all dependencies as `(from, to, cost)`.
    pub fn dependencies(&self) -> impl Iterator<Item = (TaskId, TaskId, f64)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, es)| es.iter().map(move |e| (TaskId(i as u32), e.task, e.cost)))
    }

    /// The `k`-th dependency in [`dependencies`](Self::dependencies) order,
    /// without materializing the edge list (the perturbation operators draw
    /// uniform edges tens of thousands of times per annealing cell).
    pub fn nth_dependency(&self, k: usize) -> Option<(TaskId, TaskId, f64)> {
        let mut remaining = k;
        for (i, es) in self.succs.iter().enumerate() {
            if remaining < es.len() {
                let e = &es[remaining];
                return Some((TaskId(i as u32), e.task, e.cost));
            }
            remaining -= es.len();
        }
        None
    }

    /// Whether `from` can reach `to` along dependencies (used for cycle checks).
    pub fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        if self.task_count() <= 64 {
            return self.reaches_small(from, to);
        }
        let mut seen = vec![false; self.task_count()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(t) = stack.pop() {
            for e in &self.succs[t.index()] {
                if e.task == to {
                    return true;
                }
                if !seen[e.task.index()] {
                    seen[e.task.index()] = true;
                    stack.push(e.task);
                }
            }
        }
        false
    }

    /// Allocation-free [`reaches`](Self::reaches) for graphs of at most 64
    /// tasks: the seen set and the DFS frontier are both `u64` bitmasks.
    /// (Adversarial-search instances have 3–5 tasks, and acyclicity checks
    /// sit on the perturbation hot path.)
    fn reaches_small(&self, from: TaskId, to: TaskId) -> bool {
        let mut seen: u64 = 1 << from.index();
        let mut frontier: u64 = seen;
        while frontier != 0 {
            let t = frontier.trailing_zeros() as usize;
            frontier &= frontier - 1;
            for e in &self.succs[t] {
                if e.task == to {
                    return true;
                }
                let bit = 1u64 << e.task.index();
                if seen & bit == 0 {
                    seen |= bit;
                    frontier |= bit;
                }
            }
        }
        false
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<TaskId> {
        self.tasks()
            .filter(|t| self.preds[t.index()].is_empty())
            .collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.tasks()
            .filter(|t| self.succs[t.index()].is_empty())
            .collect()
    }

    /// In-degree of every task, indexed by task id.
    pub fn in_degrees(&self) -> Vec<usize> {
        self.preds.iter().map(Vec::len).collect()
    }

    /// A topological order of the tasks (Kahn's algorithm).
    ///
    /// Ties are broken by task id, making the order deterministic. The graph
    /// is acyclic by construction, so this always succeeds.
    pub fn topological_order(&self) -> Vec<TaskId> {
        let n = self.task_count();
        let mut indeg = self.in_degrees();
        // A binary-heap keyed by id would also work; with the small fan-outs
        // of real workflows a sorted frontier vector is cheaper.
        let mut frontier: Vec<TaskId> = self.tasks().filter(|t| indeg[t.index()] == 0).collect();
        frontier.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest id from the back
        let mut order = Vec::with_capacity(n);
        while let Some(t) = frontier.pop() {
            order.push(t);
            let mut added = false;
            for e in &self.succs[t.index()] {
                let d = &mut indeg[e.task.index()];
                *d -= 1;
                if *d == 0 {
                    frontier.push(e.task);
                    added = true;
                }
            }
            if added {
                frontier.sort_unstable_by(|a, b| b.cmp(a));
            }
        }
        debug_assert_eq!(order.len(), n, "graph must be acyclic");
        order
    }

    /// Total compute cost over all tasks.
    pub fn total_cost(&self) -> f64 {
        self.costs.iter().sum()
    }

    /// Mean task compute cost (0 for an empty graph).
    pub fn mean_task_cost(&self) -> f64 {
        if self.costs.is_empty() {
            0.0
        } else {
            self.total_cost() / self.costs.len() as f64
        }
    }

    /// Mean dependency data size (0 when there are no dependencies).
    pub fn mean_dependency_cost(&self) -> f64 {
        if self.edge_count == 0 {
            return 0.0;
        }
        self.dependencies().map(|(_, _, c)| c).sum::<f64>() / self.edge_count as f64
    }

    /// Builds a simple chain `t0 -> t1 -> ... -> t{n-1}` with the given
    /// task costs and dependency costs (`deps.len() == costs.len() - 1`).
    pub fn chain(costs: &[f64], deps: &[f64]) -> Self {
        assert!(costs.is_empty() || deps.len() == costs.len() - 1);
        let mut g = TaskGraph::with_capacity(costs.len());
        let ids: Vec<TaskId> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| g.add_task(format!("t{i}"), c))
            .collect();
        for (i, &d) in deps.iter().enumerate() {
            g.add_dependency(ids[i], ids[i + 1], d).unwrap();
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 2.0);
        let c = g.add_task("c", 3.0);
        let d = g.add_task("d", 4.0);
        g.add_dependency(a, b, 0.1).unwrap();
        g.add_dependency(a, c, 0.2).unwrap();
        g.add_dependency(b, d, 0.3).unwrap();
        g.add_dependency(c, d, 0.4).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn add_task_assigns_dense_ids() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!((a.0, b.0, c.0, d.0), (0, 1, 2, 3));
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.dependency_count(), 4);
    }

    #[test]
    fn rejects_negative_and_nan_costs() {
        let mut g = TaskGraph::new();
        assert!(g.try_add_task("x", -1.0).is_err());
        assert!(g.try_add_task("x", f64::NAN).is_err());
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        assert!(g.add_dependency(a, b, f64::INFINITY).is_err());
        assert_eq!(g.add_dependency(a, b, 1.0), Ok(()));
        assert!(g.set_dependency_cost(a, b, -3.0).is_err());
        assert!(g.set_cost(a, f64::NAN).is_err());
    }

    /// The costs every entry point must refuse, with `InvalidCost`.
    const BAD_COSTS: [f64; 5] = [
        -1.0,
        -f64::MIN_POSITIVE,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NAN,
    ];

    /// Whether `r` is the `InvalidCost` error for `bad` (compared by
    /// bits, so NaN matches itself).
    fn refused(r: Result<(), GraphError>, bad: f64) -> bool {
        matches!(r, Err(GraphError::InvalidCost { value }) if value.to_bits() == bad.to_bits())
    }

    #[test]
    fn try_add_task_refuses_bad_costs_and_stores_negative_zero_as_zero() {
        let mut g = TaskGraph::new();
        for bad in BAD_COSTS {
            assert!(refused(g.try_add_task("x", bad).map(drop), bad));
        }
        assert_eq!(g.task_count(), 0, "a refused task is not added");
        let t = g.try_add_task("z", -0.0).unwrap();
        assert_eq!(g.cost(t).to_bits(), 0);
    }

    #[test]
    fn set_cost_refuses_bad_costs_and_stores_negative_zero_as_zero() {
        let (mut g, [a, ..]) = diamond();
        let before = g.cost(a).to_bits();
        for bad in BAD_COSTS {
            assert!(refused(g.set_cost(a, bad), bad));
            assert_eq!(g.cost(a).to_bits(), before, "a refused cost is not stored");
        }
        g.set_cost(a, -0.0).unwrap();
        assert_eq!(g.cost(a).to_bits(), 0);
    }

    #[test]
    fn add_dependency_refuses_bad_costs_and_stores_negative_zero_as_zero() {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        for bad in BAD_COSTS {
            assert!(refused(g.add_dependency(a, b, bad), bad));
            assert_eq!(g.dependency_count(), 0, "a refused edge is not added");
        }
        g.add_dependency(a, b, -0.0).unwrap();
        assert_eq!(g.dependency_cost(a, b).map(f64::to_bits), Some(0));
        assert_eq!(g.predecessors(b)[0].cost.to_bits(), 0);
    }

    #[test]
    fn set_dependency_cost_refuses_bad_costs_and_stores_negative_zero_as_zero() {
        let (mut g, [a, b, ..]) = diamond();
        let before = g.dependency_cost(a, b).map(f64::to_bits);
        for bad in BAD_COSTS {
            assert!(refused(g.set_dependency_cost(a, b, bad), bad));
            assert_eq!(g.dependency_cost(a, b).map(f64::to_bits), before);
        }
        g.set_dependency_cost(a, b, -0.0).unwrap();
        assert_eq!(g.dependency_cost(a, b).map(f64::to_bits), Some(0));
        let pred = g.predecessors(b).iter().find(|e| e.task == a).unwrap();
        assert_eq!(pred.cost.to_bits(), 0);
    }

    #[test]
    fn rejects_cycles_self_loops_and_duplicates() {
        let (mut g, [a, b, _, d]) = diamond();
        assert_eq!(
            g.add_dependency(d, a, 1.0),
            Err(GraphError::CycleWouldForm { from: d, to: a })
        );
        assert_eq!(
            g.add_dependency(a, a, 1.0),
            Err(GraphError::SelfLoop { task: a })
        );
        assert_eq!(
            g.add_dependency(a, b, 1.0),
            Err(GraphError::DuplicateDependency { from: a, to: b })
        );
    }

    #[test]
    fn remove_dependency_keeps_lists_in_sync() {
        let (mut g, [a, b, _, d]) = diamond();
        g.remove_dependency(a, b).unwrap();
        assert!(!g.has_dependency(a, b));
        assert_eq!(g.dependency_count(), 3);
        assert!(g.predecessors(b).is_empty());
        // b -> d still present
        assert_eq!(g.dependency_cost(b, d), Some(0.3));
        assert!(g.remove_dependency(a, b).is_err());
    }

    #[test]
    fn set_dependency_cost_updates_both_directions() {
        let (mut g, [a, b, ..]) = diamond();
        g.set_dependency_cost(a, b, 9.0).unwrap();
        assert_eq!(g.dependency_cost(a, b), Some(9.0));
        assert_eq!(
            g.predecessors(b).iter().find(|e| e.task == a).unwrap().cost,
            9.0
        );
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.topological_order();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topological_order_breaks_ties_by_id() {
        let mut g = TaskGraph::new();
        let _a = g.add_task("a", 1.0);
        let _b = g.add_task("b", 1.0);
        let _c = g.add_task("c", 1.0);
        // all independent -> order must be by id
        assert_eq!(g.topological_order(), vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _, _, d]) = diamond();
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn reaches_is_transitive() {
        let (g, [a, b, _, d]) = diamond();
        assert!(g.reaches(a, d));
        assert!(g.reaches(b, d));
        assert!(!g.reaches(d, a));
        assert!(g.reaches(a, a));
    }

    #[test]
    fn chain_builder_matches_shape() {
        let g = TaskGraph::chain(&[1.0, 2.0, 3.0], &[0.5, 0.6]);
        assert_eq!(g.task_count(), 3);
        assert_eq!(g.dependency_count(), 2);
        assert_eq!(g.dependency_cost(TaskId(0), TaskId(1)), Some(0.5));
        assert_eq!(g.dependency_cost(TaskId(1), TaskId(2)), Some(0.6));
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(2)]);
    }

    #[test]
    fn mean_costs() {
        let (g, _) = diamond();
        assert!((g.mean_task_cost() - 2.5).abs() < 1e-12);
        assert!((g.mean_dependency_cost() - 0.25).abs() < 1e-12);
        assert_eq!(TaskGraph::new().mean_task_cost(), 0.0);
        assert_eq!(TaskGraph::new().mean_dependency_cost(), 0.0);
    }

    #[test]
    fn dependencies_iterator_yields_all_edges() {
        let (g, _) = diamond();
        let mut deps: Vec<_> = g.dependencies().collect();
        deps.sort_by_key(|a| (a.0, a.1));
        assert_eq!(deps.len(), 4);
        assert_eq!(deps[0], (TaskId(0), TaskId(1), 0.1));
    }
}
