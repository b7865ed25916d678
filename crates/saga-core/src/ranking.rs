//! Task ranking utilities shared by list schedulers.
//!
//! These implement the standard HEFT/CPoP quantities: average execution time
//! over all nodes, average communication time over all (ordered, distinct)
//! node pairs, upward rank, downward rank, and the critical path they induce.

use crate::{later, Instance, TaskId};

/// Precomputed average costs for an instance.
///
/// `avg_exec[t] = c(t) * mean_v 1/s(v)` and each dependency's average
/// communication time is `c(t,t') * mean_{u != v} 1/s(u,v)`.
#[derive(Debug, Clone)]
pub struct AverageCosts {
    /// Average execution time per task, indexed by task id.
    pub exec: Vec<f64>,
    /// Multiplier converting a data size into an average communication time.
    pub inv_link: f64,
}

impl AverageCosts {
    /// Computes average costs for `inst`. Zero-cost tasks and zero-size
    /// dependencies average to zero time even when mean inverse rates are
    /// infinite (zero-speed networks) — `0 * inf` would otherwise be NaN and
    /// poison every rank comparison downstream.
    pub fn new(inst: &Instance) -> Self {
        let inv_speed = inst.network.mean_inverse_speed();
        AverageCosts {
            exec: inst
                .graph
                .tasks()
                .map(|t| {
                    let c = inst.graph.cost(t);
                    if c == 0.0 {
                        0.0
                    } else {
                        c * inv_speed
                    }
                })
                .collect(),
            inv_link: inst.network.mean_inverse_link(),
        }
    }

    /// Average communication time of a dependency carrying `bytes`.
    #[inline]
    pub fn comm(&self, bytes: f64) -> f64 {
        if bytes == 0.0 {
            0.0
        } else {
            bytes * self.inv_link
        }
    }
}

/// Upward rank of every task (HEFT's priority):
/// `rank_u(t) = avg_exec(t) + max_{s in succ(t)} (avg_comm(t,s) + rank_u(s))`.
pub fn upward_rank(inst: &Instance) -> Vec<f64> {
    let avg = AverageCosts::new(inst);
    upward_rank_with(inst, &avg)
}

/// [`upward_rank`] reusing precomputed [`AverageCosts`].
pub fn upward_rank_with(inst: &Instance, avg: &AverageCosts) -> Vec<f64> {
    let order = inst.graph.topological_order();
    let mut rank = vec![0.0f64; inst.graph.task_count()];
    for &t in order.iter().rev() {
        let mut best = 0.0f64;
        for e in inst.graph.successors(t) {
            best = later(best, avg.comm(e.cost) + rank[e.task.index()]);
        }
        rank[t.index()] = avg.exec[t.index()] + best;
    }
    rank
}

/// Downward rank of every task (CPoP's second component):
/// `rank_d(t) = max_{p in pred(t)} (rank_d(p) + avg_exec(p) + avg_comm(p,t))`,
/// zero for source tasks.
pub fn downward_rank(inst: &Instance) -> Vec<f64> {
    let avg = AverageCosts::new(inst);
    downward_rank_with(inst, &avg)
}

/// [`downward_rank`] reusing precomputed [`AverageCosts`].
pub fn downward_rank_with(inst: &Instance, avg: &AverageCosts) -> Vec<f64> {
    let order = inst.graph.topological_order();
    let mut rank = vec![0.0f64; inst.graph.task_count()];
    for &t in &order {
        for e in inst.graph.successors(t) {
            let via = rank[t.index()] + avg.exec[t.index()] + avg.comm(e.cost);
            let r = &mut rank[e.task.index()];
            *r = later(*r, via);
        }
    }
    rank
}

/// The critical path of the instance under average costs.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Length `|CP| = max_t rank_u(t) + rank_d(t)`.
    pub length: f64,
    /// One maximal chain achieving the length, in topological order.
    pub tasks: Vec<TaskId>,
    /// Membership mask over *all* tasks achieving the maximum (indexed by
    /// task id). This is the set CPoP pins to the fastest node: when several
    /// parallel branches tie for the critical length, CPoP serializes all of
    /// them (cf. the paper's Fig. 3e/3g, where every task lands on one node).
    pub on_path: Vec<bool>,
}

/// Extracts the critical path: all tasks whose `rank_u + rank_d` equals the
/// maximum (within a relative tolerance), plus one representative chain
/// walked from a critical source along critical successors.
pub fn critical_path(inst: &Instance) -> CriticalPath {
    let avg = AverageCosts::new(inst);
    let up = upward_rank_with(inst, &avg);
    let down = downward_rank_with(inst, &avg);
    let n = inst.graph.task_count();
    let mut length = 0.0f64;
    for i in 0..n {
        let l = up[i] + down[i];
        if l > length {
            length = l;
        }
    }
    let tol = 1e-9 * later(length.abs(), 1.0);
    let is_cp = |i: usize| {
        (up[i] + down[i] - length).abs() <= tol
            || (up[i] + down[i]).is_infinite() && length.is_infinite()
    };

    let mut on_path = vec![false; n];
    for (i, flag) in on_path.iter_mut().enumerate() {
        *flag = is_cp(i);
    }

    // Representative chain: start from a critical source, repeatedly follow
    // a critical successor.
    let mut tasks = Vec::new();
    let mut in_chain = vec![false; n];
    let start = inst.graph.sources().into_iter().find(|t| is_cp(t.index()));
    if let Some(mut cur) = start {
        tasks.push(cur);
        in_chain[cur.index()] = true;
        'walk: loop {
            for e in inst.graph.successors(cur) {
                if is_cp(e.task.index()) && !in_chain[e.task.index()] {
                    cur = e.task;
                    tasks.push(cur);
                    in_chain[cur.index()] = true;
                    continue 'walk;
                }
            }
            break;
        }
    }
    CriticalPath {
        length,
        tasks,
        on_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, TaskGraph};

    /// Chain a(1) -0.5-> b(2) -0.5-> c(3) on two unit-speed nodes, link 1.
    fn chain_instance() -> Instance {
        let g = TaskGraph::chain(&[1.0, 2.0, 3.0], &[0.5, 0.5]);
        Instance::new(Network::complete(&[1.0, 1.0], 1.0), g)
    }

    #[test]
    fn average_costs_on_homogeneous_network() {
        let inst = chain_instance();
        let avg = AverageCosts::new(&inst);
        assert_eq!(avg.exec, vec![1.0, 2.0, 3.0]);
        assert_eq!(avg.comm(0.5), 0.5);
    }

    #[test]
    fn upward_rank_of_chain_accumulates() {
        let inst = chain_instance();
        let up = upward_rank(&inst);
        // c: 3; b: 2 + 0.5 + 3 = 5.5; a: 1 + 0.5 + 5.5 = 7
        assert_eq!(up, vec![7.0, 5.5, 3.0]);
    }

    #[test]
    fn downward_rank_of_chain_accumulates() {
        let inst = chain_instance();
        let down = downward_rank(&inst);
        // a: 0; b: 0 + 1 + 0.5 = 1.5; c: 1.5 + 2 + 0.5 = 4
        assert_eq!(down, vec![0.0, 1.5, 4.0]);
    }

    #[test]
    fn critical_path_of_chain_is_whole_chain() {
        let inst = chain_instance();
        let cp = critical_path(&inst);
        assert_eq!(cp.length, 7.0);
        assert_eq!(cp.tasks, vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert!(cp.on_path.iter().all(|&b| b));
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        // a -> b (heavy), a -> c (light), b -> d, c -> d
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 10.0);
        let c = g.add_task("c", 1.0);
        let d = g.add_task("d", 1.0);
        g.add_dependency(a, b, 0.0).unwrap();
        g.add_dependency(a, c, 0.0).unwrap();
        g.add_dependency(b, d, 0.0).unwrap();
        g.add_dependency(c, d, 0.0).unwrap();
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let cp = critical_path(&inst);
        assert_eq!(cp.tasks, vec![a, b, d]);
        assert_eq!(cp.length, 12.0);
        assert!(!cp.on_path[c.index()]);
    }

    #[test]
    fn upward_plus_downward_is_constant_on_critical_path() {
        let inst = chain_instance();
        let up = upward_rank(&inst);
        let down = downward_rank(&inst);
        let cp = critical_path(&inst);
        for t in &cp.tasks {
            assert!((up[t.index()] + down[t.index()] - cp.length).abs() < 1e-9);
        }
    }

    #[test]
    fn heterogeneous_speeds_scale_ranks() {
        let g = TaskGraph::chain(&[2.0], &[]);
        let inst = Instance::new(Network::complete(&[1.0, 2.0], 1.0), g);
        let up = upward_rank(&inst);
        // mean inverse speed = (1 + 0.5)/2 = 0.75 -> avg exec = 1.5
        assert_eq!(up, vec![1.5]);
    }
}
