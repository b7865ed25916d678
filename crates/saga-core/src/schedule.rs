//! Schedules and the Section II validity checker.
//!
//! A schedule is the set of `(t, v, r)` triples of the paper; we additionally
//! store each task's finish time so that makespan and validation never need
//! to recompute execution times in hot loops.

use crate::{Instance, NodeId, ScheduleError, TaskId};

/// Relative/absolute tolerance used when comparing schedule times.
///
/// Schedulers compute times with floating point; validation must not reject a
/// schedule over a rounding ulp. Infinite times compare equal to themselves.
pub const TIME_EPS: f64 = 1e-9;

#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "a hand-built schedule (`from_assignments`) can hold any finish, NaN included: only the kernel's own times are NaN-free"
)]
fn le_with_tol(required: f64, actual: f64) -> bool {
    if required.is_infinite() {
        // data never arrives: only an infinite start satisfies the constraint
        return actual.is_infinite();
    }
    required <= actual + TIME_EPS * required.abs().max(1.0)
}

/// One scheduled task: the paper's `(t, v, r)` plus the finish time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The scheduled task.
    pub task: TaskId,
    /// The node it runs on.
    pub node: NodeId,
    /// Start time `r`.
    pub start: f64,
    /// Finish time `r + c(t)/s(v)`.
    pub finish: f64,
}

/// A complete schedule for an [`Instance`].
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per-task assignment, indexed by [`TaskId`].
    assignments: Vec<Assignment>,
    /// Per-node execution order (task ids sorted by start time).
    per_node: Vec<Vec<TaskId>>,
}

impl Schedule {
    /// Assembles a schedule from one assignment per task.
    ///
    /// # Panics
    /// Panics if assignments are not dense in task id (every task exactly
    /// once, ids `0..n`): schedulers construct these programmatically, so a
    /// hole is a bug, not an input error. [`Schedule::verify`] is the checker
    /// for *semantic* validity.
    pub fn from_assignments(node_count: usize, mut assignments: Vec<Assignment>) -> Self {
        assignments.sort_unstable_by_key(|a| a.task);
        for (i, a) in assignments.iter().enumerate() {
            assert_eq!(
                a.task.index(),
                i,
                "assignments must cover tasks 0..n exactly once"
            );
        }
        let mut per_node: Vec<Vec<TaskId>> = vec![Vec::new(); node_count];
        let mut order: Vec<usize> = (0..assignments.len()).collect();
        // Sort by (start, finish, id): a zero-duration task legally sharing
        // its start time with a longer slot must precede it, otherwise the
        // pairwise-overlap check would see `longer.finish > zero.start`.
        order.sort_by(|&x, &y| {
            assignments[x]
                .start
                .total_cmp(&assignments[y].start)
                .then(assignments[x].finish.total_cmp(&assignments[y].finish))
                .then(assignments[x].task.cmp(&assignments[y].task))
        });
        for i in order {
            let a = &assignments[i];
            per_node[a.node.index()].push(a.task);
        }
        Schedule {
            assignments,
            per_node,
        }
    }

    /// The assignment of a task.
    #[inline]
    pub fn assignment(&self, t: TaskId) -> &Assignment {
        &self.assignments[t.index()]
    }

    /// All assignments, indexed by task id.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Tasks executed on `v`, in start-time order.
    pub fn node_tasks(&self, v: NodeId) -> &[TaskId] {
        &self.per_node[v.index()]
    }

    /// Number of nodes the schedule was built for.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// The makespan `m(S) = max_t finish(t)`; `0` for an empty schedule.
    #[expect(
        clippy::disallowed_methods,
        reason = "a hand-built schedule (`from_assignments`) can hold any finish, NaN included: only the kernel's own times are NaN-free"
    )]
    pub fn makespan(&self) -> f64 {
        self.assignments
            .iter()
            .map(|a| a.finish)
            .fold(0.0, f64::max)
    }

    /// Checks every validity constraint of Section II against `inst`:
    ///
    /// 1. every task of the instance is scheduled exactly once (by
    ///    construction of this type, plus a count check against the graph);
    /// 2. recorded finish times equal `start + c(t)/s(v)`;
    /// 3. tasks on one node do not overlap;
    /// 4. for every dependency `(t, t')`,
    ///    `r + c(t)/s(v) + c(t,t')/s(v,v') <= r'`.
    ///
    /// Comparisons allow [`TIME_EPS`] of relative rounding, and `+inf` is a
    /// time like any other: a task on a zero-speed node, or one whose
    /// finite cost or start overflows, finishes at `+inf`, and the
    /// schedule's makespan is then `+inf`. Such a schedule is valid when
    /// every time that must follow an infinite one is infinite too: a
    /// task with an infinite expected finish must record an infinite
    /// finish, and the next task on its node, or a successor whose data
    /// arrives at `+inf`, must start at `+inf`. A NaN or negative start
    /// is always an error.
    #[expect(
        clippy::disallowed_methods,
        reason = "a hand-built schedule (`from_assignments`) can hold any finish, NaN included: only the kernel's own times are NaN-free"
    )]
    pub fn verify(&self, inst: &Instance) -> Result<(), ScheduleError> {
        let g = &inst.graph;
        let n = &inst.network;
        if self.assignments.len() != g.task_count() {
            let missing = TaskId(self.assignments.len() as u32);
            return Err(ScheduleError::MissingTask { task: missing });
        }
        for a in &self.assignments {
            if a.node.index() >= n.node_count() {
                return Err(ScheduleError::UnknownNode {
                    task: a.task,
                    node: a.node,
                });
            }
            if a.start.is_nan() || a.start < 0.0 {
                return Err(ScheduleError::InvalidStart {
                    task: a.task,
                    start: a.start,
                });
            }
            let expected = a.start + n.exec_time(g.cost(a.task), a.node);
            let ok = if expected.is_infinite() {
                a.finish.is_infinite()
            } else {
                (expected - a.finish).abs() <= TIME_EPS * expected.abs().max(1.0)
            };
            if !ok {
                return Err(ScheduleError::WrongFinishTime {
                    task: a.task,
                    expected,
                    actual: a.finish,
                });
            }
        }
        for (vi, tasks) in self.per_node.iter().enumerate() {
            for w in tasks.windows(2) {
                let first = self.assignment(w[0]);
                let second = self.assignment(w[1]);
                if !le_with_tol(first.finish, second.start) {
                    return Err(ScheduleError::Overlap {
                        node: NodeId(vi as u32),
                        first: w[0],
                        second: w[1],
                    });
                }
            }
        }
        for (from, to, bytes) in g.dependencies() {
            let fa = self.assignment(from);
            let ta = self.assignment(to);
            let required = fa.finish + n.comm_time(bytes, fa.node, ta.node);
            if !le_with_tol(required, ta.start) {
                return Err(ScheduleError::PrecedenceViolation {
                    from,
                    to,
                    required,
                    actual: ta.start,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, TaskGraph};

    /// The worked example of the paper's Fig. 1: 4 tasks, 3 nodes.
    fn fig1_instance() -> Instance {
        let mut g = TaskGraph::new();
        let t1 = g.add_task("t1", 1.7);
        let t2 = g.add_task("t2", 1.2);
        let t3 = g.add_task("t3", 2.2);
        let t4 = g.add_task("t4", 0.8);
        g.add_dependency(t1, t2, 0.6).unwrap();
        g.add_dependency(t1, t3, 0.5).unwrap();
        g.add_dependency(t2, t4, 1.3).unwrap();
        g.add_dependency(t3, t4, 1.6).unwrap();
        let mut n = Network::complete(&[1.0, 1.2, 1.5], 1.0);
        n.set_link(NodeId(0), NodeId(1), 0.5);
        n.set_link(NodeId(0), NodeId(2), 1.0);
        n.set_link(NodeId(1), NodeId(2), 1.2);
        Instance::new(n, g)
    }

    /// A hand-built valid schedule resembling the paper's Fig. 1c:
    /// t1, t3, t4 on v3; t2 on v2.
    fn fig1_schedule() -> Schedule {
        let exec = |c: f64, s: f64| c / s;
        let t1f = exec(1.7, 1.5);
        let t2s = t1f + 0.6 / 1.2; // t1 on v3 -> t2 on v2
        let t2f = t2s + exec(1.2, 1.2);
        let t3s = t1f;
        let t3f = t3s + exec(2.2, 1.5);
        let t4s = crate::later(t2f + 1.3 / 1.2, t3f);
        let t4f = t4s + exec(0.8, 1.5);
        Schedule::from_assignments(
            3,
            vec![
                Assignment {
                    task: TaskId(0),
                    node: NodeId(2),
                    start: 0.0,
                    finish: t1f,
                },
                Assignment {
                    task: TaskId(1),
                    node: NodeId(1),
                    start: t2s,
                    finish: t2f,
                },
                Assignment {
                    task: TaskId(2),
                    node: NodeId(2),
                    start: t3s,
                    finish: t3f,
                },
                Assignment {
                    task: TaskId(3),
                    node: NodeId(2),
                    start: t4s,
                    finish: t4f,
                },
            ],
        )
    }

    #[test]
    fn fig1_schedule_is_valid() {
        let inst = fig1_instance();
        let s = fig1_schedule();
        s.verify(&inst).unwrap();
        assert!(s.makespan() > 0.0);
        assert_eq!(s.node_tasks(NodeId(2)), &[TaskId(0), TaskId(2), TaskId(3)]);
        assert_eq!(s.node_tasks(NodeId(1)), &[TaskId(1)]);
        assert!(s.node_tasks(NodeId(0)).is_empty());
    }

    #[test]
    fn verify_rejects_precedence_violation() {
        let inst = fig1_instance();
        let mut s = fig1_schedule();
        // pull t4's start before its data arrives
        s.assignments[3].start = 0.0;
        s.assignments[3].finish = 0.8 / 1.5;
        // rebuild per-node ordering
        let s = Schedule::from_assignments(3, s.assignments);
        match s.verify(&inst) {
            Err(ScheduleError::Overlap { .. }) | Err(ScheduleError::PrecedenceViolation { .. }) => {
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_overlap() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let s = Schedule::from_assignments(
            1,
            vec![
                Assignment {
                    task: TaskId(0),
                    node: NodeId(0),
                    start: 0.0,
                    finish: 1.0,
                },
                Assignment {
                    task: TaskId(1),
                    node: NodeId(0),
                    start: 0.5,
                    finish: 1.5,
                },
            ],
        );
        assert!(matches!(
            s.verify(&inst),
            Err(ScheduleError::Overlap { .. })
        ));
    }

    #[test]
    fn verify_rejects_wrong_finish_time() {
        let mut g = TaskGraph::new();
        g.add_task("a", 2.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let s = Schedule::from_assignments(
            1,
            vec![Assignment {
                task: TaskId(0),
                node: NodeId(0),
                start: 0.0,
                finish: 1.0,
            }],
        );
        assert!(matches!(
            s.verify(&inst),
            Err(ScheduleError::WrongFinishTime { .. })
        ));
    }

    #[test]
    fn verify_rejects_missing_task() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        g.add_task("b", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let s = Schedule::from_assignments(
            1,
            vec![Assignment {
                task: TaskId(0),
                node: NodeId(0),
                start: 0.0,
                finish: 1.0,
            }],
        );
        assert!(matches!(
            s.verify(&inst),
            Err(ScheduleError::MissingTask { .. })
        ));
    }

    #[test]
    fn verify_rejects_unknown_node_and_negative_start() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let s = Schedule::from_assignments(
            2,
            vec![Assignment {
                task: TaskId(0),
                node: NodeId(1),
                start: 0.0,
                finish: 1.0,
            }],
        );
        assert!(matches!(
            s.verify(&inst),
            Err(ScheduleError::UnknownNode { .. })
        ));
        let s = Schedule::from_assignments(
            1,
            vec![Assignment {
                task: TaskId(0),
                node: NodeId(0),
                start: -1.0,
                finish: 0.0,
            }],
        );
        assert!(matches!(
            s.verify(&inst),
            Err(ScheduleError::InvalidStart { .. })
        ));
    }

    #[test]
    fn makespan_is_max_finish() {
        let s = fig1_schedule();
        let expect = s
            .assignments()
            .iter()
            .map(|a| a.finish)
            .fold(0.0, crate::later);
        assert_eq!(s.makespan(), expect);
    }

    #[test]
    fn zero_duration_task_at_slot_boundary_is_valid() {
        // regression: a zero-cost task inserted exactly at another slot's
        // start used to be ordered after it (by task id), tripping the
        // overlap check
        let mut g = TaskGraph::new();
        let long = g.add_task("long", 1.0);
        let zero = g.add_task("zero", 0.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        let s = Schedule::from_assignments(
            1,
            vec![
                Assignment {
                    task: long,
                    node: NodeId(0),
                    start: 2.0,
                    finish: 3.0,
                },
                Assignment {
                    task: zero,
                    node: NodeId(0),
                    start: 2.0,
                    finish: 2.0,
                },
            ],
        );
        s.verify(&inst).unwrap();
        assert_eq!(s.node_tasks(NodeId(0)), &[zero, long]);
    }

    #[test]
    fn infinite_times_validate_consistently() {
        // zero-speed node: execution never finishes, but the schedule is
        // still internally consistent (finish = start + inf).
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_dependency(a, b, 1.0).unwrap();
        let inst = Instance::new(Network::complete(&[0.0], 1.0), g);
        let s = Schedule::from_assignments(
            1,
            vec![
                Assignment {
                    task: a,
                    node: NodeId(0),
                    start: 0.0,
                    finish: f64::INFINITY,
                },
                Assignment {
                    task: b,
                    node: NodeId(0),
                    start: f64::INFINITY,
                    finish: f64::INFINITY,
                },
            ],
        );
        s.verify(&inst).unwrap();
        assert!(s.makespan().is_infinite());
    }
}
