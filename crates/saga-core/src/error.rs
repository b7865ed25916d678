//! Error types for graph mutation, network construction and schedule
//! validation.

use crate::{NodeId, TaskId};
use std::fmt;

/// Errors raised when mutating a [`crate::TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum GraphError {
    /// Adding the dependency would create a directed cycle.
    CycleWouldForm { from: TaskId, to: TaskId },
    /// The dependency already exists.
    DuplicateDependency { from: TaskId, to: TaskId },
    /// A self-loop `t -> t` was requested.
    SelfLoop { task: TaskId },
    /// The referenced dependency does not exist.
    NoSuchDependency { from: TaskId, to: TaskId },
    /// The referenced task does not exist.
    NoSuchTask { task: TaskId },
    /// A task or dependency cost must be non-negative and not NaN.
    InvalidCost { value: f64 },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::CycleWouldForm { from, to } => {
                write!(f, "adding dependency {from} -> {to} would create a cycle")
            }
            GraphError::DuplicateDependency { from, to } => {
                write!(f, "dependency {from} -> {to} already exists")
            }
            GraphError::SelfLoop { task } => write!(f, "self dependency on {task}"),
            GraphError::NoSuchDependency { from, to } => {
                write!(f, "no dependency {from} -> {to}")
            }
            GraphError::NoSuchTask { task } => write!(f, "no task {task}"),
            GraphError::InvalidCost { value } => {
                write!(f, "cost {value} is invalid (must be finite and >= 0)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Why speeds and a link matrix cannot form a [`crate::Network`]
/// ([`crate::Network::try_from_matrix`]).
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum NetworkError {
    /// The matrix does not hold `nodes * nodes` entries.
    WrongSize { nodes: usize, entries: usize },
    /// Entry `(row, col)` differs from entry `(col, row)`.
    Asymmetric { row: usize, col: usize },
    /// A speed or link strength is negative or NaN.
    InvalidWeight { value: f64 },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::WrongSize { nodes, entries } => write!(
                f,
                "link matrix must be n*n ({nodes} node(s), {entries} entries)"
            ),
            NetworkError::Asymmetric { row, col } => write!(
                f,
                "link matrix must be symmetric (entry ({row}, {col}) differs from ({col}, {row}))"
            ),
            NetworkError::InvalidWeight { value } => write!(
                f,
                "network weight {value} is invalid (speeds and links must be >= 0)"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Violations detected by [`crate::Schedule::verify`].
///
/// These mirror the validity constraints of the paper's Section II: every task
/// scheduled exactly once, no two tasks overlapping on a node, and every task
/// starting only after all its dependencies have finished *and* their outputs
/// have arrived at the task's node.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ScheduleError {
    /// A task from the instance was never scheduled.
    MissingTask { task: TaskId },
    /// A task references a node outside the network.
    UnknownNode { task: TaskId, node: NodeId },
    /// A task's recorded finish differs from `start + exec_time`.
    WrongFinishTime {
        task: TaskId,
        expected: f64,
        actual: f64,
    },
    /// Two tasks overlap in time on the same node.
    Overlap {
        node: NodeId,
        first: TaskId,
        second: TaskId,
    },
    /// A precedence (+ communication) constraint is violated.
    PrecedenceViolation {
        from: TaskId,
        to: TaskId,
        required: f64,
        actual: f64,
    },
    /// A start time is negative or NaN.
    InvalidStart { task: TaskId, start: f64 },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::MissingTask { task } => write!(f, "task {task} was not scheduled"),
            ScheduleError::UnknownNode { task, node } => {
                write!(f, "task {task} scheduled on unknown node {node}")
            }
            ScheduleError::WrongFinishTime {
                task,
                expected,
                actual,
            } => write!(
                f,
                "task {task} finish time {actual} != start + exec = {expected}"
            ),
            ScheduleError::Overlap {
                node,
                first,
                second,
            } => write!(f, "tasks {first} and {second} overlap on node {node}"),
            ScheduleError::PrecedenceViolation {
                from,
                to,
                required,
                actual,
            } => write!(
                f,
                "task {to} starts at {actual} before data from {from} arrives at {required}"
            ),
            ScheduleError::InvalidStart { task, start } => {
                write!(f, "task {task} has invalid start time {start}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_error_messages_are_informative() {
        let e = GraphError::CycleWouldForm {
            from: TaskId(0),
            to: TaskId(1),
        };
        assert!(e.to_string().contains("cycle"));
        assert!(GraphError::InvalidCost { value: -1.0 }
            .to_string()
            .contains("-1"));
    }

    #[test]
    fn schedule_error_messages_name_the_tasks() {
        let e = ScheduleError::PrecedenceViolation {
            from: TaskId(0),
            to: TaskId(1),
            required: 2.0,
            actual: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("t0") && s.contains("t1"));
    }
}
