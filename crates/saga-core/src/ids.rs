//! Strongly-typed indices for tasks and compute nodes.
//!
//! Both wrap a `u32`: the paper's instances range from a handful of tasks to a
//! few thousand, so 32 bits is ample and keeps hot arrays of ids compact
//! (see the type-size guidance in the Rust Performance Book).

use std::fmt;

/// Identifier of a task in a [`crate::TaskGraph`].
///
/// Ids are dense: the `k`-th added task has id `k`, so they double as vector
/// indices via [`TaskId::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Identifier of a compute node in a [`crate::Network`].
///
/// Dense, like [`TaskId`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl TaskId {
    /// The id as a `usize` index into task-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The id as a `usize` index into node-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_round_trips_through_index() {
        let t = TaskId(7);
        assert_eq!(t.index(), 7);
        assert_eq!(TaskId::from(7u32), t);
    }

    #[test]
    fn node_id_round_trips_through_index() {
        let v = NodeId(3);
        assert_eq!(v.index(), 3);
        assert_eq!(NodeId::from(3u32), v);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(TaskId(1).to_string(), "t1");
        assert_eq!(NodeId(2).to_string(), "v2");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(TaskId(1) < TaskId(2));
        assert!(NodeId(0) < NodeId(9));
    }
}
