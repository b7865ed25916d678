//! # saga-core
//!
//! The related-machines task-graph scheduling model from *PISA: An
//! Adversarial Approach to Comparing Task Graph Scheduling Algorithms*
//! (Coleman & Krishnamachari): task graphs, complete networks, schedules and
//! their Section-II validity checker, an insertion-capable schedule builder,
//! HEFT-style ranking utilities, and the clipped-gaussian samplers the
//! paper's generators rely on.
//!
//! Everything downstream (`saga-schedulers`, `saga-datasets`, `saga-pisa`)
//! builds on this crate; it has no dependencies beyond `rand` and `serde`.

#![warn(missing_docs)]

mod builder;
pub mod dist;
mod error;
pub mod gantt;
mod graph;
mod ids;
pub mod incremental;
mod instance;
mod kernel;
pub mod metrics;
mod network;
mod pool;
pub mod ranking;
mod schedule;
mod seed;
pub mod stochastic;

pub use builder::ScheduleBuilder;
pub use error::{GraphError, ScheduleError};
pub use graph::{DepEdge, TaskGraph};
pub use ids::{NodeId, TaskId};
pub use incremental::{DirtyRegion, RunTrace};
pub use instance::Instance;
pub use kernel::{
    argmin_finish, argmin_start_finish, compose_append_rows, compose_append_rows_from, EvalPaths,
    SchedContext,
};
pub use network::Network;
pub use pool::{ContextPool, PooledContext};
pub use schedule::{Assignment, Schedule, TIME_EPS};
pub use seed::{derive_seed, fnv1a};
