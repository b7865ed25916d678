//! # saga-core
//!
//! The related-machines task-graph scheduling model from *PISA: An
//! Adversarial Approach to Comparing Task Graph Scheduling Algorithms*
//! (Coleman & Krishnamachari): task graphs, complete networks, schedules and
//! their Section-II validity checker, the insertion-capable scheduling kernel,
//! HEFT-style ranking utilities, and the clipped-gaussian samplers the
//! paper's generators rely on.
//!
//! Everything downstream (`saga-schedulers`, `saga-datasets`, `saga-pisa`)
//! builds on this crate; it has no dependencies beyond `rand`, `serde` and
//! `serde_json`.

#![warn(missing_docs)]

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
mod time;

pub use error::{GraphError, NetworkError, ScheduleError};
pub use graph::{DepEdge, TaskGraph};
pub use ids::{NodeId, TaskId};
pub use incremental::{DirtyRegion, RunTrace};
pub use instance::Instance;
pub use kernel::{EvalPaths, SchedContext};
pub use network::Network;
pub use pool::{ContextPool, PooledContext};
pub use schedule::{Assignment, Schedule, TIME_EPS};
pub use seed::{derive_seed, fnv1a};
pub use time::{earlier, later};
