//! # SAGA-rs: scheduling algorithms gathered, in Rust
//!
//! A Rust reproduction of the system behind *PISA: An Adversarial Approach to
//! Comparing Task Graph Scheduling Algorithms* (Coleman & Krishnamachari,
//! IPPS 2025). This meta-crate re-exports the whole workspace:
//!
//! * [`core`] — the related-machines scheduling model: task graphs, networks,
//!   schedules, validation, ranking utilities.
//! * [`schedulers`] — the 17 scheduling algorithms of the paper's Table I.
//! * [`datasets`] — the 16 dataset generators of the paper's Table II.
//! * [`pisa`] — the simulated-annealing adversarial instance finder.
//!
//! ## Quickstart
//!
//! ```
//! use saga::core::{Instance, Network, TaskGraph};
//! use saga::schedulers::{Heft, Scheduler};
//!
//! let mut g = TaskGraph::new();
//! let a = g.add_task("A", 1.0);
//! let b = g.add_task("B", 2.0);
//! g.add_dependency(a, b, 0.5).unwrap();
//! let n = Network::complete(&[1.0, 2.0], 1.0);
//! let inst = Instance::new(n, g);
//! let sched = Heft::default().schedule(&inst);
//! assert!(sched.verify(&inst).is_ok());
//! ```

pub use saga_core as core;
pub use saga_datasets as datasets;
pub use saga_pisa as pisa;
pub use saga_schedulers as schedulers;
