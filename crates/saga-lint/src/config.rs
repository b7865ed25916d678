//! The lint configuration: which rules apply where.
//!
//! Config is code, not a parsed file — the deny lists change only when the
//! architecture changes, reviewers diff them like any other source, and the
//! linter needs no config-format parser of its own. Paths are
//! workspace-relative and `/`-separated.

/// A hot-path deny-list entry: a file (or directory) where allocation is
/// forbidden, optionally narrowed to specific functions.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Workspace-relative path fragment (`crates/saga-core/src/kernel.rs`
    /// or a directory prefix ending in `/`).
    pub path: &'static str,
    /// `None` = the whole file; `Some` = only inside these functions.
    pub fns: Option<&'static [&'static str]>,
}

impl HotPath {
    /// Does the entry cover `rel` (workspace-relative, `/`-separated)? A
    /// directory entry (trailing `/`) covers by prefix, a file entry by
    /// equality.
    pub fn covers(&self, rel: &str) -> bool {
        rel == self.path || (self.path.ends_with('/') && rel.starts_with(self.path))
    }
}

/// Full rule configuration for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The hot-path allocation deny list (`hot-alloc`).
    pub hot_paths: Vec<HotPath>,
    /// Path fragments never scanned (fixture corpora, build output).
    pub skip: Vec<&'static str>,
}

impl Config {
    /// The shipped workspace configuration — the rule set ARCHITECTURE.md's
    /// "Machine-checked invariants" section documents.
    pub fn workspace() -> Self {
        Config {
            hot_paths: vec![
                // the kernel and the incremental path must stay
                // allocation-free everywhere outside warm-up
                HotPath {
                    path: "crates/saga-core/src/kernel.rs",
                    fns: None,
                },
                HotPath {
                    path: "crates/saga-core/src/incremental.rs",
                    fns: None,
                },
                // every scheduler's kernel entry points (the blanket impl
                // derives schedule_into/makespan_into from these)
                HotPath {
                    path: "crates/saga-schedulers/src/",
                    fns: Some(&["run", "run_recorded"]),
                },
                // the shared node-selection helpers those entry points
                // call, and the per-run scratch they use (`ReadyRow` and
                // `FrontierSweep` `new` and `release`)
                HotPath {
                    path: "crates/saga-schedulers/src/util.rs",
                    fns: Some(&[
                        "best_eft_node",
                        "new",
                        "release",
                        "first_idle_node",
                        "start",
                        "best_node",
                        "note_placed",
                    ]),
                },
                // the annealer inner loop (one iteration = perturb +
                // two scheduler runs; a stray allocation here multiplies
                // by i_max × restarts × cells)
                HotPath {
                    path: "crates/saga-pisa/src/annealer.rs",
                    fns: Some(&["run_annealing", "accept"]),
                },
            ],
            skip: vec!["crates/saga-lint/tests/fixtures/", "/target/"],
        }
    }

    /// The hot-path entries applying to `rel` (possibly several: a
    /// directory-wide entry plus a per-file one).
    pub fn hot_entries<'a>(&'a self, rel: &str) -> Vec<&'a HotPath> {
        self.hot_paths.iter().filter(|h| h.covers(rel)).collect()
    }
}

/// All rule names, for suppression validation and docs.
pub const RULES: &[&str] = &["hot-alloc", "workspace-lints"];

/// The result-producing crates' `clippy.toml` files, relative to the
/// workspace root: each must list every [`DETERMINISM_BANS`] pair
/// (`workspace-lints`).
pub const CLIPPY_TOMLS: &[&str] = &[
    "crates/saga-core/clippy.toml",
    "crates/saga-schedulers/clippy.toml",
    "crates/saga-pisa/clippy.toml",
    "crates/saga-experiments/clippy.toml",
];

/// The files whose library code never unwraps, expects or panics: each
/// must hold [`ERROR_DENY`] as a line of its own (`workspace-lints`).
/// `saga-experiments/src/lib.rs` is a crate root, so its line covers
/// the whole library.
pub const ERROR_SCOPE: &[&str] = &[
    "crates/saga-core/src/instance.rs",
    "crates/saga-pisa/src/library.rs",
    "crates/saga-experiments/src/engine.rs",
    "crates/saga-experiments/src/checkpoint.rs",
    "crates/saga-experiments/src/lib.rs",
];

/// The line each of [`ERROR_SCOPE`] must hold.
pub const ERROR_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

/// The `(clippy.toml key, path)` pairs each of [`CLIPPY_TOMLS`] must
/// list: hash-order collections, wall clocks and environment reads stay
/// out of result-producing code.
pub const DETERMINISM_BANS: &[(&str, &str)] = &[
    ("disallowed-types", "std::collections::HashMap"),
    ("disallowed-types", "std::collections::HashSet"),
    ("disallowed-methods", "std::time::Instant::now"),
    ("disallowed-methods", "std::time::SystemTime::now"),
    ("disallowed-methods", "std::env::var"),
    ("disallowed-methods", "std::env::var_os"),
];
