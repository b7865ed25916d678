//! The lint configuration: which rules apply where.
//!
//! Config is code, not a parsed file — the deny lists change only when the
//! architecture changes, reviewers diff them like any other source, and the
//! linter needs no config-format parser of its own. Paths are matched as
//! `/`-separated suffix-or-prefix substrings of the workspace-relative path.

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

/// Full rule configuration for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates/files whose outputs are result-producing: determinism rules
    /// (`nondet-collection`, `nondet-time`, `nondet-rng`, `nondet-env`)
    /// apply here.
    pub result_producing: Vec<&'static str>,
    /// The hot-path allocation deny list (`hot-alloc`).
    pub hot_paths: Vec<HotPath>,
    /// IO/checkpoint/parse-path files where `unwrap`/`expect`/`panic!` are
    /// forbidden in library code (`error-discipline`).
    pub error_paths: Vec<&'static str>,
    /// Markdown file holding the env-toggle registry table
    /// (`env-registry`), relative to the workspace root. The same file
    /// holds the concurrency tables (`atomics-discipline`,
    /// `lock-discipline`).
    pub registry_doc: &'static str,
    /// Path fragments never scanned (fixture corpora, build output).
    pub skip: Vec<&'static str>,
}

impl Config {
    /// The shipped workspace configuration — the rule set ARCHITECTURE.md's
    /// "Machine-checked invariants" section documents.
    pub fn workspace() -> Self {
        Config {
            result_producing: vec![
                "crates/saga-core/src/",
                "crates/saga-schedulers/src/",
                "crates/saga-pisa/src/",
                "crates/saga-experiments/src/engine.rs",
                "crates/saga-experiments/src/checkpoint.rs",
                "crates/saga-experiments/src/grids.rs",
            ],
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
                // the shared EFT/insertion helpers those entry points call,
                // including the fused row-kernel sweeps, their scalar
                // formulations, and the per-run row scratch they share
                // (`NodeRows`/`FrontierSweep` `new` and `release`)
                HotPath {
                    path: "crates/saga-schedulers/src/util.rs",
                    fns: Some(&[
                        "best_eft_node",
                        "best_eft_node_scalar",
                        "new",
                        "release",
                        "first_idle_node",
                        "start",
                        "fused_rows",
                        "fused_rows_profitable",
                        "best_node",
                        "best_node_est",
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
            error_paths: vec![
                "crates/saga-experiments/src/engine.rs",
                "crates/saga-experiments/src/checkpoint.rs",
                "crates/saga-experiments/src/lib.rs",
                "crates/saga-core/src/instance.rs",
                "crates/saga-pisa/src/library.rs",
            ],
            registry_doc: "ARCHITECTURE.md",
            skip: vec!["crates/saga-lint/tests/fixtures/", "/target/"],
        }
    }

    /// Does `rel` (workspace-relative, `/`-separated) match any entry in
    /// `list`? Directory entries (trailing `/`) match by prefix, file
    /// entries by equality.
    pub fn matches(list: &[&str], rel: &str) -> bool {
        list.iter()
            .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
    }

    /// The hot-path entries applying to `rel` (possibly several: a
    /// directory-wide entry plus a per-file one).
    pub fn hot_entries<'a>(&'a self, rel: &str) -> Vec<&'a HotPath> {
        self.hot_paths
            .iter()
            .filter(|h| Self::matches(&[h.path], rel))
            .collect()
    }
}

/// All rule names, for suppression validation and docs.
pub const RULES: &[&str] = &[
    "nondet-collection",
    "nondet-time",
    "nondet-rng",
    "nondet-env",
    "hot-alloc",
    "error-discipline",
    "env-registry",
    "atomics-discipline",
    "lock-discipline",
    "workspace-lints",
];
