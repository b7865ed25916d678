//! # saga-lint
//!
//! A workspace-aware static-analysis pass for the source-level invariants
//! that `rustc` and `clippy` cannot check, because they are *project*
//! contracts, not language contracts:
//!
//! 1. **hot-path allocation** (`hot-alloc`) — the scheduling kernel, the
//!    incremental path, scheduler `run` entry points and the annealer inner
//!    loop stay allocation-free after warm-up, and every function a
//!    hot-path entry names is defined in the files it covers;
//! 2. **workspace lints** (`workspace-lints`) — the root `Cargo.toml`
//!    forbids unsafe code in its `[workspace.lints.rust]` table, the root
//!    package and every member inherit it with `[lints] workspace = true`,
//!    its `[workspace.lints.clippy]` table refuses `#[allow]`, each
//!    result-producing crate's `clippy.toml` bans hash-order collections,
//!    wall clocks and environment reads, and each error-handling file
//!    keeps its `#![deny]` line, so deleting a file or a line cannot lift
//!    a ban unseen. See `crate::manifests`.
//!
//! The determinism and error-handling bans themselves are clippy's: each
//! result-producing crate's `clippy.toml` lists the disallowed types and
//! methods, and the error-handling files deny `clippy::unwrap_used`,
//! `expect_used` and `panic`.
//!
//! Violations are silenced only by an inline
//! `// saga-lint: allow(<rule>) — <reason>` with a mandatory reason; a
//! valid suppression that silences nothing is itself a finding
//! (`suppression-unused`).
//! See ARCHITECTURE.md → "Machine-checked invariants" for the contract and
//! `cargo run -p saga-lint` for the CI gate.

#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod lexer;
pub mod manifests;
pub mod rules;
pub mod scan;
pub mod workspace;

use config::Config;
use diag::{Finding, Report};
use scan::FileScan;
use std::path::Path;

/// Lints the workspace rooted at `root` under `cfg`. IO errors (unreadable
/// files) surface as errors; lint findings land in the [`Report`].
pub fn lint_root(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    // per hot-path entry, the names of its `fns` some covered file defines
    // (`None` while the entry has covered no file)
    let mut hot_defined: Vec<Option<Vec<&str>>> = vec![None; cfg.hot_paths.len()];

    for file in workspace::discover(root, &cfg.skip)? {
        let src = std::fs::read_to_string(&file.abs)?;
        let scan = FileScan::new(&src);
        for (h, defined) in cfg.hot_paths.iter().zip(&mut hot_defined) {
            if h.covers(&file.rel) {
                let fns = h.fns.unwrap_or_default().iter();
                let live = fns.filter(|f| scan.fn_names.iter().any(|n| n == *f));
                defined.get_or_insert_with(Vec::new).extend(live);
            }
        }
        let outcome = rules::lint_file(&file.rel, &scan, cfg);
        report.files_scanned += 1;
        report.suppressed += outcome.suppressed;
        report.findings.extend(outcome.findings);
    }

    report_stale_hot_fns(cfg, &hot_defined, &mut report);
    report
        .findings
        .extend(manifests::check(root, &workspace::members(root)?)?);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Hot-path entries → code: a `fns` name that none of the entry's
/// covered files defines guards nothing (the function was renamed or
/// moved), so it is a finding at the entry's path. An entry that covers
/// no scanned file is not judged.
fn report_stale_hot_fns(cfg: &Config, hot_defined: &[Option<Vec<&str>>], report: &mut Report) {
    for (h, defined) in cfg.hot_paths.iter().zip(hot_defined) {
        let Some(defined) = defined else { continue };
        for name in h.fns.unwrap_or_default() {
            if !defined.contains(name) {
                report.findings.push(Finding {
                    file: h.path.to_string(),
                    line: 1,
                    col: 1,
                    rule: "hot-alloc",
                    message: format!(
                        "saga-lint's hot-path entry for `{}` names `{name}`, \
                         but no function of that name is defined there — \
                         remove the stale name or follow the rename",
                        h.path
                    ),
                });
            }
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
