//! # saga-lint
//!
//! A workspace-aware static-analysis pass enforcing the source-level
//! invariants every performance PR since the kernel rebuild rests on — the
//! ones `rustc`/`clippy` cannot see because they are *project* contracts,
//! not language contracts:
//!
//! 1. **determinism** (`nondet-collection`, `nondet-time`, `nondet-rng`,
//!    `nondet-env`) — result-producing crates stay bit-identical for any
//!    `RAYON_NUM_THREADS`, so they must not consult hash-order collections,
//!    wall clocks, RNG streams that aren't plumbed from configured seeds,
//!    or environment variables (a latched env toggle picks a code path per
//!    process, out of reach of the configuration and of same-process
//!    tests);
//! 2. **hot-path allocation** (`hot-alloc`) — the scheduling kernel, the
//!    incremental path, scheduler `run` entry points and the annealer inner
//!    loop stay allocation-free after warm-up;
//! 3. **error discipline** (`error-discipline`) — IO/checkpoint/parse
//!    library paths propagate `io::Error` instead of aborting mid-grid;
//! 4. **env-toggle registry** (`env-registry`) — every literal
//!    `env::var("NAME")` read is declared in ARCHITECTURE.md's registry
//!    table, and every declared toggle is actually read;
//! 5. **concurrency protocols** (`atomics-discipline`, `lock-discipline`,
//!    `unsafe-discipline`) — every atomic binding and its literal
//!    `Ordering::X` uses must match ARCHITECTURE.md's "Atomic protocol
//!    registry", every `Mutex` must be ranked in the "Lock-order registry"
//!    (nested acquisitions ascend in rank; `.lock().unwrap()` yields to
//!    the poison-recovery idiom), and every `unsafe` block/fn carries a
//!    SAFETY justification with `#[target_feature]` calls behind runtime
//!    gates. See `crate::concurrency`.
//!
//! Violations are silenced only by an inline
//! `// saga-lint: allow(<rule>) — <reason>` with a mandatory reason; a
//! valid suppression that silences nothing is itself a finding
//! (`suppression-unused`).
//! See ARCHITECTURE.md → "Machine-checked invariants" for the contract and
//! `cargo run -p saga-lint` for the CI gate.

#![warn(missing_docs)]

pub mod concurrency;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod scan;
pub mod workspace;

use config::Config;
use diag::{Finding, Report};
use rules::{EnvRead, FileKind};
use scan::{FileScan, Suppression};
use std::path::Path;

/// Lints the workspace rooted at `root` under `cfg`. IO errors (unreadable
/// files) surface as errors; lint findings land in the [`Report`].
pub fn lint_root(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut env_reads: Vec<EnvRead> = Vec::new();
    let mut suppressions_by_file: Vec<(String, Vec<Suppression>)> = Vec::new();
    let mut conc_by_file: Vec<(String, concurrency::ConcurrencyScan)> = Vec::new();

    for file in workspace::discover(root, &cfg.skip)? {
        let src = std::fs::read_to_string(&file.abs)?;
        let force_test = matches!(file.kind, FileKind::Test | FileKind::Bench);
        let scan = FileScan::new(&src, force_test);
        let outcome = rules::lint_file(&file.rel, file.kind, &scan, cfg);
        report.files_scanned += 1;
        report.suppressed += outcome.suppressed;
        report.findings.extend(outcome.findings);
        env_reads.extend(outcome.env_reads);
        suppressions_by_file.push((file.rel.clone(), outcome.suppressions));
        conc_by_file.push((file.rel.clone(), outcome.concurrency));
    }

    let doc = match std::fs::read_to_string(root.join(cfg.registry_doc)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    cross_check_registry(
        cfg,
        &doc,
        &env_reads,
        &mut suppressions_by_file,
        &mut report,
    );
    cross_check_concurrency(
        cfg,
        &doc,
        &conc_by_file,
        &mut suppressions_by_file,
        &mut report,
    );
    report_unused_suppressions(&suppressions_by_file, &mut report);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Marks + tests suppression of (`rule`, `line`) in `file`, bumping the
/// suppressed counter; the workspace-level cross-checks route their
/// findings through this so inline suppressions keep working for them.
fn suppress_or_push(
    suppressions_by_file: &mut [(String, Vec<Suppression>)],
    report: &mut Report,
    f: Finding,
) {
    let silenced = suppressions_by_file
        .iter_mut()
        .find(|(file, _)| file == &f.file)
        .is_some_and(|(_, sups)| rules::suppressed_at(sups, f.rule, f.line));
    if silenced {
        report.suppressed += 1;
    } else {
        report.findings.push(f);
    }
}

/// The env-registry cross-check, both directions.
fn cross_check_registry(
    cfg: &Config,
    doc: &str,
    env_reads: &[EnvRead],
    suppressions_by_file: &mut [(String, Vec<Suppression>)],
    report: &mut Report,
) {
    let reg = registry::parse(doc);
    if !reg.found {
        report.findings.push(Finding {
            file: cfg.registry_doc.to_string(),
            line: 1,
            col: 1,
            rule: "env-registry",
            message: "no `Env-toggle registry` table found — every runtime \
                      env read must be declared there"
                .to_string(),
        });
        return;
    }
    for read in env_reads {
        if reg.declares(&read.name) {
            continue;
        }
        suppress_or_push(
            suppressions_by_file,
            report,
            Finding {
                file: read.file.clone(),
                line: read.line,
                col: read.col,
                rule: "env-registry",
                message: format!(
                    "env read `{}` is not declared in {}'s env-toggle \
                     registry table",
                    read.name, cfg.registry_doc
                ),
            },
        );
    }
    for entry in &reg.entries {
        if !env_reads.iter().any(|r| r.name == entry.name) {
            report.findings.push(Finding {
                file: cfg.registry_doc.to_string(),
                line: entry.line,
                col: 1,
                rule: "env-registry",
                message: format!(
                    "registry declares `{}` but no source file reads it — \
                     remove the stale row or restore the toggle",
                    entry.name
                ),
            });
        }
    }
}

/// The concurrency cross-checks: atomic and lock declarations against the
/// ARCHITECTURE.md registry tables (both directions), literal ordering
/// uses against each atomic's declared protocol, and nested lock
/// acquisitions against the declared rank order.
fn cross_check_concurrency(
    cfg: &Config,
    doc: &str,
    conc_by_file: &[(String, concurrency::ConcurrencyScan)],
    suppressions_by_file: &mut [(String, Vec<Suppression>)],
    report: &mut Report,
) {
    let reg = registry::parse_concurrency(doc);
    let any_atomics = conc_by_file
        .iter()
        .any(|(_, c)| !c.atomic_decls.is_empty() || !c.atomic_uses.is_empty());
    let any_locks = conc_by_file.iter().any(|(_, c)| !c.lock_decls.is_empty());
    if any_atomics && !reg.atomics_found {
        report.findings.push(Finding {
            file: cfg.registry_doc.to_string(),
            line: 1,
            col: 1,
            rule: "atomics-discipline",
            message: "workspace declares atomics but no `Atomic protocol \
                      registry` table found — declare each atomic's \
                      protocol and allowed orderings there"
                .to_string(),
        });
    }
    if any_locks && !reg.locks_found {
        report.findings.push(Finding {
            file: cfg.registry_doc.to_string(),
            line: 1,
            col: 1,
            rule: "lock-discipline",
            message: "workspace declares mutexes but no `Lock-order \
                      registry` table found — declare each lock's \
                      acquisition rank there"
                .to_string(),
        });
    }

    for (file, c) in conc_by_file {
        if reg.atomics_found {
            for d in &c.atomic_decls {
                if reg.atomic(&d.name, file).is_none() {
                    suppress_or_push(
                        suppressions_by_file,
                        report,
                        Finding {
                            file: file.clone(),
                            line: d.line,
                            col: d.col,
                            rule: "atomics-discipline",
                            message: format!(
                                "atomic `{}` is not declared in {}'s atomic \
                                 protocol registry — add a row naming its \
                                 protocol and allowed `op(Ordering)` set",
                                d.name, cfg.registry_doc
                            ),
                        },
                    );
                }
            }
            for u in &c.atomic_uses {
                match reg.atomic(&u.receiver, file) {
                    None => suppress_or_push(
                        suppressions_by_file,
                        report,
                        Finding {
                            file: file.clone(),
                            line: u.line,
                            col: u.col,
                            rule: "atomics-discipline",
                            message: format!(
                                "`{}.{}(Ordering::{})` on an atomic with no \
                                 row in {}'s atomic protocol registry",
                                u.receiver, u.method, u.ordering, cfg.registry_doc
                            ),
                        },
                    ),
                    Some(row) => {
                        let allowed = row.ops.iter().any(|(m, ords)| {
                            m == &u.method && ords.iter().any(|o| o == &u.ordering)
                        });
                        if !allowed {
                            let declared: Vec<String> = row
                                .ops
                                .iter()
                                .map(|(m, o)| format!("{m}({})", o.join(", ")))
                                .collect();
                            suppress_or_push(
                                suppressions_by_file,
                                report,
                                Finding {
                                    file: file.clone(),
                                    line: u.line,
                                    col: u.col,
                                    rule: "atomics-discipline",
                                    message: format!(
                                        "`{}.{}(Ordering::{})` is outside \
                                         `{}`'s declared protocol (allowed: \
                                         {}) — fix the ordering or amend the \
                                         registry row with a justification",
                                        u.receiver,
                                        u.method,
                                        u.ordering,
                                        u.receiver,
                                        declared.join(", ")
                                    ),
                                },
                            );
                        }
                    }
                }
            }
        }
        if reg.locks_found {
            for d in &c.lock_decls {
                if reg.lock(&d.name, file).is_none() {
                    suppress_or_push(
                        suppressions_by_file,
                        report,
                        Finding {
                            file: file.clone(),
                            line: d.line,
                            col: d.col,
                            rule: "lock-discipline",
                            message: format!(
                                "mutex `{}` is not declared in {}'s \
                                 lock-order registry — add a ranked row",
                                d.name, cfg.registry_doc
                            ),
                        },
                    );
                }
            }
            for n in &c.nestings {
                if n.outer == n.inner {
                    suppress_or_push(
                        suppressions_by_file,
                        report,
                        Finding {
                            file: file.clone(),
                            line: n.line,
                            col: n.col,
                            rule: "lock-discipline",
                            message: format!(
                                "`{}` locked while a `{}` guard is already \
                                 held — self-deadlock",
                                n.inner, n.outer
                            ),
                        },
                    );
                    continue;
                }
                let (Some(outer), Some(inner)) =
                    (reg.lock(&n.outer, file), reg.lock(&n.inner, file))
                else {
                    continue; // undeclared participants already flagged above
                };
                if outer.rank >= inner.rank {
                    suppress_or_push(
                        suppressions_by_file,
                        report,
                        Finding {
                            file: file.clone(),
                            line: n.line,
                            col: n.col,
                            rule: "lock-discipline",
                            message: format!(
                                "lock-order inversion: `{}` (rank {}) acquired \
                                 while holding `{}` (rank {}) — declared \
                                 acquisition order is strictly ascending rank",
                                n.inner, inner.rank, n.outer, outer.rank
                            ),
                        },
                    );
                }
            }
        }
    }

    // registry → code: stale rows are findings at the table
    for row in &reg.atomics {
        let declared = conc_by_file
            .iter()
            .any(|(f, c)| f == &row.path && c.atomic_decls.iter().any(|d| d.name == row.name));
        if !declared {
            report.findings.push(Finding {
                file: cfg.registry_doc.to_string(),
                line: row.line,
                col: 1,
                rule: "atomics-discipline",
                message: format!(
                    "registry declares atomic `{}` in `{}` but no such \
                     declaration exists — remove the stale row",
                    row.name, row.path
                ),
            });
        }
    }
    for row in &reg.locks {
        let declared = conc_by_file
            .iter()
            .any(|(f, c)| f == &row.path && c.lock_decls.iter().any(|d| d.name == row.name));
        if !declared {
            report.findings.push(Finding {
                file: cfg.registry_doc.to_string(),
                line: row.line,
                col: 1,
                rule: "lock-discipline",
                message: format!(
                    "registry declares mutex `{}` in `{}` but no such \
                     declaration exists — remove the stale row",
                    row.name, row.path
                ),
            });
        }
    }
}

/// After every rule and cross-check has had its chance to consume a
/// suppression, any valid, reasoned, known-rule suppression that silenced
/// nothing is reported: dead suppressions mask real drift.
fn report_unused_suppressions(
    suppressions_by_file: &[(String, Vec<Suppression>)],
    report: &mut Report,
) {
    for (file, sups) in suppressions_by_file {
        for s in sups {
            let rules_known = s.rules.iter().all(|r| config::RULES.contains(&r.as_str()));
            if s.well_formed && s.has_reason && rules_known && !s.used {
                report.findings.push(Finding {
                    file: file.clone(),
                    line: s.line,
                    col: s.col,
                    rule: "suppression-unused",
                    message: format!(
                        "suppression allows `{}` but silenced no finding — \
                         remove it (or the code it excused has drifted)",
                        s.rules.join(", ")
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
