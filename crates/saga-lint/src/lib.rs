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
//!    loop stay allocation-free after warm-up, and every function a
//!    hot-path entry names is defined in the files it covers;
//! 3. **error discipline** (`error-discipline`) — IO/checkpoint/parse
//!    library paths propagate `io::Error` instead of aborting mid-grid;
//! 4. **env-toggle registry** (`env-registry`) — every literal
//!    `env::var("NAME")` read is declared in ARCHITECTURE.md's registry
//!    table, and every declared toggle is actually read;
//! 5. **concurrency protocols** (`atomics-discipline`, `lock-discipline`)
//!    — every atomic binding and its literal `Ordering::X` uses must match
//!    ARCHITECTURE.md's "Atomic protocol registry", and every `Mutex` must
//!    be ranked in the "Lock-order registry" (nested acquisitions ascend in
//!    rank; `.lock().unwrap()` yields to the poison-recovery idiom). See
//!    `crate::concurrency`;
//! 6. **workspace lints** (`workspace-lints`) — the root `Cargo.toml`
//!    forbids unsafe code in its `[workspace.lints.rust]` table, and the
//!    root package and every member inherit it with `[lints] workspace =
//!    true`, so rustc holds the ban for every target. See
//!    `crate::manifests`.
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
pub mod manifests;
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
    // per hot-path entry, the names of its `fns` some covered file defines
    // (`None` while the entry has covered no file)
    let mut hot_defined: Vec<Option<Vec<&str>>> = vec![None; cfg.hot_paths.len()];

    for file in workspace::discover(root, &cfg.skip)? {
        let src = std::fs::read_to_string(&file.abs)?;
        let force_test = file.kind == FileKind::Test;
        let scan = FileScan::new(&src, force_test);
        for (h, defined) in cfg.hot_paths.iter().zip(&mut hot_defined) {
            if Config::matches(&[h.path], &file.rel) {
                let fns = h.fns.unwrap_or_default().iter();
                let live = fns.filter(|f| scan.fn_names.iter().any(|n| n == *f));
                defined.get_or_insert_with(Vec::new).extend(live);
            }
        }
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
    report_stale_hot_fns(cfg, &hot_defined, &mut report);
    report
        .findings
        .extend(manifests::check(root, &workspace::members(root)?)?);

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
    let atomic_rows = reg.atomics.iter().map(|r| (&r.name, &r.path, r.line, true));
    let lock_rows = reg.locks.iter().map(|r| (&r.name, &r.path, r.line, false));
    for (name, path, line, atomic) in atomic_rows.chain(lock_rows) {
        let declared = conc_by_file.iter().any(|(f, c)| {
            let decls = if atomic {
                &c.atomic_decls
            } else {
                &c.lock_decls
            };
            f == path && decls.iter().any(|d| &d.name == name)
        });
        if !declared {
            let (rule, what) = if atomic {
                ("atomics-discipline", "atomic")
            } else {
                ("lock-discipline", "mutex")
            };
            report.findings.push(Finding {
                file: cfg.registry_doc.to_string(),
                line,
                col: 1,
                rule,
                message: format!(
                    "registry declares {what} `{name}` in `{path}` but no such \
                     declaration exists — remove the stale row"
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

/// Hot-path entries → code: a `fns` name that none of the entry's
/// covered files defines guards nothing (the function was renamed or
/// moved), so it is a finding at the entry's path, the way a stale
/// env-registry row is. An entry that covers no scanned file is not
/// judged.
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
