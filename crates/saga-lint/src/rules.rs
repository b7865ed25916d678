//! The rule set: token-sequence matchers over a [`FileScan`], scoped by the
//! [`Config`], with inline-suppression filtering.
//!
//! Four families, matching ARCHITECTURE.md's "Machine-checked invariants":
//!
//! * **`nondet-collection` / `nondet-time` / `nondet-rng` / `nondet-env`**
//!   — determinism: result-producing code must not consult hash-order
//!   collections, wall clocks, RNGs whose seed is not plumbed from a
//!   config/`derive_seed` stream, or environment variables.
//! * **`hot-alloc`** — deny-listed hot paths (the kernel, the incremental
//!   path, scheduler `run` entry points, the annealer inner loop) must not
//!   allocate: `Vec::new`, `vec!`, `.to_vec()`, `.collect()`, `.clone()`,
//!   `Box::new`, `format!`.
//! * **`error-discipline`** — IO/checkpoint/parse-path library code must
//!   propagate errors, not `unwrap()`/`expect()`/`panic!`.
//! * **`env-registry`** — every literal `env::var("NAME")` read must be
//!   declared in the registry table (cross-checked in `lib.rs`).
//!
//! A finding is silenced by `// saga-lint: allow(<rule>) — <reason>` on the
//! same line or the line directly above; the reason is mandatory and
//! malformed suppressions are findings themselves (`suppression-*`).

use crate::concurrency::{self, ConcurrencyScan};
use crate::config::{Config, RULES};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::{FileScan, Suppression};

/// How a scanned file participates in the rule scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source in a workspace crate (or the root `src/`).
    Lib,
    /// A binary (`src/bin/*.rs`, `src/main.rs`, `examples/*.rs`).
    Bin,
    /// An integration-test file (any `tests/` directory).
    Test,
    /// Vendored dependency source (`vendor/*`).
    Vendor,
}

/// A literal environment read found in source, for the registry
/// cross-check.
#[derive(Debug, Clone)]
pub struct EnvRead {
    /// The variable name read.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based position of the `var`/`var_os` call.
    pub line: u32,
    /// Column of the call.
    pub col: u32,
}

/// Everything one file contributes to the run.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived suppression (plus suppression meta-findings).
    pub findings: Vec<Finding>,
    /// Literal env reads, for the registry cross-check.
    pub env_reads: Vec<EnvRead>,
    /// Count of findings silenced by valid suppressions.
    pub suppressed: usize,
    /// The file's suppressions (the cross-checks consult and mark them
    /// later; unused ones then become findings).
    pub suppressions: Vec<Suppression>,
    /// Concurrency facts (atomic/lock declarations and uses) for the
    /// registry cross-checks in `lib.rs`.
    pub concurrency: ConcurrencyScan,
}

/// Lints one file. `rel` is the workspace-relative `/`-separated path.
pub fn lint_file(rel: &str, kind: FileKind, scan: &FileScan, cfg: &Config) -> FileOutcome {
    let determinism = kind != FileKind::Vendor
        && kind != FileKind::Test
        && Config::matches(&cfg.result_producing, rel);
    let error_discipline = kind == FileKind::Lib && Config::matches(&cfg.error_paths, rel);
    let hot_entries = if kind == FileKind::Vendor {
        Vec::new()
    } else {
        cfg.hot_entries(rel)
    };

    let mut raw: Vec<Finding> = Vec::new();
    let mut env_reads = Vec::new();
    let finding = |rule: &'static str, t: &crate::lexer::Tok, message: String| Finding {
        file: rel.to_string(),
        line: t.line,
        col: t.col,
        rule,
        message,
    };

    // significant (non-comment) token indices, for sequence matching
    let sig: Vec<usize> = (0..scan.toks.len())
        .filter(|&i| !scan.toks[i].is_comment())
        .collect();
    let tok = |p: usize| &scan.toks[sig[p]];

    for p in 0..sig.len() {
        let i = sig[p];
        let t = &scan.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let in_test = scan.in_test[i];
        let prev_is = |c: char| p > 0 && tok(p - 1).is_punct(c);
        let next_is = |c: char| p + 1 < sig.len() && tok(p + 1).is_punct(c);

        // ---- env-registry: literal env reads, any file, test code included
        if (t.text == "var" || t.text == "var_os") && next_is('(') && p + 2 < sig.len() {
            let arg = tok(p + 2);
            if arg.kind == TokKind::Str && crate::registry::is_env_name(&arg.text) {
                env_reads.push(EnvRead {
                    name: arg.text.clone(),
                    file: rel.to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        if in_test {
            continue;
        }

        // ---- determinism family
        if determinism {
            match t.text.as_str() {
                "HashMap" | "HashSet" => raw.push(finding(
                    "nondet-collection",
                    t,
                    format!(
                        "`{}` in result-producing code: iteration order is \
                         nondeterministic — use BTreeMap/BTreeSet or sorted \
                         iteration, or suppress with a determinism argument",
                        t.text
                    ),
                )),
                "SystemTime" | "Instant" => raw.push(finding(
                    "nondet-time",
                    t,
                    format!(
                        "`{}` read in result-producing code: wall-clock values \
                         must never reach a result or checkpoint",
                        t.text
                    ),
                )),
                "var" | "var_os"
                    if next_is('(')
                        && p >= 3
                        && tok(p - 1).is_punct(':')
                        && tok(p - 2).is_punct(':')
                        && tok(p - 3).text == "env" =>
                {
                    raw.push(finding(
                        "nondet-env",
                        t,
                        format!(
                            "`env::{}` read in result-producing code: an \
                             environment toggle makes results depend on the \
                             process, not the configuration — carry the choice \
                             in a value (e.g. `EvalPaths` on the context)",
                            t.text
                        ),
                    ))
                }
                "from_entropy" | "thread_rng" => raw.push(finding(
                    "nondet-rng",
                    t,
                    format!(
                        "`{}` constructs an entropy-seeded RNG in \
                         result-producing code — derive the stream from a \
                         configured seed (`derive_seed`)",
                        t.text
                    ),
                )),
                "seed_from_u64" | "from_seed" | "from_rng"
                    if next_is('(') && !seed_is_plumbed(scan, &sig, p + 1) =>
                {
                    raw.push(finding(
                        "nondet-rng",
                        t,
                        format!(
                            "`{}` with a seed not plumbed from a config or \
                             `derive_seed` stream — hard-coded seeds fork \
                             the workspace's single seeded-stream discipline",
                            t.text
                        ),
                    ));
                }
                _ => {}
            }
        }

        // ---- hot-path allocation
        if !hot_entries.is_empty() {
            let enclosing = scan.enclosing_fn(i);
            let in_hot = hot_entries.iter().any(|h| match h.fns {
                None => true,
                Some(fns) => enclosing.is_some_and(|f| fns.contains(&f)),
            });
            if in_hot {
                let site = enclosing.unwrap_or("<file scope>");
                let alloc: Option<String> = match t.text.as_str() {
                    "new"
                        if p >= 3
                            && tok(p - 1).is_punct(':')
                            && tok(p - 2).is_punct(':')
                            && matches!(tok(p - 3).text.as_str(), "Vec" | "Box" | "String")
                            && tok(p - 3).kind == TokKind::Ident =>
                    {
                        Some(format!("{}::new", tok(p - 3).text))
                    }
                    "vec" | "format" if next_is('!') => Some(format!("{}!", t.text)),
                    "to_vec" | "collect" | "clone" if prev_is('.') => {
                        Some(format!(".{}()", t.text))
                    }
                    _ => None,
                };
                if let Some(what) = alloc {
                    raw.push(finding(
                        "hot-alloc",
                        t,
                        format!(
                            "`{what}` in deny-listed hot path `{site}` — reuse \
                             pooled/scratch buffers, or suppress with a \
                             justification"
                        ),
                    ));
                }
            }
        }

        // ---- error discipline
        if error_discipline {
            match t.text.as_str() {
                "unwrap" | "expect" if prev_is('.') && next_is('(') => raw.push(finding(
                    "error-discipline",
                    t,
                    format!(
                        "`.{}()` in library code on an IO/checkpoint/parse \
                         path — propagate the error (`io::Result`/`?`) or \
                         suppress with an infallibility argument",
                        t.text
                    ),
                )),
                "panic" if next_is('!') => raw.push(finding(
                    "error-discipline",
                    t,
                    "`panic!` in library code on an IO/checkpoint/parse path — \
                     return an error instead"
                        .to_string(),
                )),
                _ => {}
            }
        }
    }

    // ---- concurrency families: local findings join the raw list, the
    // declaration/use facts ride along for the lib.rs cross-checks
    let mut conc = if kind == FileKind::Test {
        ConcurrencyScan::default()
    } else {
        concurrency::scan_file(rel, scan)
    };
    raw.append(&mut conc.findings);

    // ---- suppression filtering + meta findings
    let mut out = FileOutcome {
        suppressions: scan.suppressions.clone(),
        env_reads,
        concurrency: conc,
        ..FileOutcome::default()
    };
    for f in raw {
        if suppressed_at(&mut out.suppressions, f.rule, f.line) {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    for s in &out.suppressions {
        if !s.well_formed {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: s.line,
                col: s.col,
                rule: "suppression-malformed",
                message: "unrecognized `saga-lint:` comment — expected \
                          `saga-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            });
            continue;
        }
        if !s.has_reason {
            out.findings.push(Finding {
                file: rel.to_string(),
                line: s.line,
                col: s.col,
                rule: "suppression-missing-reason",
                message: "suppression without a reason — the justification is \
                          mandatory: `saga-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            });
        }
        for r in &s.rules {
            if !RULES.contains(&r.as_str()) {
                out.findings.push(Finding {
                    file: rel.to_string(),
                    line: s.line,
                    col: s.col,
                    rule: "suppression-unknown-rule",
                    message: format!(
                        "suppression names unknown rule `{r}` (known: {})",
                        RULES.join(", ")
                    ),
                });
            }
        }
    }
    out
}

/// Is a finding of `rule` at `line` silenced by a valid suppression on the
/// same line (trailing comment) or the line directly above? Marks the
/// matching suppression as used (see `suppression-unused`).
pub fn suppressed_at(sups: &mut [Suppression], rule: &str, line: u32) -> bool {
    for s in sups.iter_mut() {
        if s.well_formed
            && s.has_reason
            && (s.line == line || s.line + 1 == line)
            && s.rules.iter().any(|r| r == rule)
        {
            s.used = true;
            return true;
        }
    }
    false
}

/// Scans the balanced argument list opening at significant position `open`
/// (a `(`): the seed counts as plumbed when some argument identifier is
/// `derive_seed` or mentions `seed` (a `config.seed`/`self.seed` field, a
/// `seed` parameter) — i.e. the value flows from configuration rather than
/// being invented at the call site.
fn seed_is_plumbed(scan: &FileScan, sig: &[usize], open: usize) -> bool {
    let mut depth = 0i32;
    for &i in &sig[open..] {
        let t = &scan.toks[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && (t.text == "derive_seed" || t.text.to_ascii_lowercase().contains("seed"))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str, rel: &str, kind: FileKind, cfg: &Config) -> FileOutcome {
        let scan = FileScan::new(src, kind == FileKind::Test);
        lint_file(rel, kind, &scan, cfg)
    }

    fn test_cfg() -> Config {
        let mut cfg = Config::workspace();
        cfg.result_producing = vec!["det/"];
        cfg.error_paths = vec!["io/lib.rs"];
        cfg.hot_paths = vec![
            crate::config::HotPath {
                path: "hot/whole.rs",
                fns: None,
            },
            crate::config::HotPath {
                path: "hot/part.rs",
                fns: Some(&["inner"]),
            },
        ];
        cfg
    }

    #[test]
    fn hashmap_flagged_only_in_scope_and_outside_tests() {
        let cfg = test_cfg();
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests { fn t() { let h: HashMap<u8,u8> = HashMap::new(); } }";
        let out = lint_src(src, "det/lib.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "nondet-collection");
        let out = lint_src(src, "other/lib.rs", FileKind::Lib, &cfg);
        assert!(out.findings.is_empty());
    }

    #[test]
    fn rng_seed_plumbing_heuristic() {
        let cfg = test_cfg();
        let bad = "fn f() { let r = StdRng::seed_from_u64(42); }";
        let good = "fn f(cfg: &C) { let r = StdRng::seed_from_u64(derive_seed(cfg.seed, 1)); }";
        let field = "fn f(&self) { let r = StdRng::seed_from_u64(self.seed); }";
        assert_eq!(
            lint_src(bad, "det/lib.rs", FileKind::Lib, &cfg).findings[0].rule,
            "nondet-rng"
        );
        assert!(lint_src(good, "det/lib.rs", FileKind::Lib, &cfg)
            .findings
            .is_empty());
        assert!(lint_src(field, "det/lib.rs", FileKind::Lib, &cfg)
            .findings
            .is_empty());
    }

    #[test]
    fn hot_alloc_fn_scoping() {
        let cfg = test_cfg();
        let src = "fn inner() { let v = Vec::new(); }\nfn outer() { let v = Vec::new(); }";
        let out = lint_src(src, "hot/part.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("`inner`"));
        let out = lint_src(src, "hot/whole.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 2);
    }

    #[test]
    fn hot_alloc_token_shapes() {
        let cfg = test_cfg();
        let src = "fn f(x: &[u8]) { let a = vec![1]; let b = x.to_vec(); \
                   let c: Vec<u8> = x.iter().copied().collect(); let d = b.clone(); \
                   let e = format!(\"x\"); let g = Box::new(1); }";
        let out = lint_src(src, "hot/whole.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 6, "{:?}", out.findings);
    }

    #[test]
    fn error_discipline_and_bin_exemption() {
        let cfg = test_cfg();
        let src = "fn f() { let x = g().unwrap(); h().expect(\"msg\"); panic!(\"no\"); }";
        let out = lint_src(src, "io/lib.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 3);
        let out = lint_src(src, "io/lib.rs", FileKind::Bin, &cfg);
        assert!(out.findings.is_empty());
        // unwrap_or_else is a different identifier: not flagged
        let ok = "fn f() { let x = g().unwrap_or_else(|e| e.into_inner()); }";
        assert!(lint_src(ok, "io/lib.rs", FileKind::Lib, &cfg)
            .findings
            .is_empty());
    }

    #[test]
    fn suppression_silences_and_missing_reason_reports() {
        let cfg = test_cfg();
        let src = "fn f() {\n\
                   // saga-lint: allow(error-discipline) — poisoning is unreachable here\n\
                   let x = g().unwrap();\n\
                   let y = h().unwrap(); // saga-lint: allow(error-discipline)\n\
                   }";
        let out = lint_src(src, "io/lib.rs", FileKind::Lib, &cfg);
        assert_eq!(out.suppressed, 1);
        // surviving: the un-reasoned unwrap finding + the missing-reason meta
        assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
        assert!(out
            .findings
            .iter()
            .any(|f| f.rule == "suppression-missing-reason"));
        assert!(out.findings.iter().any(|f| f.rule == "error-discipline"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_reported() {
        let cfg = test_cfg();
        let src = "// saga-lint: allow(made-up-rule) — because\nfn f() {}";
        let out = lint_src(src, "x/lib.rs", FileKind::Lib, &cfg);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "suppression-unknown-rule");
    }

    #[test]
    fn env_reads_collected_everywhere_including_tests() {
        let cfg = test_cfg();
        let src = "fn f() { let v = std::env::var(\"SAGA_X\"); }\n\
                   #[cfg(test)] mod t { fn g() { std::env::var_os(\"GOLDEN_REGEN\"); } }";
        let out = lint_src(src, "x/lib.rs", FileKind::Lib, &cfg);
        let names: Vec<&str> = out.env_reads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["SAGA_X", "GOLDEN_REGEN"]);
        // dynamic reads are skipped
        let dynsrc = "fn f(n: &str) { std::env::var(n); }";
        assert!(lint_src(dynsrc, "x/lib.rs", FileKind::Lib, &cfg)
            .env_reads
            .is_empty());
    }
}
