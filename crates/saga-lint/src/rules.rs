//! The per-file rule: `hot-alloc`, a token-sequence matcher over a
//! [`FileScan`], scoped by the [`Config`], with inline-suppression
//! filtering.
//!
//! Deny-listed hot paths (the kernel, the incremental path, scheduler `run`
//! entry points, the annealer inner loop) must not allocate: `Vec::new`,
//! `Vec::with_capacity`, `vec!`, `.to_vec()`, `.collect()`, `.clone()`,
//! `.to_string()`, `.to_owned()`, `Box::new`, `format!`.
//!
//! A finding is silenced by `// saga-lint: allow(<rule>) — <reason>` on the
//! same line or the line directly above; the reason is mandatory, and
//! malformed or unused suppressions are findings themselves
//! (`suppression-*`).

use crate::config::{Config, RULES};
use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::{FileScan, Suppression};

/// Everything one file contributes to the run.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings that survived suppression (plus suppression meta-findings).
    pub findings: Vec<Finding>,
    /// Count of findings silenced by valid suppressions.
    pub suppressed: usize,
}

/// Lints one file. `rel` is the workspace-relative `/`-separated path.
pub fn lint_file(rel: &str, scan: &FileScan, cfg: &Config) -> FileOutcome {
    let hot_entries = cfg.hot_entries(rel);
    let finding = |rule: &'static str, line: u32, col: u32, message: String| Finding {
        file: rel.to_string(),
        line,
        col,
        rule,
        message,
    };

    // significant (non-comment) token indices, for sequence matching
    let sig: Vec<usize> = (0..scan.toks.len())
        .filter(|&i| !scan.toks[i].is_comment())
        .collect();
    let tok = |p: usize| &scan.toks[sig[p]];

    let mut raw: Vec<Finding> = Vec::new();
    for p in 0..sig.len() {
        let i = sig[p];
        let t = &scan.toks[i];
        if hot_entries.is_empty() || t.kind != TokKind::Ident || scan.in_test[i] {
            continue;
        }
        let enclosing = scan.enclosing_fn(i);
        let in_hot = hot_entries.iter().any(|h| match h.fns {
            None => true,
            Some(fns) => enclosing.is_some_and(|f| fns.contains(&f)),
        });
        if !in_hot {
            continue;
        }
        let prev_is = |c: char| p > 0 && tok(p - 1).is_punct(c);
        let next_is = |c: char| p + 1 < sig.len() && tok(p + 1).is_punct(c);
        let alloc: Option<String> = match t.text.as_str() {
            "new" | "with_capacity"
                if p >= 3
                    && tok(p - 1).is_punct(':')
                    && tok(p - 2).is_punct(':')
                    && matches!(tok(p - 3).text.as_str(), "Vec" | "Box" | "String")
                    && tok(p - 3).kind == TokKind::Ident =>
            {
                Some(format!("{}::{}", tok(p - 3).text, t.text))
            }
            "vec" | "format" if next_is('!') => Some(format!("{}!", t.text)),
            "to_vec" | "collect" | "clone" | "to_string" | "to_owned" if prev_is('.') => {
                Some(format!(".{}()", t.text))
            }
            _ => None,
        };
        if let Some(what) = alloc {
            let site = enclosing.unwrap_or("<file scope>");
            raw.push(finding(
                "hot-alloc",
                t.line,
                t.col,
                format!(
                    "`{what}` in deny-listed hot path `{site}` — reuse \
                     pooled/scratch buffers, or suppress with a \
                     justification"
                ),
            ));
        }
    }

    // ---- suppression filtering + meta findings
    let mut sups = scan.suppressions.clone();
    let mut out = FileOutcome::default();
    for f in raw {
        if suppressed_at(&mut sups, f.rule, f.line) {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    for s in &sups {
        let meta = |rule, message: String| finding(rule, s.line, s.col, message);
        if !s.well_formed {
            out.findings.push(meta(
                "suppression-malformed",
                "unrecognized `saga-lint:` comment — expected \
                 `saga-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            ));
            continue;
        }
        if !s.has_reason {
            out.findings.push(meta(
                "suppression-missing-reason",
                "suppression without a reason — the justification is \
                 mandatory: `saga-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            ));
        }
        let unknown: Vec<&String> = s
            .rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .collect();
        for r in &unknown {
            out.findings.push(meta(
                "suppression-unknown-rule",
                format!(
                    "suppression names unknown rule `{r}` (known: {})",
                    RULES.join(", ")
                ),
            ));
        }
        // a valid waiver that silenced nothing masks drift
        if s.has_reason && unknown.is_empty() && !s.used {
            out.findings.push(meta(
                "suppression-unused",
                format!(
                    "suppression allows `{}` but silenced no finding — \
                     remove it (or the code it excused has drifted)",
                    s.rules.join(", ")
                ),
            ));
        }
    }
    out
}

/// Is a finding of `rule` at `line` silenced by a valid suppression on the
/// same line (trailing comment) or the line directly above? Marks the
/// matching suppression as used (see `suppression-unused`).
fn suppressed_at(sups: &mut [Suppression], rule: &str, line: u32) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str, rel: &str, cfg: &Config) -> FileOutcome {
        lint_file(rel, &FileScan::new(src), cfg)
    }

    fn test_cfg() -> Config {
        let mut cfg = Config::workspace();
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
    fn hot_alloc_fn_scoping() {
        let cfg = test_cfg();
        let src = "fn inner() { let v = Vec::new(); }\nfn outer() { let v = Vec::new(); }";
        let out = lint_src(src, "hot/part.rs", &cfg);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("`inner`"));
        let out = lint_src(src, "hot/whole.rs", &cfg);
        assert_eq!(out.findings.len(), 2);
    }

    #[test]
    fn hot_alloc_token_shapes() {
        let cfg = test_cfg();
        let src = "fn f(x: &[u8]) { let a = vec![1]; let b = x.to_vec(); \
                   let c: Vec<u8> = x.iter().copied().collect(); let d = b.clone(); \
                   let e = format!(\"x\"); let g = Box::new(1); }";
        let out = lint_src(src, "hot/whole.rs", &cfg);
        assert_eq!(out.findings.len(), 6, "{:?}", out.findings);
    }

    #[test]
    fn suppression_silences_and_missing_reason_reports() {
        let cfg = test_cfg();
        let src = "fn f() {\n\
                   // saga-lint: allow(hot-alloc) — warm-up growth only\n\
                   let x = Vec::new();\n\
                   let y = Vec::new(); // saga-lint: allow(hot-alloc)\n\
                   }";
        let out = lint_src(src, "hot/whole.rs", &cfg);
        assert_eq!(out.suppressed, 1);
        // surviving: the un-reasoned allocation finding + the missing-reason meta
        assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
        assert!(out
            .findings
            .iter()
            .any(|f| f.rule == "suppression-missing-reason"));
        assert!(out.findings.iter().any(|f| f.rule == "hot-alloc"));
    }

    #[test]
    fn unknown_rule_in_suppression_is_reported() {
        let cfg = test_cfg();
        let src = "// saga-lint: allow(made-up-rule) — because\nfn f() {}";
        let out = lint_src(src, "x/lib.rs", &cfg);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, "suppression-unknown-rule");
    }
}
