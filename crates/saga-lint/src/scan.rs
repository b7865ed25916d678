//! Structural pass over a lexed file: the lightweight "module map" the
//! rules resolve items against.
//!
//! One linear walk computes, for every token,
//!
//! * whether it sits inside test-gated code (`#[cfg(test)] mod …`,
//!   `#[test] fn …` — any attribute mentioning `test` without `not`),
//! * the innermost enclosing `fn` (so deny lists can target functions,
//!   e.g. the annealer inner loop, without parsing a full AST),
//!
//! and collects every suppression comment (`// saga-lint: allow(<rule>) —
//! <reason>`) with its parse state, so the rule layer can honor valid ones
//! and report malformed ones.

use crate::lexer::{Tok, TokKind};

/// One parsed (or parse-failed) suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based column of the comment.
    pub col: u32,
    /// Rule names inside `allow(...)`, trimmed.
    pub rules: Vec<String>,
    /// True when a non-empty reason follows the `allow(...)` clause.
    pub has_reason: bool,
    /// True when the comment matched the `allow(...)` shape at all.
    pub well_formed: bool,
    /// Set by the rule layer when the suppression actually silences a
    /// finding; a valid suppression that silences nothing is itself a
    /// finding (`suppression-unused`) — dead suppressions hide drift.
    pub used: bool,
}

/// A lexed file plus its per-token structural facts.
pub struct FileScan {
    /// The token stream.
    pub toks: Vec<Tok>,
    /// `in_test[i]` — token `i` is inside test-gated code.
    pub in_test: Vec<bool>,
    /// `fn_of[i]` — index into [`fn_names`](Self::fn_names) of the innermost
    /// enclosing function, if any.
    pub fn_of: Vec<Option<usize>>,
    /// Names of all functions seen, in source order.
    pub fn_names: Vec<String>,
    /// Every `saga-lint:` comment found, parsed.
    pub suppressions: Vec<Suppression>,
}

impl FileScan {
    /// Lexes and structurally scans `src`.
    pub fn new(src: &str) -> Self {
        let toks = crate::lexer::lex(src);
        let n = toks.len();
        let mut in_test = vec![false; n];
        let mut fn_of: Vec<Option<usize>> = vec![None; n];
        let mut fn_names: Vec<String> = Vec::new();
        let mut suppressions = Vec::new();

        // frames: (is_test_region, fn_index_or_none) opened at brace depth d
        let mut test_frames: Vec<u32> = Vec::new();
        let mut fn_frames: Vec<(usize, u32)> = Vec::new();
        let mut depth: u32 = 0;
        let mut nest: u32 = 0; // () and [] nesting, for `;` pending-reset
        let mut pending_test = false;
        let mut pending_fn: Option<usize> = None;
        let mut awaiting_fn_name = false;

        let mut i = 0usize;
        while i < n {
            let t = &toks[i];
            in_test[i] = !test_frames.is_empty();
            fn_of[i] = fn_frames.last().map(|&(f, _)| f);
            if t.is_comment() {
                if let Some(s) = parse_suppression(t) {
                    suppressions.push(s);
                }
                i += 1;
                continue;
            }
            match t.kind {
                TokKind::Punct => match t.text.as_bytes()[0] {
                    b'#' => {
                        // attribute: consume `#` (`!`)? `[ ... ]` atomically so
                        // its contents can't confuse the brace tracking
                        let mut j = i + 1;
                        while j < n && (toks[j].is_comment() || toks[j].is_punct('!')) {
                            j += 1;
                        }
                        if j < n && toks[j].is_punct('[') {
                            let mut bdepth = 0u32;
                            let mut saw_test = false;
                            let mut saw_not = false;
                            while j < n {
                                let a = &toks[j];
                                in_test[j] = !test_frames.is_empty();
                                fn_of[j] = fn_frames.last().map(|&(f, _)| f);
                                if a.is_punct('[') {
                                    bdepth += 1;
                                } else if a.is_punct(']') {
                                    bdepth -= 1;
                                    if bdepth == 0 {
                                        break;
                                    }
                                } else if a.is_ident("test") {
                                    saw_test = true;
                                } else if a.is_ident("not") {
                                    saw_not = true;
                                }
                                j += 1;
                            }
                            if saw_test && !saw_not {
                                pending_test = true;
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                    b'{' => {
                        depth += 1;
                        if pending_test {
                            test_frames.push(depth);
                            pending_test = false;
                        }
                        if let Some(f) = pending_fn.take() {
                            fn_frames.push((f, depth));
                        }
                    }
                    b'}' => {
                        if test_frames.last() == Some(&depth) {
                            test_frames.pop();
                        }
                        if fn_frames.last().map(|&(_, d)| d) == Some(depth) {
                            fn_frames.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    b'(' | b'[' => nest += 1,
                    b')' | b']' => nest = nest.saturating_sub(1),
                    b';' if nest == 0 => {
                        // an item ended without a body: `#[cfg(test)] use x;`,
                        // trait method declarations
                        pending_test = false;
                        pending_fn = None;
                    }
                    _ => {}
                },
                TokKind::Ident if t.text == "fn" => {
                    awaiting_fn_name = true;
                }
                TokKind::Ident if awaiting_fn_name => {
                    fn_names.push(t.text.clone());
                    pending_fn = Some(fn_names.len() - 1);
                    awaiting_fn_name = false;
                }
                _ => {}
            }
            if awaiting_fn_name && !t.is_ident("fn") && t.kind != TokKind::Ident {
                // `fn` not followed by a name (fn-pointer types `fn(...)`)
                awaiting_fn_name = false;
            }
            i += 1;
        }

        FileScan {
            toks,
            in_test,
            fn_of,
            fn_names,
            suppressions,
        }
    }

    /// The innermost enclosing function name for token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.fn_of[i].map(|f| self.fn_names[f].as_str())
    }
}

/// Parses a `saga-lint:` comment. Returns `None` for ordinary comments.
fn parse_suppression(t: &Tok) -> Option<Suppression> {
    // Only a comment that *leads* with the marker is a suppression attempt;
    // prose that merely mentions `saga-lint:` (like these docs) is not.
    let lead = t
        .text
        .trim_start()
        .trim_start_matches(['/', '*', '!'])
        .trim_start();
    let rest = lead.strip_prefix("saga-lint:")?.trim_start();
    let malformed = Suppression {
        line: t.line,
        col: t.col,
        rules: Vec::new(),
        has_reason: false,
        well_formed: false,
        used: false,
    };
    let Some(inner) = rest.strip_prefix("allow(") else {
        return Some(malformed);
    };
    let Some(close) = inner.find(')') else {
        return Some(malformed);
    };
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    // the reason is whatever follows the closing paren, minus a leading
    // separator (em/en dash, hyphen, colon); it is mandatory
    let mut reason = inner[close + 1..].trim_start();
    for sep in ["—", "–", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim_start();
            break;
        }
    }
    let reason = reason.trim_end_matches("*/").trim();
    Some(Suppression {
        line: t.line,
        col: t.col,
        rules,
        has_reason: !reason.is_empty(),
        well_formed: true,
        used: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_regions_are_marked() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n fn t() { b(); } }\nfn more() {}";
        let s = FileScan::new(src);
        let a = s.toks.iter().position(|t| t.is_ident("a")).unwrap();
        let b = s.toks.iter().position(|t| t.is_ident("b")).unwrap();
        let more = s.toks.iter().position(|t| t.is_ident("more")).unwrap();
        assert!(!s.in_test[a]);
        assert!(s.in_test[b]);
        assert!(!s.in_test[more]);
    }

    #[test]
    fn test_attr_marks_single_fn() {
        let src = "#[test]\nfn check() { x(); }\nfn live() { y(); }";
        let s = FileScan::new(src);
        let x = s.toks.iter().position(|t| t.is_ident("x")).unwrap();
        let y = s.toks.iter().position(|t| t.is_ident("y")).unwrap();
        assert!(s.in_test[x]);
        assert!(!s.in_test[y]);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nmod live { fn f() { x(); } }";
        let s = FileScan::new(src);
        let x = s.toks.iter().position(|t| t.is_ident("x")).unwrap();
        assert!(!s.in_test[x]);
    }

    #[test]
    fn enclosing_fn_tracks_nesting() {
        let src = "fn outer() { let c = |q| { q }; inner_call(); }\nfn second() { z(); }";
        let s = FileScan::new(src);
        let call = s
            .toks
            .iter()
            .position(|t| t.is_ident("inner_call"))
            .unwrap();
        let z = s.toks.iter().position(|t| t.is_ident("z")).unwrap();
        assert_eq!(s.enclosing_fn(call), Some("outer"));
        assert_eq!(s.enclosing_fn(z), Some("second"));
    }

    #[test]
    fn trait_fn_decl_does_not_open_a_frame() {
        let src = "trait T { fn decl(&self); }\nfn real() { w(); }";
        let s = FileScan::new(src);
        let w = s.toks.iter().position(|t| t.is_ident("w")).unwrap();
        assert_eq!(s.enclosing_fn(w), Some("real"));
    }

    #[test]
    fn suppressions_parse_with_and_without_reason() {
        let src = "// saga-lint: allow(hot-alloc) — warm-up only\n\
                   // saga-lint: allow(workspace-lints)\n\
                   // saga-lint: allow(a, b) - two rules\n\
                   // saga-lint: nonsense";
        let s = FileScan::new(src);
        assert_eq!(s.suppressions.len(), 4);
        assert!(s.suppressions[0].has_reason);
        assert_eq!(s.suppressions[0].rules, ["hot-alloc"]);
        assert!(!s.suppressions[1].has_reason);
        assert_eq!(s.suppressions[2].rules, ["a", "b"]);
        assert!(s.suppressions[2].has_reason);
        assert!(!s.suppressions[3].well_formed);
    }
}
