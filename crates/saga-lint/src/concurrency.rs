//! The concurrency-protocol rule families: `atomics-discipline` and
//! `lock-discipline`.
//!
//! These extend the token-sequence approach of [`crate::rules`] to the
//! concurrency surface of the workspace:
//!
//! * **`atomics-discipline`** — every atomic static/field/local must be
//!   declared in ARCHITECTURE.md's "Atomic protocol registry" table
//!   (name + declaring file + allowed `op(Ordering)` set), and every
//!   literal `Ordering::X` use in source must stay inside the declared
//!   protocol. Cross-checked in both directions in `lib.rs`.
//! * **`lock-discipline`** — every workspace `Mutex` must be declared in
//!   the "Lock-order registry" table with an acquisition rank; nested
//!   `lock()` calls under a held lock must acquire in ascending rank
//!   order, and `.lock().unwrap()`/`.expect()` is flagged in favor of the
//!   poison-recovery idiom
//!   `.unwrap_or_else(|poisoned| poisoned.into_inner())`.
//!
//! This module *collects* the per-file facts (declarations, ordering
//! uses, nesting events) and emits the purely local finding
//! (poison-unwrap); the registry
//! cross-checks live in `lib.rs` because they need the whole workspace
//! plus the parsed ARCHITECTURE.md tables.
//!
//! Like the rest of the linter this is a token heuristic, not a type
//! checker: receivers are resolved to the last path segment before the
//! method call (`self.inner.remaining.load(..)` → `remaining`), so the
//! registry keys on (binding name, declaring file). That granularity is
//! deliberate — it is exactly what a reviewer sees in the diff.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::scan::FileScan;

/// The atomic orderings `std::sync::atomic::Ordering` defines; an
/// `Ordering::X` token sequence with any other `X` (e.g.
/// `cmp::Ordering::Less`) is not an atomics use.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The `std::sync::atomic` type names; other `Atomic*` identifiers
/// (project structs like `AtomicRow`) are not atomics.
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// Atomic methods that take an `Ordering` argument; a literal ordering
/// inside any other call (`matches!`, plain fns) is ignored.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
];

/// A declared atomic or `Mutex` binding (static, field, local, or
/// parameter).
#[derive(Debug, Clone)]
pub struct Decl {
    /// Binding name (registry key, together with the declaring file).
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Column of the `Atomic*` or `Mutex` type token.
    pub col: u32,
}

/// One literal-`Ordering` atomic operation.
#[derive(Debug, Clone)]
pub struct AtomicUse {
    /// Receiver binding name (last path segment before the method).
    pub receiver: String,
    /// The atomic method (`load`, `fetch_sub`, …).
    pub method: String,
    /// The literal ordering variant (`Relaxed`, `Release`, …).
    pub ordering: String,
    /// 1-based line of the `Ordering` token.
    pub line: u32,
    /// Column of the `Ordering` token.
    pub col: u32,
}

/// A `lock()` acquired while another lock is (heuristically) held.
#[derive(Debug, Clone)]
pub struct LockNesting {
    /// The innermost already-held receiver.
    pub outer: String,
    /// The newly acquired receiver.
    pub inner: String,
    /// 1-based line of the inner `lock` call.
    pub line: u32,
    /// Column of the inner `lock` call.
    pub col: u32,
}

/// Everything the concurrency pass extracts from one file.
#[derive(Debug, Default)]
pub struct ConcurrencyScan {
    /// Atomic declarations, deduplicated by name.
    pub atomic_decls: Vec<Decl>,
    /// Literal-ordering atomic operations.
    pub atomic_uses: Vec<AtomicUse>,
    /// Mutex declarations, deduplicated by name.
    pub lock_decls: Vec<Decl>,
    /// Nested acquisitions, for rank adjudication in `lib.rs`.
    pub nestings: Vec<LockNesting>,
    /// Purely local findings (poison unwraps) — raw, before suppression
    /// filtering.
    pub findings: Vec<Finding>,
}

/// A lock currently held at some brace depth during the linear walk.
struct Held {
    receiver: String,
    guard: Option<String>,
    depth: i32,
}

/// Runs the two concurrency rule families over one non-test file.
/// Test files and `#[cfg(test)]` regions are out of scope: the
/// protocols govern shipped code.
pub fn scan_file(rel: &str, scan: &FileScan) -> ConcurrencyScan {
    let mut out = ConcurrencyScan::default();
    let sig: Vec<usize> = (0..scan.toks.len())
        .filter(|&i| !scan.toks[i].is_comment())
        .collect();

    // one linear walk with lock-hold tracking
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    for p in 0..sig.len() {
        let i = sig[p];
        let t = &scan.toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
        } else if t.is_punct(';') {
            held.retain(|h| !(h.guard.is_none() && h.depth == depth));
        }
        if t.kind != TokKind::Ident || scan.in_test[i] {
            continue;
        }

        // explicit guard drop: `drop(name)`
        if t.text == "drop" && is_punct_at(scan, &sig, p + 1, '(') {
            if let Some(g) = ident_at(scan, &sig, p + 2) {
                if is_punct_at(scan, &sig, p + 3, ')') {
                    held.retain(|h| h.guard.as_deref() != Some(g));
                }
            }
        }

        // ---- atomic and mutex declarations (`Mutex` exactly; `MutexGuard`
        // etc. are not acquisition points)
        let decls = if ATOMIC_TYPES.contains(&t.text.as_str()) {
            Some(&mut out.atomic_decls)
        } else if t.text == "Mutex" {
            Some(&mut out.lock_decls)
        } else {
            None
        };
        if let Some((decls, name)) = decls.zip(binding_name(scan, &sig, p)) {
            if !decls.iter().any(|d| d.name == name) {
                decls.push(Decl {
                    name,
                    line: t.line,
                    col: t.col,
                });
            }
        }

        // ---- literal `Ordering::X` atomic uses
        if t.text == "Ordering"
            && is_punct_at(scan, &sig, p + 1, ':')
            && is_punct_at(scan, &sig, p + 2, ':')
        {
            if let Some(variant) = ident_at(scan, &sig, p + 3) {
                if ORDERINGS.contains(&variant) {
                    if let Some((receiver, method)) = enclosing_atomic_call(scan, &sig, p) {
                        out.atomic_uses.push(AtomicUse {
                            receiver,
                            method,
                            ordering: variant.to_string(),
                            line: t.line,
                            col: t.col,
                        });
                    }
                }
            }
        }

        // ---- lock() calls: poison idiom + nesting
        if t.text == "lock"
            && p > 0
            && scan.toks[sig[p - 1]].is_punct('.')
            && is_punct_at(scan, &sig, p + 1, '(')
            && is_punct_at(scan, &sig, p + 2, ')')
        {
            let receiver = if p >= 2 {
                ident_before(scan, &sig, p - 2)
            } else {
                None
            };
            if let Some(receiver) = receiver {
                if let Some(h) = held.last() {
                    out.nestings.push(LockNesting {
                        outer: h.receiver.clone(),
                        inner: receiver.clone(),
                        line: t.line,
                        col: t.col,
                    });
                }
                // walk the post-lock chain: poison-handling adapters only
                let mut r = p + 3;
                while let Some(m) = (r + 1 < sig.len())
                    .then(|| &scan.toks[sig[r]])
                    .filter(|t| t.is_punct('.'))
                    .and_then(|_| ident_at(scan, &sig, r + 1))
                {
                    match m {
                        "unwrap" | "expect" => {
                            let mt = &scan.toks[sig[r + 1]];
                            out.findings.push(Finding {
                                file: rel.to_string(),
                                line: mt.line,
                                col: mt.col,
                                rule: "lock-discipline",
                                message: format!(
                                    "`.lock().{m}(…)` aborts on poison — use the \
                                     poison-recovery idiom \
                                     `.unwrap_or_else(|poisoned| poisoned.into_inner())` \
                                     (a panicked holder already unwound; the data is \
                                     still consistent for these protocols)"
                                ),
                            });
                        }
                        "unwrap_or_else" => {}
                        _ => break,
                    }
                    r = skip_call_args(scan, &sig, r + 2);
                }
                let guard = let_binding_before(scan, &sig, p)
                    .filter(|_| is_punct_at(scan, &sig, r, ';'))
                    .map(str::to_string);
                held.push(Held {
                    receiver,
                    guard,
                    depth,
                });
            }
        }
    }
    out
}

/// Is significant position `p` the punct `c`?
fn is_punct_at(scan: &FileScan, sig: &[usize], p: usize, c: char) -> bool {
    sig.get(p).is_some_and(|&i| scan.toks[i].is_punct(c))
}

/// The identifier text at significant position `p`, if it is one.
fn ident_at<'a>(scan: &'a FileScan, sig: &[usize], p: usize) -> Option<&'a str> {
    sig.get(p).and_then(|&i| {
        let t = &scan.toks[i];
        (t.kind == TokKind::Ident).then_some(t.text.as_str())
    })
}

/// Walks left over a `seg :: seg :: …` path prefix ending at `p`,
/// returning the position of the first segment.
fn path_start(scan: &FileScan, sig: &[usize], mut p: usize) -> usize {
    while p >= 3
        && scan.toks[sig[p - 1]].is_punct(':')
        && scan.toks[sig[p - 2]].is_punct(':')
        && scan.toks[sig[p - 3]].kind == TokKind::Ident
    {
        p -= 3;
    }
    p
}

/// The binding name a type token at `p` declares, if the surrounding
/// tokens form a declaration:
///
/// * pattern A — `name : [&] [mut] ['a] [Outer<]* [path::]Type` (struct
///   fields, statics, typed lets, fn params, struct-literal inits);
/// * pattern B — `let [mut] name = [path::]Type :: new` (inferred lets).
///
/// `use` imports, `impl` headers, return types and bare expression uses
/// all fail the walk and return `None`.
fn binding_name(scan: &FileScan, sig: &[usize], p: usize) -> Option<String> {
    let t = |q: usize| &scan.toks[sig[q]];
    let mut q = path_start(scan, sig, p);
    if q >= 1 && t(q - 1).is_punct('=') {
        // pattern B: value position — only an inferred `let` binds here
        if q >= 3 && t(q - 2).kind == TokKind::Ident {
            let kw = &t(q - 3);
            if kw.is_ident("let") || kw.is_ident("mut") {
                return Some(t(q - 2).text.clone());
            }
        }
        return None;
    }
    // pattern A: walk left over type-position noise to the single `:`.
    // A `&` anywhere in the type makes the binding a *reference* — it
    // aliases a lock/atomic declared (and registered) elsewhere, so it is
    // not itself a declaration.
    let mut expect_container = false;
    let mut saw_ref = false;
    loop {
        if q == 0 {
            return None;
        }
        let prev = t(q - 1);
        if prev.is_punct('<')
            || prev.is_punct('&')
            || prev.is_punct('[')
            || prev.kind == TokKind::Lifetime
            || prev.is_ident("mut")
            || prev.is_ident("dyn")
        {
            expect_container = prev.is_punct('<');
            saw_ref |= prev.is_punct('&');
            q -= 1;
            continue;
        }
        if expect_container && prev.kind == TokKind::Ident {
            // the container type before `<` (Vec, Arc, Option, …),
            // possibly path-qualified itself
            q = path_start(scan, sig, q - 1);
            expect_container = false;
            continue;
        }
        if prev.is_punct(':')
            && q >= 2
            && !t(q - 2).is_punct(':')
            && t(q - 2).kind == TokKind::Ident
        {
            if saw_ref {
                return None;
            }
            return Some(t(q - 2).text.clone());
        }
        return None;
    }
}

/// From an `Ordering` token at `p`, resolves the enclosing method call:
/// walks left to the unmatched `(`, requires `receiver . method (` with
/// `method` in [`ATOMIC_METHODS`]. Orderings outside such a call
/// (`matches!` arms, `if` arms assigning an ordering variable) resolve
/// to `None` and are ignored.
fn enclosing_atomic_call(scan: &FileScan, sig: &[usize], p: usize) -> Option<(String, String)> {
    let mut depth = 0i32;
    let mut open = None;
    for q in (0..p).rev() {
        let t = &scan.toks[sig[q]];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            if depth == 0 {
                open = Some(q);
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return None;
        }
    }
    let open = open?;
    let method = ident_at(scan, sig, open.checked_sub(1)?)?;
    if !ATOMIC_METHODS.contains(&method) || !is_punct_at(scan, sig, open - 2, '.') {
        return None;
    }
    let receiver = ident_before(scan, sig, open.checked_sub(3)?)?;
    Some((receiver, method.to_string()))
}

/// The receiver name ending at significant position `r`: a bare ident,
/// or an ident followed by a balanced `[…]` index (`deques[victim]`).
fn ident_before(scan: &FileScan, sig: &[usize], mut r: usize) -> Option<String> {
    if scan.toks[sig[r]].is_punct(']') {
        let mut d = 0i32;
        loop {
            let t = &scan.toks[sig[r]];
            if t.is_punct(']') {
                d += 1;
            } else if t.is_punct('[') {
                d -= 1;
                if d == 0 {
                    break;
                }
            }
            r = r.checked_sub(1)?;
        }
        r = r.checked_sub(1)?;
    }
    ident_at(scan, sig, r).map(str::to_string)
}

/// Skips a balanced `( … )` argument list starting at `r` (which may not
/// be a `(` at all, for adapter-free chains); returns the position after.
fn skip_call_args(scan: &FileScan, sig: &[usize], r: usize) -> usize {
    if !is_punct_at(scan, sig, r, '(') {
        return r;
    }
    let mut depth = 0i32;
    for (q, &j) in sig.iter().enumerate().skip(r) {
        let t = &scan.toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return q + 1;
            }
        }
    }
    sig.len()
}

/// If the statement containing position `p` opens with `let [mut] name =`,
/// the guard binding name.
fn let_binding_before<'a>(scan: &'a FileScan, sig: &[usize], p: usize) -> Option<&'a str> {
    let t = |q: usize| &scan.toks[sig[q]];
    let mut b = p;
    for _ in 0..64 {
        if b == 0 {
            break;
        }
        let prev = t(b - 1);
        if prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}') {
            break;
        }
        b -= 1;
    }
    let mut q = b;
    if !t(q).is_ident("let") {
        return None;
    }
    q += 1;
    if q < sig.len() && t(q).is_ident("mut") {
        q += 1;
    }
    if q + 1 < sig.len() && t(q).kind == TokKind::Ident && t(q + 1).is_punct('=') {
        return Some(t(q).text.as_str());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> ConcurrencyScan {
        let scan = FileScan::new(src, false);
        scan_file("x/lib.rs", &scan)
    }

    #[test]
    fn atomic_decl_shapes() {
        let src = "struct S { remaining: Arc<AtomicUsize>, cursor: std::sync::atomic::AtomicU64 }\n\
                   static HITS: AtomicUsize = AtomicUsize::new(0);\n\
                   fn f(flag: &AtomicBool) { let local = AtomicUsize::new(3); }\n\
                   use std::sync::atomic::{AtomicUsize, Ordering};\n\
                   fn mk() -> S { S { remaining: Arc::new(AtomicUsize::new(0)), cursor: AtomicU64::new(0) } }";
        let out = run(src);
        let names: Vec<&str> = out.atomic_decls.iter().map(|d| d.name.as_str()).collect();
        // `flag: &AtomicBool` is a reference param — it aliases an atomic
        // declared elsewhere, not a declaration of its own.
        assert_eq!(names, ["remaining", "cursor", "HITS", "local"]);
    }

    #[test]
    fn atomic_uses_resolve_method_receiver_and_ordering() {
        let src = "fn f(s: &S) {\n\
                   s.remaining.fetch_sub(1, Ordering::Release);\n\
                   let v = self.done.load(Ordering::Acquire);\n\
                   let ord = if x { Ordering::Relaxed } else { Ordering::SeqCst };\n\
                   assert!(matches!(o, Ordering::AcqRel));\n\
                   }";
        let uses = run(src).atomic_uses;
        let got: Vec<(String, String, String)> = uses
            .iter()
            .map(|u| (u.receiver.clone(), u.method.clone(), u.ordering.clone()))
            .collect();
        assert_eq!(
            got,
            [
                ("remaining".into(), "fetch_sub".into(), "Release".into()),
                ("done".into(), "load".into(), "Acquire".into()),
            ],
            "bare arms and matches! carry no enclosing atomic call"
        );
    }

    #[test]
    fn lock_decls_and_poison_idiom() {
        let src = "struct P { free: Mutex<Vec<u8>> }\n\
                   static STATS: Mutex<Option<u8>> = Mutex::new(None);\n\
                   fn f(p: &P) {\n\
                   let g = p.free.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let b = p.free.lock().unwrap();\n\
                   }";
        let out = run(src);
        let names: Vec<&str> = out.lock_decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["free", "STATS"]);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "lock-discipline");
        assert!(out.findings[0].message.contains("unwrap_or_else"));
    }

    #[test]
    fn nesting_records_inner_under_held_guard_and_temp_releases() {
        let src = "fn f(a: &M, b: &M) {\n\
                   let g = a.slots.lock().unwrap_or_else(|e| e.into_inner());\n\
                   let h = b.chunks.lock().unwrap_or_else(|e| e.into_inner());\n\
                   drop(g);\n\
                   let k = b.slots.lock().unwrap_or_else(|e| e.into_inner());\n\
                   }\n\
                   fn seq(a: &M) {\n\
                   a.slots.lock().unwrap_or_else(|e| e.into_inner()).push(1);\n\
                   a.chunks.lock().unwrap_or_else(|e| e.into_inner()).clear();\n\
                   }";
        let out = run(src);
        let got: Vec<(String, String)> = out
            .nestings
            .iter()
            .map(|n| (n.outer.clone(), n.inner.clone()))
            .collect();
        // g held when chunks is locked; g dropped before the second slots
        // lock, but h (named guard) is still held; the `seq` fn's
        // temporaries release at each statement end.
        assert_eq!(
            got,
            [
                ("slots".into(), "chunks".into()),
                ("chunks".into(), "slots".into()),
            ]
        );
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   static T: AtomicUsize = AtomicUsize::new(0);\n\
                   fn t() { T.store(1, Ordering::Relaxed); }\n\
                   }";
        let out = run(src);
        assert!(out.atomic_decls.is_empty());
        assert!(out.atomic_uses.is_empty());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }
}
