//! The fixture corpus: every rule family proven to fire on a
//! known-violation file and stay silent on a known-clean one, the
//! suppression grammar proven end-to-end, the env-registry cross-check
//! exercised on a miniature workspace, and — the gate the corpus exists
//! for — a self-check that the shipped workspace lints clean.

use saga_lint::config::Config;
use saga_lint::rules::{lint_file, FileKind, FileOutcome};
use saga_lint::scan::FileScan;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as though it sat at `rel` in the workspace.
fn lint_as(name: &str, rel: &str, kind: FileKind) -> FileOutcome {
    let src = fixture(name);
    let scan = FileScan::new(&src, matches!(kind, FileKind::Test | FileKind::Bench));
    lint_file(rel, kind, &scan, &Config::workspace())
}

fn rules_of(out: &FileOutcome) -> Vec<&'static str> {
    out.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn nondet_fixture_fires_all_three_determinism_rules() {
    let out = lint_as(
        "nondet_bad.rs",
        "crates/saga-core/src/sampling.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&out);
    assert_eq!(
        rules.iter().filter(|r| **r == "nondet-collection").count(),
        3,
        "every HashMap mention flags: {rules:?}"
    );
    assert_eq!(rules.iter().filter(|r| **r == "nondet-time").count(), 1);
    assert_eq!(
        rules.iter().filter(|r| **r == "nondet-rng").count(),
        2,
        "entropy construction and the unplumbed literal seed: {rules:?}"
    );
    assert_eq!(out.findings.len(), 6);
}

#[test]
fn nondet_clean_fixture_is_silent_including_its_test_mod() {
    let out = lint_as(
        "nondet_clean.rs",
        "crates/saga-core/src/sampling.rs",
        FileKind::Lib,
    );
    assert!(
        out.findings.is_empty(),
        "clean file must not flag (HashMap/Instant live in cfg(test)): {:?}",
        out.findings
    );
}

#[test]
fn nondet_rules_do_not_apply_outside_result_producing_code() {
    // same violating source, but in a crate outside the determinism scope
    let out = lint_as(
        "nondet_bad.rs",
        "crates/saga-datasets/src/sampling.rs",
        FileKind::Lib,
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn nondet_env_fixture_flags_every_env_read() {
    let out = lint_as(
        "nondet_env_bad.rs",
        "crates/saga-pisa/src/x.rs",
        FileKind::Lib,
    );
    assert_eq!(rules_of(&out), ["nondet-env"; 2], "{:?}", out.findings);
    // outside the result-producing crates an env read is not a finding
    let out = lint_as(
        "nondet_env_bad.rs",
        "crates/saga-experiments/src/cli.rs",
        FileKind::Lib,
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn nondet_env_clean_twin_is_silent() {
    let out = lint_as(
        "nondet_env_clean.rs",
        "crates/saga-core/src/x.rs",
        FileKind::Lib,
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
}

#[test]
fn hot_alloc_fixture_flags_every_allocation_shape() {
    let out = lint_as(
        "hot_alloc_bad.rs",
        "crates/saga-core/src/kernel.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&out);
    assert_eq!(
        rules.iter().filter(|r| **r == "hot-alloc").count(),
        5,
        "Vec::new, vec!, .collect(), format!, .clone(): {:?}",
        out.findings
    );
    let messages: Vec<&str> = out.findings.iter().map(|f| f.message.as_str()).collect();
    for shape in ["Vec::new", "vec!", ".collect()", "format!", ".clone()"] {
        assert!(
            messages.iter().any(|m| m.contains(shape)),
            "missing {shape} in {messages:?}"
        );
    }
}

#[test]
fn hot_alloc_fn_scoping_spares_constructors() {
    let out = lint_as(
        "hot_alloc_clean.rs",
        "crates/saga-schedulers/src/sweep.rs",
        FileKind::Lib,
    );
    assert!(
        out.findings.is_empty(),
        "vec! in `new` is outside the run/run_recorded deny list: {:?}",
        out.findings
    );
}

#[test]
fn error_discipline_fixture_flags_unwrap_expect_panic() {
    let out = lint_as(
        "error_bad.rs",
        "crates/saga-experiments/src/engine.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&out);
    assert_eq!(
        rules.iter().filter(|r| **r == "error-discipline").count(),
        3,
        "{:?}",
        out.findings
    );
}

#[test]
fn error_discipline_exempts_binaries() {
    let out = lint_as(
        "error_bad.rs",
        "crates/saga-experiments/src/bin/fig9.rs",
        FileKind::Bin,
    );
    assert!(
        out.findings.is_empty(),
        "binaries may exit loudly: {:?}",
        out.findings
    );
}

#[test]
fn error_discipline_spares_unwrap_or_else_poison_recovery() {
    let out = lint_as(
        "error_clean.rs",
        "crates/saga-experiments/src/engine.rs",
        FileKind::Lib,
    );
    assert!(
        out.findings.is_empty(),
        "`unwrap_or_else` is not `unwrap`: {:?}",
        out.findings
    );
}

#[test]
fn reasoned_suppressions_silence_without_findings() {
    let out = lint_as(
        "suppressed_ok.rs",
        "crates/saga-core/src/kernel.rs",
        FileKind::Lib,
    );
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(
        out.suppressed, 2,
        "line-above and trailing same-line suppressions both count"
    );
}

#[test]
fn bad_suppressions_are_themselves_findings() {
    let out = lint_as(
        "suppression_bad.rs",
        "crates/saga-core/src/kernel.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&out);
    assert!(rules.contains(&"suppression-missing-reason"), "{rules:?}");
    assert!(rules.contains(&"suppression-unknown-rule"), "{rules:?}");
    assert!(rules.contains(&"suppression-malformed"), "{rules:?}");
    assert!(
        rules.contains(&"hot-alloc"),
        "a reason-less suppression must not earn the silence: {rules:?}"
    );
    assert_eq!(out.suppressed, 0);
}

/// Builds a throwaway mini-workspace for end-to-end `lint_root` runs.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str, registry_rows: &[&str], lib_src: &str) -> Self {
        Self::build(tag, registry_rows, None, lib_src)
    }

    /// Like [`new`](Self::new) but the ARCHITECTURE.md also carries the
    /// two concurrency tables, with the given data rows.
    fn with_concurrency(
        tag: &str,
        atomic_rows: &[&str],
        lock_rows: &[&str],
        lib_src: &str,
    ) -> Self {
        Self::build(tag, &[], Some((atomic_rows, lock_rows)), lib_src)
    }

    fn build(
        tag: &str,
        registry_rows: &[&str],
        concurrency: Option<(&[&str], &[&str])>,
        lib_src: &str,
    ) -> Self {
        let root =
            std::env::temp_dir().join(format!("saga_lint_fixture_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        std::fs::write(root.join("src/lib.rs"), lib_src).unwrap();
        let mut doc = String::from("# Architecture\n\n### Env-toggle registry\n\n");
        doc.push_str("| Toggle | Read in | Effect |\n|---|---|---|\n");
        for row in registry_rows {
            doc.push_str(row);
            doc.push('\n');
        }
        if let Some((atomic_rows, lock_rows)) = concurrency {
            doc.push_str("\n#### Atomic protocol registry\n\n");
            doc.push_str("| Binding | Declared in | Protocol | Allowed ops |\n|---|---|---|---|\n");
            for row in atomic_rows {
                doc.push_str(row);
                doc.push('\n');
            }
            doc.push_str("\n#### Lock-order registry\n\n");
            doc.push_str("| Binding | Declared in | Rank | Protocol |\n|---|---|---|---|\n");
            for row in lock_rows {
                doc.push_str(row);
                doc.push('\n');
            }
        }
        std::fs::write(root.join("ARCHITECTURE.md"), doc).unwrap();
        MiniWorkspace { root }
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn env_registry_cross_check_catches_both_directions() {
    let ws = MiniWorkspace::new(
        "env",
        &[
            "| `SAGA_DECLARED` | src/lib.rs | A declared, read toggle. |",
            "| `SAGA_STALE` | nowhere | Declared but never read. |",
        ],
        "pub fn toggles() -> (bool, bool) {\n\
         \x20   let a = std::env::var(\"SAGA_DECLARED\").is_ok();\n\
         \x20   let b = std::env::var(\"SAGA_UNDECLARED\").is_ok();\n\
         \x20   (a, b)\n\
         }\n",
    );
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules,
        vec!["env-registry", "env-registry"],
        "{:?}",
        report.findings
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file == "src/lib.rs" && f.message.contains("SAGA_UNDECLARED")),
        "undeclared read flags at the read site"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file == "ARCHITECTURE.md" && f.message.contains("SAGA_STALE")),
        "stale registry row flags at the table"
    );
}

#[test]
fn env_registry_missing_table_is_one_finding() {
    let ws = MiniWorkspace::new("notable", &[], "pub fn nothing() {}\n");
    // overwrite with a doc that has no registry heading at all
    std::fs::write(ws.root.join("ARCHITECTURE.md"), "# Architecture\n").unwrap();
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "env-registry");
    assert_eq!(report.findings[0].file, "ARCHITECTURE.md");
}

#[test]
fn atomics_discipline_catches_undeclared_out_of_protocol_and_stale() {
    let ws = MiniWorkspace::with_concurrency(
        "atomics_bad",
        &[
            "| `declared` | `src/lib.rs` | test protocol | `fetch_add(AcqRel)`, `load(Acquire)` |",
            "| `ghost` | `src/lib.rs` | stale row | `load(SeqCst)` |",
        ],
        &[],
        &fixture("atomics_bad.rs"),
    );
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule == "atomics-discipline"),
        "{msgs:?}"
    );
    assert_eq!(report.findings.len(), 4, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("`rogue` is not declared")),
        "undeclared atomic flags at the declaration: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("fetch_add(Ordering::Relaxed)") && m.contains("outside")),
        "out-of-protocol ordering flags at the use: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("rogue.store") && m.contains("no")),
        "use of an unregistered atomic flags: {msgs:?}"
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.file == "ARCHITECTURE.md" && f.message.contains("ghost")),
        "stale registry row flags at the table: {msgs:?}"
    );
}

#[test]
fn atomics_discipline_clean_twin_is_silent() {
    let ws = MiniWorkspace::with_concurrency(
        "atomics_clean",
        &["| `declared` | `src/lib.rs` | test protocol | `fetch_add(AcqRel)`, `load(Acquire)` |"],
        &[],
        &fixture("atomics_clean.rs"),
    );
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn lock_discipline_catches_undeclared_poison_inversion_and_reentry() {
    let ws = MiniWorkspace::with_concurrency(
        "lock_bad",
        &[],
        &[
            "| `low` | `src/lib.rs` | 10 | outer lock |",
            "| `high` | `src/lib.rs` | 20 | inner lock |",
        ],
        &fixture("lock_bad.rs"),
    );
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    let msgs: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.iter().all(|f| f.rule == "lock-discipline"),
        "{msgs:?}"
    );
    assert_eq!(report.findings.len(), 4, "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("`rogue` is not declared")),
        "unregistered mutex flags at the declaration: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("lock-order inversion")),
        "descending-rank nesting flags: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("self-deadlock")),
        "same-lock re-acquisition flags: {msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("aborts on poison")),
        "`lock().unwrap()` flags: {msgs:?}"
    );
}

#[test]
fn lock_discipline_clean_twin_is_silent() {
    let ws = MiniWorkspace::with_concurrency(
        "lock_clean",
        &[],
        &[
            "| `low` | `src/lib.rs` | 10 | outer lock |",
            "| `high` | `src/lib.rs` | 20 | inner lock |",
        ],
        &fixture("lock_clean.rs"),
    );
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn unsafe_discipline_flags_every_unjustified_form() {
    let out = lint_as(
        "unsafe_bad.rs",
        "crates/saga-datasets/src/simd.rs",
        FileKind::Lib,
    );
    let rules = rules_of(&out);
    assert_eq!(
        rules.iter().filter(|r| **r == "unsafe-discipline").count(),
        4,
        "block without SAFETY, undocumented unsafe fn, unjustified \
         target_feature fn, ungated call: {:?}",
        out.findings
    );
    assert_eq!(out.findings.len(), 4, "{:?}", out.findings);
    let messages: Vec<&str> = out.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages
            .iter()
            .any(|m| m.contains("without a runtime feature gate")),
        "{messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("without a SAFETY justification")),
        "{messages:?}"
    );
}

#[test]
fn unsafe_discipline_clean_twin_is_silent() {
    let out = lint_as(
        "unsafe_clean.rs",
        "crates/saga-datasets/src/simd.rs",
        FileKind::Lib,
    );
    assert!(
        out.findings.is_empty(),
        "SAFETY comments, `# Safety` docs and the runtime gate must \
         satisfy the rule: {:?}",
        out.findings
    );
}

#[test]
fn unused_reasoned_suppression_is_flagged() {
    let ws = MiniWorkspace::new("sup_unused", &[], &fixture("suppression_unused.rs"));
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["suppression-unused"], "{:?}", report.findings);
    assert!(
        report.findings[0].message.contains("hot-alloc"),
        "{:?}",
        report.findings
    );
}

#[test]
fn shipped_workspace_is_lint_clean() {
    // CARGO_MANIFEST_DIR = crates/saga-lint; the workspace root is two up
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected workspace root at {}",
        root.display()
    );
    let report = saga_lint::lint_root(&root, &Config::workspace()).unwrap();
    assert!(
        report.findings.is_empty(),
        "the shipped tree must lint clean; fix or suppress (with a reason):\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "discovery must cover the whole workspace, saw {}",
        report.files_scanned
    );
}
