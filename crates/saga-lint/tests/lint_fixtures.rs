//! The fixture corpus: `hot-alloc` proven to fire on a known-violation
//! file and stay silent on a known-clean one, the suppression grammar
//! proven end-to-end, the manifest checks exercised on a miniature
//! workspace, and — the gate the corpus exists for — a self-check that the
//! shipped workspace lints clean.

use saga_lint::config::{Config, HotPath, CLIPPY_TOMLS, ERROR_DENY, ERROR_SCOPE};
use saga_lint::rules::{lint_file, FileOutcome};
use saga_lint::scan::FileScan;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as though it sat at `rel` in the workspace.
fn lint_as(name: &str, rel: &str) -> FileOutcome {
    lint_file(rel, &FileScan::new(&fixture(name)), &Config::workspace())
}

fn rules_of(out: &FileOutcome) -> Vec<&'static str> {
    out.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn hot_alloc_fixture_flags_every_allocation_shape() {
    let out = lint_as("hot_alloc_bad.rs", "crates/saga-core/src/kernel.rs");
    let rules = rules_of(&out);
    assert_eq!(
        rules.iter().filter(|r| **r == "hot-alloc").count(),
        8,
        "every shape once: {:?}",
        out.findings
    );
    let messages: Vec<&str> = out.findings.iter().map(|f| f.message.as_str()).collect();
    let shapes = [
        "Vec::new",
        "Vec::with_capacity",
        "vec!",
        ".collect()",
        "format!",
        ".clone()",
        ".to_string()",
        ".to_owned()",
    ];
    for shape in shapes {
        assert!(
            messages.iter().any(|m| m.contains(shape)),
            "missing {shape} in {messages:?}"
        );
    }
}

#[test]
fn hot_alloc_fn_scoping_spares_constructors() {
    let out = lint_as("hot_alloc_clean.rs", "crates/saga-schedulers/src/sweep.rs");
    assert!(
        out.findings.is_empty(),
        "vec! in `new` is outside the run/run_recorded deny list: {:?}",
        out.findings
    );
}

#[test]
fn reasoned_suppressions_silence_without_findings() {
    let out = lint_as("suppressed_ok.rs", "crates/saga-core/src/kernel.rs");
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert_eq!(
        out.suppressed, 2,
        "line-above and trailing same-line suppressions both count"
    );
}

#[test]
fn bad_suppressions_are_themselves_findings() {
    let out = lint_as("suppression_bad.rs", "crates/saga-core/src/kernel.rs");
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

/// The mini-workspace's root manifest: the unsafe ban's table, then the
/// `#[allow]` ban's.
const WORKSPACE_MANIFEST: &str = "[workspace]

[workspace.lints.rust]
unsafe_code = \"forbid\"

[workspace.lints.clippy]
allow_attributes = \"deny\"
allow_attributes_without_reason = \"deny\"
";

/// A result-producing crate's `clippy.toml` with every determinism ban.
const CLIPPY_TOML: &str = "disallowed-methods = [
    { path = \"std::time::Instant::now\", reason = \"a clock\" },
    { path = \"std::time::SystemTime::now\", reason = \"a clock\" },
    { path = \"std::env::var\", reason = \"an env read\" },
    { path = \"std::env::var_os\", reason = \"an env read\" },
]
disallowed-types = [
    { path = \"std::collections::HashMap\", reason = \"hash order\" },
    { path = \"std::collections::HashSet\", reason = \"hash order\" },
]
";

/// Builds a throwaway mini-workspace for end-to-end `lint_root` runs: a
/// root manifest, one library file, the `clippy.toml` files and the
/// error-handling files.
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str, lib_src: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("saga_lint_fixture_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(root.join("Cargo.toml"), WORKSPACE_MANIFEST).unwrap();
        std::fs::write(root.join("src/lib.rs"), lib_src).unwrap();
        for file in CLIPPY_TOMLS {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, CLIPPY_TOML).unwrap();
        }
        for file in ERROR_SCOPE {
            let path = root.join(file);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(
                path,
                format!("//! An error-handling file.\n\n{ERROR_DENY}\n"),
            )
            .unwrap();
        }
        MiniWorkspace { root }
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn unused_reasoned_suppression_is_flagged() {
    let ws = MiniWorkspace::new("sup_unused", &fixture("suppression_unused.rs"));
    let report = saga_lint::lint_root(&ws.root, &Config::workspace()).unwrap();
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["suppression-unused"], "{:?}", report.findings);
    assert!(
        report.findings[0].message.contains("hot-alloc"),
        "{:?}",
        report.findings
    );
}

/// `file:line rule` of each finding of a `lint_root` run.
fn sites(root: &Path, cfg: &Config) -> Vec<String> {
    let report = saga_lint::lint_root(root, cfg).unwrap();
    let site = |f: &saga_lint::diag::Finding| format!("{}:{} {}", f.file, f.line, f.rule);
    report.findings.iter().map(site).collect()
}

#[test]
fn workspace_lints_need_the_forbid_table_and_every_opt_in() {
    let ws = MiniWorkspace::new("manifests", "pub fn nothing() {}\n");
    let cfg = Config::workspace();
    let member = |name: &str, lints: &str| {
        let dir = ws.root.join("crates").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = format!("[package]\nname = \"{name}\"\n{lints}");
        std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    };
    member("a", "\n[lints]\nworkspace = true\n");
    member("b", "\n[dependencies]\n");
    assert_eq!(
        sites(&ws.root, &cfg),
        ["crates/b/Cargo.toml:1 workspace-lints"]
    );
    member("b", "\n[lints]\nworkspace = true\n");
    assert!(sites(&ws.root, &cfg).is_empty());

    // `deny` can be lifted by an `allow`: only `forbid` passes
    let root = ws.root.join("Cargo.toml");
    std::fs::write(&root, WORKSPACE_MANIFEST.replace("forbid", "deny")).unwrap();
    assert_eq!(sites(&ws.root, &cfg), ["Cargo.toml:4 workspace-lints"]);

    // a root package must opt in like the members
    std::fs::write(
        &root,
        format!("{WORKSPACE_MANIFEST}[package]\nname = \"r\"\n"),
    )
    .unwrap();
    assert_eq!(sites(&ws.root, &cfg), ["Cargo.toml:1 workspace-lints"]);
}

#[test]
fn workspace_lints_need_every_determinism_ban() {
    let ws = MiniWorkspace::new("clippy", "pub fn nothing() {}\n");
    let cfg = Config::workspace();
    assert!(sites(&ws.root, &cfg).is_empty());

    // a deleted file lifts every ban at once: one finding at its path
    let pisa = ws.root.join("crates/saga-pisa/clippy.toml");
    std::fs::remove_file(&pisa).unwrap();
    assert_eq!(
        sites(&ws.root, &cfg),
        ["crates/saga-pisa/clippy.toml:1 workspace-lints"]
    );

    // so does a file that lacks one path, or lists it under the wrong key
    let lacking: String = CLIPPY_TOML
        .lines()
        .filter(|l| !l.contains("\"std::env::var_os\""))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&pisa, lacking).unwrap();
    assert_eq!(
        sites(&ws.root, &cfg),
        ["crates/saga-pisa/clippy.toml:1 workspace-lints"]
    );
    let report = saga_lint::lint_root(&ws.root, &cfg).unwrap();
    assert!(report.findings[0].message.contains("`std::env::var_os`"));
    let misplaced = CLIPPY_TOML.replace("disallowed-types", "disallowed-methods");
    std::fs::write(&pisa, misplaced).unwrap();
    assert_eq!(sites(&ws.root, &cfg).len(), 2);
}

#[test]
fn workspace_lints_need_the_allow_ban_and_every_error_deny() {
    let ws = MiniWorkspace::new("expect_only", "pub fn nothing() {}\n");
    let cfg = Config::workspace();
    assert!(sites(&ws.root, &cfg).is_empty());

    // `#[allow]` must stay refused: a weaker level is a finding at its
    // line, a missing key one at line 1
    let root = ws.root.join("Cargo.toml");
    let warn =
        WORKSPACE_MANIFEST.replace("allow_attributes = \"deny\"", "allow_attributes = \"warn\"");
    std::fs::write(&root, warn).unwrap();
    assert_eq!(sites(&ws.root, &cfg), ["Cargo.toml:7 workspace-lints"]);
    let unreasoned: String = WORKSPACE_MANIFEST
        .lines()
        .filter(|l| !l.starts_with("allow_attributes_without_reason"))
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&root, unreasoned).unwrap();
    assert_eq!(sites(&ws.root, &cfg), ["Cargo.toml:1 workspace-lints"]);
    std::fs::write(&root, WORKSPACE_MANIFEST).unwrap();

    // a deleted error-handling file, a deleted deny line and a commented
    // one are each one finding at the file's path
    let library = ws.root.join("crates/saga-pisa/src/library.rs");
    std::fs::remove_file(&library).unwrap();
    assert_eq!(
        sites(&ws.root, &cfg),
        ["crates/saga-pisa/src/library.rs:1 workspace-lints"]
    );
    for text in ["//! No deny.\n".to_string(), format!("// {ERROR_DENY}\n")] {
        std::fs::write(&library, text).unwrap();
        assert_eq!(
            sites(&ws.root, &cfg),
            ["crates/saga-pisa/src/library.rs:1 workspace-lints"]
        );
    }
}

#[test]
fn hot_path_names_without_a_definition_are_stale() {
    let ws = MiniWorkspace::new("hot_stale", "fn hot_loop_renamed() {}\nfn cold() {}\n");
    let mut cfg = Config::workspace();
    cfg.hot_paths = vec![HotPath {
        path: "src/",
        fns: Some(&["hot_loop", "cold"]),
    }];
    let report = saga_lint::lint_root(&ws.root, &cfg).unwrap();
    assert_eq!(sites(&ws.root, &cfg), ["src/:1 hot-alloc"]);
    assert!(report.findings[0].message.contains("`hot_loop`"));

    std::fs::write(
        ws.root.join("src/lib.rs"),
        "fn hot_loop() {}\nfn cold() {}\n",
    )
    .unwrap();
    assert!(sites(&ws.root, &cfg).is_empty());
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
