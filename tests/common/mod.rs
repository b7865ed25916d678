//! Fixture comparison and regeneration shared by the golden suites.

use std::path::Path;

/// Asserts `current` equals the fixture at `path` line for line, naming
/// every line whose bits moved.
pub fn assert_matches_golden(path: &Path, current: &[String], what: &str) {
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture missing — run the regen command in the suite's docs");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        current.len(),
        "{} has {} entries, battery produces {}",
        path.display(),
        golden.len(),
        current.len()
    );
    let mismatches: Vec<String> = golden
        .iter()
        .zip(current)
        .filter(|(g, c)| *g != c)
        .map(|(g, c)| format!("golden: {g}\n   now: {c}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} {what} changed:\n{}",
        mismatches.len(),
        current.len(),
        mismatches.join("\n")
    );
}

/// Overwrites the fixture at `path` with `lines`; `GOLDEN_REGEN=1` must
/// confirm it (the suites' `--ignored` regeneration tests).
pub fn regenerate(path: &Path, lines: &[String]) {
    assert_eq!(
        std::env::var("GOLDEN_REGEN").as_deref(),
        Ok("1"),
        "set GOLDEN_REGEN=1 to confirm overwriting {}",
        path.display()
    );
    std::fs::write(path, lines.join("\n") + "\n").expect("write golden fixture");
    println!("wrote {} entries to {}", lines.len(), path.display());
}
