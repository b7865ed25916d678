//! The `workspace-lints` rule: the unsafe ban has one home, a Cargo table.
//!
//! The root `Cargo.toml` must set `unsafe_code = "forbid"` under
//! `[workspace.lints.rust]` (`deny` is not enough: an
//! `#[allow(unsafe_code)]` lifts it), and the root package and every member
//! [`crate::workspace::members`] lists must opt in with `[lints]`
//! `workspace = true`; rustc then refuses `unsafe` in every target. A
//! manifest is read line by line — `[table]` headers and `key = value`
//! pairs, comments stripped — with no TOML parser.

use crate::diag::Finding;
use std::path::{Path, PathBuf};

/// What a root manifest without the forbidding table is told.
const FORBID: &str = "the workspace must forbid unsafe code in one table: \
                      `[workspace.lints.rust]` with `unsafe_code = \"forbid\"` \
                      (`deny` can be lifted by an `allow`)";

/// The unquoted value `manifest` gives the dotted key `key` (the table
/// path plus the key, e.g. `lints.workspace`), with its 1-based line.
fn lookup(manifest: &str, key: &str) -> Option<(String, u32)> {
    let mut table = String::new();
    for (n, raw) in manifest.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = format!("{}.", header.trim());
        } else if let Some((k, v)) = line.split_once('=') {
            if format!("{table}{}", k.trim()) == key {
                return Some((v.trim().trim_matches(['"', '\'']).to_string(), n as u32 + 1));
            }
        }
    }
    None
}

/// A finding at `file` (at the key's line, or line 1 without the key)
/// unless `manifest` gives `key` the value `want`.
fn require(file: &str, manifest: &str, key: &str, want: &str, message: &str) -> Option<Finding> {
    match lookup(manifest, key) {
        Some((value, _)) if value == want => None,
        found => Some(Finding {
            file: file.to_string(),
            line: found.map_or(1, |(_, line)| line),
            col: 1,
            rule: "workspace-lints",
            message: message.to_string(),
        }),
    }
}

/// The finding for a package manifest without `[lints] workspace = true`.
fn opt_in(file: &str, manifest: &str) -> Option<Finding> {
    let message = "package does not inherit the workspace lints — add `[lints]` \
                   with `workspace = true`, so the unsafe ban covers its targets";
    require(file, manifest, "lints.workspace", "true", message)
}

/// Checks the root manifest's table, the root package's opt-in, and the
/// opt-in of every directory in `members` that holds a `Cargo.toml`.
pub fn check(root: &Path, members: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let text = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut out = Vec::new();
    let table = "workspace.lints.rust.unsafe_code";
    out.extend(require("Cargo.toml", &text, table, "forbid", FORBID));
    if lookup(&text, "package.name").is_some() {
        out.extend(opt_in("Cargo.toml", &text));
    }
    for manifest in members.iter().map(|m| m.join("Cargo.toml")) {
        if manifest.is_file() {
            let rel = crate::workspace::relativize(root, &manifest);
            out.extend(opt_in(&rel, &std::fs::read_to_string(&manifest)?));
        }
    }
    Ok(out)
}
