//! The `workspace-lints` rule: the bans rustc and clippy hold are
//! configured where a deletion shows.
//!
//! * The root `Cargo.toml` must set `unsafe_code = "forbid"` under
//!   `[workspace.lints.rust]` (`deny` is not enough: an
//!   `#[allow(unsafe_code)]` lifts it), and the root package and every
//!   member [`crate::workspace::members`] lists must opt in with `[lints]`
//!   `workspace = true`; rustc then refuses `unsafe` in every target.
//! * The same manifest must deny clippy's `allow_attributes` and
//!   `allow_attributes_without_reason` under `[workspace.lints.clippy]`,
//!   so a lint is lifted only by an `#[expect(…, reason = …)]`, which
//!   fails clippy once nothing is left to excuse.
//! * Each of the [`CLIPPY_TOMLS`] must list every [`DETERMINISM_BANS`]
//!   path under its key, and each of the [`ERROR_SCOPE`] files must hold
//!   the [`ERROR_DENY`] line, so deleting a file or a line cannot lift a
//!   ban unseen.
//!
//! A file is read line by line — `[table]` headers, `key = value` pairs
//! and `path = "…"` entries, comments stripped — with no TOML parser.

use crate::config::{CLIPPY_TOMLS, DETERMINISM_BANS, ERROR_DENY, ERROR_SCOPE};
use crate::diag::Finding;
use std::path::{Path, PathBuf};

/// What a root manifest without the forbidding table is told.
const FORBID: &str = "the workspace must forbid unsafe code in one table: \
                      `[workspace.lints.rust]` with `unsafe_code = \"forbid\"` \
                      (`deny` can be lifted by an `allow`)";

/// What a root manifest that lets `#[allow]` lift a lint is told.
const EXPECT_ONLY: &str = "the workspace must refuse `#[allow]`: `[workspace.lints.clippy]` \
                           with `allow_attributes = \"deny\"` and \
                           `allow_attributes_without_reason = \"deny\"`, so a lifted lint \
                           says why and fails clippy once its site has gone";

/// A `workspace-lints` finding at `file:line`.
fn at(file: &str, line: u32, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        col: 1,
        rule: "workspace-lints",
        message,
    }
}

/// The text of the workspace file `file`, or `None` if it is missing.
fn read_optional(root: &Path, file: &str) -> std::io::Result<Option<String>> {
    match std::fs::read_to_string(root.join(file)) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

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
        found => Some(at(
            file,
            found.map_or(1, |(_, line)| line),
            message.to_string(),
        )),
    }
}

/// The finding for a package manifest without `[lints] workspace = true`.
fn opt_in(file: &str, manifest: &str) -> Option<Finding> {
    let message = "package does not inherit the workspace lints — add `[lints]` \
                   with `workspace = true`, so the unsafe ban covers its targets";
    require(file, manifest, "lints.workspace", "true", message)
}

/// The `(key, path)` pairs of the `path = "…"` entries in `toml`, each
/// under the key of the array it sits in.
fn listed_paths(toml: &str) -> Vec<(&str, &str)> {
    let mut key = "";
    let mut out = Vec::new();
    for raw in toml.lines() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if let Some((k, _)) = line.split_once('=').filter(|_| !line.starts_with('{')) {
            key = k.trim();
        }
        let mut rest = line;
        while let Some(at) = rest.find("path") {
            rest = &rest[at + "path".len()..];
            let value = rest.trim_start().strip_prefix('=').map(str::trim_start);
            if let Some((path, _)) = value.and_then(|v| v.strip_prefix('"')?.split_once('"')) {
                out.push((key, path));
            }
        }
    }
    out
}

/// A finding at `file` for each [`DETERMINISM_BANS`] pair its text
/// (`None`: the file is missing) does not list.
fn bans(file: &str, toml: Option<&str>) -> Vec<Finding> {
    let finding = |message| at(file, 1, message);
    let Some(toml) = toml else {
        return vec![finding(
            "missing: a result-producing crate's `clippy.toml` must ban hash-order \
             collections, wall clocks and environment reads"
                .to_string(),
        )];
    };
    let listed = listed_paths(toml);
    DETERMINISM_BANS
        .iter()
        .filter(|ban| !listed.contains(ban))
        .map(|(key, path)| {
            finding(format!(
                "`{key}` does not list `{path}` — a result-producing crate \
                 must keep it out of its code"
            ))
        })
        .collect()
}

/// Checks the root manifest's two tables, the root package's opt-in,
/// the opt-in of every directory in `members` that holds a `Cargo.toml`,
/// the bans of each of the [`CLIPPY_TOMLS`] and the deny line of each of
/// the [`ERROR_SCOPE`] files.
pub fn check(root: &Path, members: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let text = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut out = Vec::new();
    let table = "workspace.lints.rust.unsafe_code";
    out.extend(require("Cargo.toml", &text, table, "forbid", FORBID));
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        let key = format!("workspace.lints.clippy.{lint}");
        out.extend(require("Cargo.toml", &text, &key, "deny", EXPECT_ONLY));
    }
    if lookup(&text, "package.name").is_some() {
        out.extend(opt_in("Cargo.toml", &text));
    }
    for manifest in members.iter().map(|m| m.join("Cargo.toml")) {
        if manifest.is_file() {
            let rel = crate::workspace::relativize(root, &manifest);
            out.extend(opt_in(&rel, &std::fs::read_to_string(&manifest)?));
        }
    }
    for &file in CLIPPY_TOMLS {
        out.extend(bans(file, read_optional(root, file)?.as_deref()));
    }
    for &file in ERROR_SCOPE {
        let text = read_optional(root, file)?.unwrap_or_default();
        if !text.lines().any(|line| line.trim() == ERROR_DENY) {
            let message = format!(
                "an error-handling file must deny unwrap, expect and panic in its \
                 library code with `{ERROR_DENY}` on a line of its own"
            );
            out.push(at(file, 1, message));
        }
    }
    Ok(out)
}
