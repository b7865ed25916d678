//! Workspace file discovery: every `.rs` file the lint pass covers, and
//! every member directory whose manifest it checks, in a deterministic
//! order.

use std::path::{Path, PathBuf};

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative `/`-separated path (the one diagnostics print).
    pub rel: String,
}

/// Discovers the lintable files under `root`: the root package's `src/`,
/// `tests/`, and `examples/`, and every `crates/` member's `src/` and
/// `tests/` (the vendored stand-ins are not the project's code). Paths
/// containing a `skip` fragment are excluded.
pub fn discover(root: &Path, skip: &[&str]) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(root, &root.join(top), skip, &mut files)?;
    }
    let vendor = root.join("vendor");
    for member in members(root)?.iter().filter(|m| !m.starts_with(&vendor)) {
        for sub in ["src", "tests"] {
            walk(root, &member.join(sub), skip, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// The member directories: every directory under `crates/` and
/// `vendor/`, sorted.
pub fn members(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        if dir.is_dir() {
            out.extend(sorted_entries(&dir)?);
        }
    }
    Ok(out)
}

fn sorted_entries(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, skip: &[&str], out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let rel = relativize(root, &path);
        if skip.iter().any(|s| rel.contains(s)) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, skip, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(SourceFile { abs: path, rel });
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (the form diagnostics print).
pub(crate) fn relativize(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for c in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&c.as_os_str().to_string_lossy());
    }
    s
}
