//! Workspace file discovery: every `.rs` file the lint pass covers, in a
//! deterministic order, classified by how it participates in rule scopes.

use crate::rules::FileKind;
use std::path::{Path, PathBuf};

/// One discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative `/`-separated path (the one diagnostics print).
    pub rel: String,
    /// Scope classification.
    pub kind: FileKind,
}

/// Discovers the lintable files under `root`: the root package's `src/`,
/// `tests/`, and `examples/`, every workspace crate's `src/` and `tests/`,
/// and the vendored stand-ins' `src/` (scanned for the
/// env-registry rule). Paths containing a `skip` fragment are excluded.
pub fn discover(root: &Path, skip: &[&str]) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(root, &root.join(top), skip, &mut files)?;
    }
    for member in members(root)? {
        for sub in ["src", "tests"] {
            walk(root, &member.join(sub), skip, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

/// The member directories [`discover`] walks: every directory under
/// `crates/` and `vendor/`, sorted.
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
            let kind = classify(&rel);
            out.push(SourceFile {
                abs: path,
                rel,
                kind,
            });
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

/// Scope classification from the relative path alone.
pub fn classify(rel: &str) -> FileKind {
    if rel.starts_with("vendor/") {
        FileKind::Vendor
    } else if rel.split('/').any(|c| c == "tests") {
        FileKind::Test
    } else if rel.contains("/src/bin/")
        || rel.ends_with("src/main.rs")
        || rel.starts_with("examples/")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(classify("crates/saga-core/src/kernel.rs"), FileKind::Lib);
        assert_eq!(
            classify("crates/saga-experiments/src/bin/fig4.rs"),
            FileKind::Bin
        );
        assert_eq!(classify("tests/golden_determinism.rs"), FileKind::Test);
        assert_eq!(classify("crates/saga-pisa/tests/x.rs"), FileKind::Test);
        assert_eq!(classify("vendor/rayon/src/lib.rs"), FileKind::Vendor);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Bin);
        assert_eq!(classify("src/lib.rs"), FileKind::Lib);
    }
}
