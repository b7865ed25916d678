//! Findings, rustc-style rendering, and the JSON report.

use std::fmt;

/// One lint finding at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule name (one of [`crate::config::RULES`] or a `suppression-*`
    /// meta rule).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // rustc's --message-format=short shape: file:line:col: error[code]: msg
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings silenced by a well-formed, reasoned suppression.
    pub suppressed: usize,
    /// Wall-clock milliseconds the lint pass took (set by the CLI; the
    /// JSON artifact carries it so CI can watch the linter's own cost).
    pub wall_ms: u64,
}

impl Report {
    /// Renders the machine-readable JSON report (hand-emitted: the linter
    /// is dependency-free on purpose).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                f.col,
                json_str(f.rule),
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"total\": {},\n  \"wall_ms\": {}\n}}\n",
            self.files_scanned,
            self.suppressed,
            self.findings.len(),
            self.wall_ms
        ));
        out
    }
}

/// JSON string literal with the escapes the report can actually contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_rustc_short_style() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            rule: "hot-alloc",
            message: "allocation".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:3:9: error[hot-alloc]: allocation"
        );
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.findings.push(Finding {
            file: "f.rs".into(),
            line: 1,
            col: 1,
            rule: "hot-alloc",
            message: "m".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"rule\": \"hot-alloc\""));
        assert!(j.contains("\"total\": 1"));
    }
}
