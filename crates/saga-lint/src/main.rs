//! The `saga-lint` CLI: lints the workspace, prints rustc-style
//! diagnostics, optionally writes a JSON report, and exits nonzero on any
//! finding. Run as `cargo run -p saga-lint` (CI runs it with `--json` and
//! uploads the report).

use saga_lint::config::Config;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--json" => {
                // optional path operand; defaults under results/
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    json = Some(PathBuf::from(&args[i + 1]));
                    i += 2;
                } else {
                    json = Some(PathBuf::from("results/saga-lint.json"));
                    i += 1;
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "saga-lint — workspace invariant checker\n\
                     usage: saga-lint [--root <workspace>] [--json [path]]\n\
                     rules: {}",
                    saga_lint::config::RULES.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("saga-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        saga_lint::find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!("saga-lint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };

    let cfg = Config::workspace();
    let started = std::time::Instant::now();
    let mut report = match saga_lint::lint_root(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("saga-lint: IO error while scanning: {e}");
            return ExitCode::from(2);
        }
    };
    report.wall_ms = started.elapsed().as_millis() as u64;

    for f in &report.findings {
        println!("{f}");
    }
    if let Some(json_path) = json {
        let path = if json_path.is_absolute() {
            json_path
        } else {
            root.join(json_path)
        };
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("saga-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("saga-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("saga-lint: report written to {}", path.display());
    }
    eprintln!(
        "saga-lint: {} files scanned, {} finding(s), {} suppressed, {} ms",
        report.files_scanned,
        report.findings.len(),
        report.suppressed,
        report.wall_ms
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
