//! The witness-library binaries on damaged input: a record whose instance
//! is valid JSON but not a valid instance (a speed of `-1`) is counted as a
//! revalidation mismatch by `evaluate_library` and skipped by
//! `characterize`, and bad arguments or files end in a `fatal:` line with
//! exit 2 (usage) or 1 (file), never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// One witness line whose instance fails `Instance::from_json`.
const DAMAGED: &str = r#"{"target":"HEFT","baseline":"CPoP","ratio":2,"instance":{"speeds":[-1],"links":[null],"tasks":[["a",1]],"deps":[]}}"#;

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "saga_witness_binaries_{}_{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("results")).unwrap();
        Scratch(dir)
    }

    /// Writes `text` to `rel` under the directory and returns its path.
    fn write(&self, rel: &str, text: &str) -> PathBuf {
        let path = self.0.join(rel);
        std::fs::write(&path, text).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(bin: &str, args: &[&str], cwd: &Path) -> (Option<i32>, String, String) {
    let Output {
        status,
        stdout,
        stderr,
    } = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .unwrap();
    (
        status.code(),
        String::from_utf8_lossy(&stdout).into_owned(),
        String::from_utf8_lossy(&stderr).into_owned(),
    )
}

#[test]
fn evaluate_library_counts_an_undecodable_instance_as_a_mismatch() {
    let dir = Scratch::new("evaluate");
    // the same line with a valid speed and the true ratio revalidates, so
    // the speed alone makes the mismatch
    let healthy = DAMAGED
        .replace("[-1]", "[1]")
        .replace(r#""ratio":2"#, r#""ratio":1"#);
    for (line, mismatches) in [(DAMAGED, 1), (healthy.as_str(), 0)] {
        let lib = dir.write("library.jsonl", &format!("{line}\n"));
        for candidate in ["HEFT", "Ensemble"] {
            let (code, out, err) = run(
                env!("CARGO_BIN_EXE_evaluate_library"),
                &[candidate, "--library", lib.to_str().unwrap()],
                &dir.0,
            );
            assert_eq!(code, Some(0), "{candidate} on {line}: {err}");
            let want = format!("library revalidation mismatches: {mismatches}");
            assert!(out.contains(&want), "{candidate} on {line}: {out}");
        }
    }
}

#[test]
fn characterize_skips_an_undecodable_instance_and_names_a_malformed_library() {
    let dir = Scratch::new("characterize");
    let characterize = |library: &str| {
        dir.write("results/fig4_witnesses.jsonl", library);
        let (code, out, err) = run(
            env!("CARGO_BIN_EXE_characterize"),
            &["--samples", "1"],
            &dir.0,
        );
        assert_eq!(code, Some(0), "{err}");
        (out, err)
    };
    let (out, _) = characterize(&format!("{DAMAGED}\n"));
    assert!(
        out.contains("skipped 1 witness record(s) whose instance does not decode"),
        "{out}"
    );
    let (_, err) = characterize("not a witness\n");
    assert!(err.contains("does not parse"), "{err}");
}

#[test]
fn evaluate_library_exits_fatal_on_bad_arguments_and_files() {
    let dir = Scratch::new("fatal");
    let damaged = dir.write("damaged.jsonl", &format!("{DAMAGED}\n"));
    let malformed = dir.write("malformed.jsonl", "not a witness\n");
    let missing = dir.0.join("missing.jsonl");
    let cases: [(&[&str], i32); 3] = [
        (&["nosuch", "--library", damaged.to_str().unwrap()], 2),
        (&["HEFT", "--library", malformed.to_str().unwrap()], 1),
        (&["HEFT", "--library", missing.to_str().unwrap()], 1),
    ];
    for (args, want) in cases {
        let (code, _, err) = run(env!("CARGO_BIN_EXE_evaluate_library"), args, &dir.0);
        assert_eq!(code, Some(want), "{args:?}: {err}");
        assert!(err.starts_with("fatal: "), "{args:?}: {err}");
    }
}
