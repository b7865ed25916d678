//! Minimal argument parsing shared by the experiment binaries (no external
//! CLI crate needed for `--flag value` pairs), and the grid binaries' one
//! checkpointed run path ([`run_grid`]).

use crate::checkpoint::{Checkpoint, Record};
use crate::engine::{BatchEngine, Progress};
use crate::grids::CellGrid;
use crate::Output;
use saga_pisa::PisaConfig;
use std::path::Path;

/// The raw value following `--name`: `Ok(None)` when the flag is absent,
/// `Err` when it is the last argument or another flag follows it.
fn raw_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let flag = format!("--{name}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// Prints `fatal: {msg}` and exits with `code`: 2 for a usage error, 1
/// for a file the run cannot read or write.
pub fn fatal(code: i32, msg: &str) -> ! {
    eprintln!("fatal: {msg}");
    std::process::exit(code)
}

/// [`fatal`] with exit 2, the usage-error exit of every experiment binary.
fn usage_exit(msg: &str) -> ! {
    fatal(2, msg)
}

/// The value following `--name`, parsed, or `default` when the flag is
/// absent. `Err` names the flag and the bad value when the value is
/// missing or does not parse.
fn try_arg_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match raw_value(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}")),
    }
}

/// Returns the value following `--name`, parsed, or `default` when the
/// flag is absent. A missing or unparseable value exits 2 with a `fatal:`
/// line: a seed or budget that silently fell back to its default would
/// rerun the default experiment while the caller believes it ran another.
pub fn arg_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    try_arg_or(args, name, default).unwrap_or_else(|e| usage_exit(&e))
}

/// [`try_arg_or`] for a count that must be at least 1: a zero count is an
/// error like an unparseable one.
fn try_count_arg(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match try_arg_or(args, name, default)? {
        0 => Err(format!("--{name}: must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// Returns the count following `--name` (`--instances`, `--restarts`,
/// `--samples`, `--reps`, `--trials`), or `default` when the flag is
/// absent. Zero, like a missing or unparseable value, exits 2 with a
/// `fatal:` line before any grid runs or any checkpoint is opened: no
/// experiment has a meaning with zero instances, restarts, samples,
/// repetitions or trials, and each would otherwise panic mid-run or print
/// a table of `NaN`s.
pub fn count_arg(args: &[String], name: &str, default: usize) -> usize {
    try_count_arg(args, name, default).unwrap_or_else(|e| usage_exit(&e))
}

/// The value following `--seed`, or `default` when the flag is absent. A
/// seed is written as the binaries' docs write it: decimal, or hex digits
/// after a `0x` prefix (`0xF164` and `61796` are the same seed).
fn try_seed_arg(args: &[String], default: u64) -> Result<u64, String> {
    let Some(v) = raw_value(args, "seed")? else {
        return Ok(default);
    };
    let seed = match v.strip_prefix("0x") {
        // `from_str_radix` takes a leading sign, which a hex seed has not
        Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).ok()
        }
        Some(_) => None,
        None => v.parse().ok(),
    };
    seed.ok_or_else(|| format!("--seed: cannot parse {v:?} (decimal or 0x-prefixed hex)"))
}

/// Returns the `--seed` value, decimal or `0x`-prefixed hex, or `default`
/// when the flag is absent; a missing or unparseable value exits 2 like
/// [`arg_or`].
pub fn seed_arg(args: &[String], default: u64) -> u64 {
    try_seed_arg(args, default).unwrap_or_else(|e| usage_exit(&e))
}

/// `Ok` when `name` is one of [`WORKFLOW_NAMES`] or of `also`, else the
/// usage error naming them all.
///
/// [`WORKFLOW_NAMES`]: saga_datasets::workflows::WORKFLOW_NAMES
fn try_workflow(name: &str, also: &[&str]) -> Result<(), String> {
    let names = saga_datasets::workflows::WORKFLOW_NAMES;
    if names.contains(&name) || also.contains(&name) {
        return Ok(());
    }
    let valid: Vec<&str> = names.iter().chain(also).copied().collect();
    Err(format!(
        "unknown workflow {name:?} (one of {})",
        valid.join(", ")
    ))
}

/// The positional workflow argument, or `default` when there is none. A
/// name that is neither a workflow nor one of `also` exits 2 with a
/// `fatal:` line naming the valid ones, before any grid runs or any
/// checkpoint is opened.
pub fn workflow_arg<'a>(args: &'a [String], default: &'a str, also: &[&str]) -> &'a str {
    let name = positional(args).unwrap_or(default);
    try_workflow(name, also).unwrap_or_else(|e| usage_exit(&e));
    name
}

/// `config` with the budget flags of every annealing binary applied:
/// `--imax`, `--restarts` (a [`count_arg`]) and `--seed`. With `quick`,
/// the CI smoke budget of 60 iterations and 1 restart replaces `config`'s
/// before the flags apply. `--imax 0` is valid: a budget of no steps
/// still runs each restart's initial evaluation.
pub fn pisa_config(args: &[String], config: PisaConfig, quick: bool) -> PisaConfig {
    let (i_max, restarts) = if quick {
        (60, 1)
    } else {
        (config.i_max, config.restarts)
    };
    PisaConfig {
        i_max: arg_or(args, "imax", i_max),
        restarts: count_arg(args, "restarts", restarts),
        seed: seed_arg(args, config.seed),
        ..config
    }
}

/// Returns the raw string following `--name`, if present; exits 2 with a
/// `fatal:` line when the flag has no value after it.
pub fn arg_str(args: &[String], name: &str) -> Option<String> {
    raw_value(args, name)
        .unwrap_or_else(|e| usage_exit(&e))
        .map(str::to_string)
}

/// Parses `--shard i/N` into a [`ShardSpec`](saga_pisa::ShardSpec)
/// (defaulting to the full grid when absent), exiting with a usage message
/// on a malformed spec — a bad shard silently treated as full would run N×
/// the intended work and collide with its siblings' checkpoints.
pub fn shard_arg(args: &[String]) -> saga_pisa::ShardSpec {
    match arg_str(args, "shard") {
        None => saga_pisa::ShardSpec::FULL,
        Some(spec) => saga_pisa::ShardSpec::parse(&spec).unwrap_or_else(|e| {
            usage_exit(&format!("{e} (expected --shard i/N, e.g. --shard 0/4)"))
        }),
    }
}

/// The checkpoint path for this run: `--checkpoint PATH` verbatim if given,
/// otherwise `base` with the shard's `.shard{i}of{N}` suffix (no suffix for
/// a full run — 1-host runs keep their historical filenames).
pub fn checkpoint_path(
    args: &[String],
    shard: saga_pisa::ShardSpec,
    base: &str,
) -> std::path::PathBuf {
    match arg_str(args, "checkpoint") {
        Some(p) => std::path::PathBuf::from(p),
        None => shard.checkpoint_path(std::path::Path::new(base)),
    }
}

/// The grid binaries' exit path for a checkpoint write error: unwraps the
/// run's `result`, or prints a `fatal:` line and exits 1.
pub fn written_or_exit<T>(result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        fatal(
            1,
            &format!(
                "checkpoint write failed: {e} — records written before the failure \
                 are flushed; re-run with --resume after freeing space"
            ),
        )
    })
}

/// Opens the checkpoint at `path` (reading it back with `resume`), or
/// prints a `fatal:` line and exits 1; says how many of its records,
/// `what`, resume.
pub fn open_checkpoint<R: Record>(path: &Path, resume: bool, what: &str) -> Checkpoint<R> {
    let checkpoint = Checkpoint::open(path, resume).unwrap_or_else(|e| {
        fatal(
            1,
            &format!("cannot open checkpoint {}: {e}", path.display()),
        )
    });
    if resume && checkpoint.loaded() > 0 {
        eprintln!(
            "resuming: {} {what} already in {}",
            checkpoint.loaded(),
            path.display()
        );
    }
    checkpoint
}

/// The grid binaries' one run path: runs this `--shard`'s cells of `grid`
/// against its checkpoint (`--checkpoint`, or the grid's own file with the
/// shard's suffix, replayed with `--resume`), exits 1 on a checkpoint
/// error, and renders the results. A partial shard renders nothing, since
/// its output is the checkpoint: it says so and returns `None`.
pub fn run_grid(args: &[String], engine: &BatchEngine, grid: &dyn CellGrid) -> Option<Output> {
    let shard = shard_arg(args);
    let base = format!("results/{}_cells.jsonl", grid.name().replace('/', "_"));
    let path = checkpoint_path(args, shard, &base);
    let checkpoint = open_checkpoint(&path, flag(args, "resume"), "cells");
    let cells = grid.cells();
    let total = cells.len();
    let cells = saga_pisa::shard_cells(cells, shard);
    let progress = Progress::new(grid.name(), cells.len());
    let results = written_or_exit(engine.run_cells(&cells, Some(&progress), Some(&checkpoint)));
    if !shard.is_full() {
        eprintln!(
            "shard {shard} complete: {} of {total} cells in {} — merge all shards with \
             saga-merge, then render with --resume",
            results.len(),
            path.display()
        );
        return None;
    }
    Some(grid.render(engine, &results))
}

/// The value-less switches: every other `--name` takes the argument after it.
const SWITCHES: [&str; 2] = ["--resume", "--quick"];

/// Whether the switch `--name` is present. `name` must be one of the
/// switches [`positional`] knows take no value.
pub fn flag(args: &[String], name: &str) -> bool {
    let flag = format!("--{name}");
    debug_assert!(SWITCHES.contains(&flag.as_str()), "unknown switch {flag}");
    args.contains(&flag)
}

/// Returns the first positional (non-flag) argument, if any.
pub fn positional(args: &[String]) -> Option<&str> {
    let mut skip = false;
    for a in args.iter().skip(1) {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !SWITCHES.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flag_values() {
        let args = v(&["prog", "--instances", "42", "--imax", "100"]);
        assert_eq!(arg_or(&args, "instances", 0usize), 42);
        assert_eq!(arg_or(&args, "imax", 0usize), 100);
        assert_eq!(arg_or(&args, "missing", 7u64), 7);
    }

    #[test]
    fn finds_positional_between_flags() {
        let args = v(&["prog", "--imax", "100", "blast", "--seed", "1"]);
        assert_eq!(positional(&args), Some("blast"));
        assert_eq!(positional(&v(&["prog", "--imax", "9"])), None);
    }

    #[test]
    fn switches_take_no_value() {
        let args = v(&["prog", "--resume", "blast", "--imax", "9"]);
        assert_eq!(positional(&args), Some("blast"));
        assert_eq!(positional(&v(&["prog", "--quick", "HEFT"])), Some("HEFT"));
        assert!(flag(&args, "resume"));
        assert!(!flag(&args, "quick"));
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let args = v(&["prog", "--instances", "many"]);
        assert_eq!(
            try_arg_or(&args, "instances", 5usize),
            Err("--instances: cannot parse \"many\"".to_string())
        );
        let args = v(&["prog", "--seed", "0x2"]);
        let e = try_arg_or(&args, "seed", 1u64).unwrap_err();
        assert!(e.contains("--seed") && e.contains("0x2"), "{e}");
        let args = v(&["prog", "--imax", "6O"]);
        assert!(try_arg_or(&args, "imax", 1usize).is_err());
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        let hex = v(&["prog", "--seed", "0xF164"]);
        let dec = v(&["prog", "--seed", "61796"]);
        assert_eq!(try_seed_arg(&hex, 1), Ok(0xF164));
        assert_eq!(try_seed_arg(&dec, 1), Ok(0xF164));
        assert_eq!(try_seed_arg(&v(&["prog"]), 7), Ok(7));
        for bad in ["0xZZ", "0x", "0x+F167", "0x-1"] {
            let e = try_seed_arg(&v(&["prog", "--seed", bad]), 1).unwrap_err();
            assert!(e.starts_with("--seed") && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn unknown_workflows_are_usage_errors() {
        assert_eq!(try_workflow("blast", &[]), Ok(()));
        assert_eq!(try_workflow("all", &["all"]), Ok(()));
        for (bad, also) in [
            ("nosuch", &["all"][..]),
            ("all", &[]),
            ("", &[]),
            ("Blast", &[]),
        ] {
            let e = try_workflow(bad, also).unwrap_err();
            assert!(e.starts_with(&format!("unknown workflow {bad:?}")), "{e}");
            assert!(e.contains("blast, bwa") && e.contains("srasearch"), "{e}");
            assert_eq!(e.ends_with(", all)"), !also.is_empty(), "{e}");
        }
        let args = v(&["prog", "--imax", "2", "montage"]);
        assert_eq!(workflow_arg(&args, "blast", &[]), "montage");
        assert_eq!(workflow_arg(&v(&["prog"]), "blast", &[]), "blast");
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for name in ["instances", "restarts", "samples", "reps", "trials"] {
            let e = try_count_arg(&v(&["prog", &format!("--{name}"), "0"]), name, 5).unwrap_err();
            assert_eq!(e, format!("--{name}: must be at least 1, got 0"));
            assert_eq!(
                try_count_arg(&v(&["prog", &format!("--{name}"), "1"]), name, 5),
                Ok(1)
            );
            assert_eq!(try_count_arg(&v(&["prog"]), name, 5), Ok(5));
            let e = try_count_arg(&v(&["prog", &format!("--{name}"), "-1"]), name, 5).unwrap_err();
            assert!(e.contains("cannot parse"), "{e}");
        }
        // a budget of no annealing steps still runs
        let args = v(&["prog", "--imax", "0", "--restarts", "2"]);
        let config = pisa_config(&args, PisaConfig::default(), false);
        assert_eq!((config.i_max, config.restarts), (0, 2));
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = v(&["prog", "--quick", "--imax"]);
        assert_eq!(
            try_arg_or(&args, "imax", 5usize),
            Err("--imax needs a value".to_string())
        );
        // another flag where the value should be
        let args = v(&["prog", "--imax", "--restarts", "2"]);
        assert_eq!(
            try_arg_or(&args, "imax", 5usize),
            Err("--imax needs a value".to_string())
        );
        assert_eq!(try_arg_or(&args, "restarts", 5usize), Ok(2));
        assert_eq!(try_arg_or(&args, "seed", 5u64), Ok(5));
    }

    #[test]
    fn shard_defaults_to_full_and_parses_specs() {
        assert!(shard_arg(&v(&["prog"])).is_full());
        let s = shard_arg(&v(&["prog", "--shard", "1/4"]));
        assert_eq!((s.index, s.count), (1, 4));
    }

    #[test]
    fn checkpoint_path_prefers_explicit_flag() {
        let shard = saga_pisa::ShardSpec { index: 1, count: 2 };
        assert_eq!(
            checkpoint_path(&v(&["prog"]), shard, "results/x_cells.jsonl"),
            std::path::Path::new("results/x_cells.shard1of2.jsonl")
        );
        assert_eq!(
            checkpoint_path(
                &v(&["prog", "--checkpoint", "/tmp/mine.jsonl"]),
                shard,
                "results/x_cells.jsonl"
            ),
            std::path::Path::new("/tmp/mine.jsonl")
        );
    }
}
