//! Minimal argument parsing shared by the experiment binaries (no external
//! CLI crate needed for `--flag value` pairs).

/// Returns the value following `--name`, parsed, or `default`.
pub fn arg_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let flag = format!("--{name}");
    args.windows(2)
        .find(|w| w[0] == flag)
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

/// Returns the raw string following `--name`, if present.
pub fn arg_str(args: &[String], name: &str) -> Option<String> {
    let flag = format!("--{name}");
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// Parses `--shard i/N` into a [`ShardSpec`](saga_pisa::ShardSpec)
/// (defaulting to the full grid when absent), exiting with a usage message
/// on a malformed spec — a bad shard silently treated as full would run N×
/// the intended work and collide with its siblings' checkpoints.
pub fn shard_arg(args: &[String]) -> saga_pisa::ShardSpec {
    match arg_str(args, "shard") {
        None => saga_pisa::ShardSpec::FULL,
        Some(spec) => saga_pisa::ShardSpec::parse(&spec).unwrap_or_else(|e| {
            eprintln!("fatal: {e} (expected --shard i/N, e.g. --shard 0/4)");
            std::process::exit(2);
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

/// What a grid binary was doing when its checkpoint failed, for
/// [`checkpoint_or_exit`].
pub enum CheckpointOp<'a> {
    /// Opening (and, with `--resume`, reading) the checkpoint at this path.
    Open(&'a std::path::Path),
    /// Appending a record during the run.
    Write,
}

/// The grid binaries' one exit path for checkpoint errors: unwraps
/// `result`, or prints a `fatal:` line for `op` and exits 1.
pub fn checkpoint_or_exit<T>(result: std::io::Result<T>, op: CheckpointOp<'_>) -> T {
    result.unwrap_or_else(|e| {
        match op {
            CheckpointOp::Open(path) => {
                eprintln!("fatal: cannot open checkpoint {}: {e}", path.display())
            }
            CheckpointOp::Write => eprintln!(
                "fatal: checkpoint write failed: {e} — records written before the failure \
                 are flushed; re-run with --resume after freeing space"
            ),
        }
        std::process::exit(1)
    })
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
            skip = true;
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
    fn unparseable_value_falls_back() {
        let args = v(&["prog", "--instances", "many"]);
        assert_eq!(arg_or(&args, "instances", 5usize), 5);
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
