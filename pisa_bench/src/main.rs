//! `pisa_bench`: one benchmark for the paper's grid workloads.
//!
//! ```text
//! pisa_bench --workload <fig4|app|fig2|resume|all> [--seed N] [--seconds S] [--trace 0|1]
//! pisa_bench diff <parent run files…> -- <change run files…>
//! ```
//!
//! A run is a closed loop: one process runs one grid at a time on two
//! engine workers, rep after rep, until `--seconds` have passed (for `app`,
//! until the pass over the grid in progress ends). Set-up, including one
//! untimed warm-up rep, runs seven times; `setup_s` is the median. Each
//! workload prints a manifest line and then a result line of JSON; see
//! `README.md` for the metrics. `--trace 1` replaces the timed loop with the
//! traced run of `trace.rs` and prints the per-layer metrics instead.
//! `all` runs each workload in its own process.

mod diff;
mod grids;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Record};
use saga_experiments::engine::Progress;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Bench, Kind, Outputs, Tally};

const USAGE: &str = "usage: pisa_bench --workload <fig4|app|fig2|resume|all> [--seed N] \
                     [--seconds S] [--trace 0|1]\n       \
                     pisa_bench diff <parent run files…> -- <change run files…>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// Engine workers of the timed loop.
const WORKERS: usize = 2;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("items_per_s", "1/s"),
    ("rep_ms_p50", "ms"),
    ("rep_ms_p80", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

struct Options {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: None,
        seconds: 25.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = Some(parse_u64(value).ok_or_else(bad)?),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if opts.workload != "all" && Kind::parse(&opts.workload).is_none() {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().is_some_and(|a| a == "diff") {
        match diff::run(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("pisa_bench diff: {e}");
                2
            }
        }
    } else {
        match parse(&args) {
            Err(e) => {
                eprintln!("pisa_bench: {e}\n{USAGE}");
                2
            }
            Ok(opts) => match Kind::parse(&opts.workload) {
                Some(kind) => run_one(kind, &opts),
                None => run_all(&opts),
            },
        }
    };
    std::process::exit(code);
}

/// Runs every workload in a fresh process of its own, so memory peaks and
/// warm caches do not carry from one workload to the next.
fn run_all(opts: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pisa_bench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for kind in Kind::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(seed) = opts.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("pisa_bench: workload {} exited with {status}", kind.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("pisa_bench: cannot run workload {}: {e}", kind.name());
                code = 1;
            }
        }
    }
    code
}

fn run_one(kind: Kind, opts: &Options) -> i32 {
    let seed = opts.seed.unwrap_or(kind.default_seed());
    let result = ScratchDir::create(kind).and_then(|dir| {
        if opts.trace {
            trace_run(kind, seed, opts.seconds, &dir.0)
        } else {
            timed_run(kind, seed, opts.seconds, &dir.0)
        }
    });
    match result {
        Ok(record) => {
            for line in record.lines() {
                println!("{line}");
            }
            i32::from(record.failed > 0)
        }
        Err(e) => {
            eprintln!("pisa_bench: workload {}: {e}", kind.name());
            1
        }
    }
}

/// The checkpoint directory of one run, under the working directory;
/// removed when the run ends.
struct ScratchDir(PathBuf);

const SCRATCH_ROOT: &str = ".pisa_bench_tmp";

impl ScratchDir {
    fn create(kind: Kind) -> io::Result<ScratchDir> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // fails while another run still uses the root; that run removes it
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// The engine's worker count. The vendored rayon reads
/// `RAYON_NUM_THREADS` at every parallel call, and no other thread runs
/// while the benchmark's main thread sets it.
fn set_workers(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first digest seen per grid, against which every later rep of the
/// grid is checked. The outputs behind a first digest go through
/// [`Bench::deep_check`].
struct References(BTreeMap<usize, u64>);

impl References {
    fn new(bench: &Bench, tally: &mut Tally) -> References {
        let mut refs = BTreeMap::new();
        if let Some(files) = &bench.resume {
            bench.deep_check(&files.reference, tally);
            refs.insert(0, bench.digest(&files.reference));
        }
        References(refs)
    }

    fn accept(&mut self, bench: &Bench, r: usize, out: &Outputs, tally: &mut Tally) {
        if let Outputs::Replay { clean, .. } = out {
            tally.check(*clean);
        }
        let digest = bench.digest(out);
        match self.0.entry(bench.grid_of(r)) {
            std::collections::btree_map::Entry::Occupied(e) => tally.check(*e.get() == digest),
            std::collections::btree_map::Entry::Vacant(e) => {
                bench.deep_check(out, tally);
                e.insert(digest);
            }
        }
    }

    /// One digest over every grid's, in grid order.
    fn combined(&self) -> String {
        let bytes: Vec<u8> = self.0.values().flat_map(|d| d.to_le_bytes()).collect();
        format!("{:016x}", saga_core::fnv1a(&bytes))
    }
}

fn manifest(seed: u64, workers: usize) -> Vec<(String, Value)> {
    vec![
        ("seed".into(), Value::String(format!("{seed:#x}"))),
        ("workers".into(), Value::Number(workers as f64)),
        ("nproc".into(), Value::Number(nproc() as f64)),
    ]
}

/// The timed loop: end-to-end metrics.
fn timed_run(kind: Kind, seed: u64, seconds: f64, dir: &Path) -> io::Result<Record> {
    set_workers(WORKERS);
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let speed = stats::speed(WORKERS);
        let t0 = Instant::now();
        let bench = Bench::setup(kind, seed, dir)?;
        let warm = bench.rep(0, None)?;
        setup_s.push(t0.elapsed().as_secs_f64() * speed);
        state = Some((bench, warm));
    }
    let (bench, warm) = state.expect("at least one set-up");
    let mut tally = Tally::default();
    let mut refs = References::new(&bench, &mut tally);
    refs.accept(&bench, 0, &warm, &mut tally);
    drop(warm);

    // per rep: wall seconds, and wall seconds scaled to the nominal machine
    let (mut wall_s, mut rep_s) = (Vec::new(), Vec::new());
    let mut items = 0;
    let t0 = Instant::now();
    let mut r = 0;
    while t0.elapsed().as_secs_f64() < seconds || r % bench.cycle() != 0 {
        let speed = stats::speed(WORKERS);
        let t = Instant::now();
        let out = bench.rep(r, None);
        let dt = t.elapsed().as_secs_f64();
        match out {
            Ok(out) => {
                wall_s.push(dt);
                rep_s.push(dt * speed);
                items += bench.items(bench.grid_of(r));
                refs.accept(&bench, r, &out, &mut tally);
            }
            Err(e) => {
                eprintln!("pisa_bench: {} rep {r}: {e}", kind.name());
                tally.check(false);
            }
        }
        r += 1;
    }
    if rep_s.is_empty() {
        return Err(io::Error::other("no rep completed"));
    }
    let rep_ms: Vec<f64> = rep_s.iter().map(|s| s * 1e3).collect();
    let wall_ms: Vec<f64> = wall_s.iter().map(|s| s * 1e3).collect();
    let values = [
        items as f64 / rep_s.iter().sum::<f64>(),
        stats::median(&rep_ms),
        stats::quantile(&rep_ms, 0.8),
        stats::median(&setup_s),
        stats::peak_rss_mb()?,
    ];
    let mut m = manifest(seed, WORKERS);
    m.extend([
        ("reps".into(), Value::Number(rep_s.len() as f64)),
        ("items".into(), Value::Number(items as f64)),
        ("setups".into(), Value::Number(SETUPS as f64)),
        ("run_s".into(), Value::Number(t0.elapsed().as_secs_f64())),
        (
            "wall_items_per_s".into(),
            Value::Number(items as f64 / wall_s.iter().sum::<f64>()),
        ),
        (
            "wall_rep_ms_p50".into(),
            Value::Number(stats::median(&wall_ms)),
        ),
        (
            "wall_rep_ms_p80".into(),
            Value::Number(stats::quantile(&wall_ms, 0.8)),
        ),
        ("digest".into(), Value::String(refs.combined())),
    ]);
    Ok(Record {
        workload: kind.name().into(),
        trace: false,
        manifest: m,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit,
            })
            .collect(),
    })
}

/// Times one pass and checks its digest.
fn pass(
    bench: &Bench,
    r: usize,
    refs: &mut References,
    tally: &mut Tally,
    f: impl FnOnce() -> io::Result<Outputs>,
) -> io::Result<f64> {
    let t0 = Instant::now();
    let out = f()?;
    let wall = t0.elapsed().as_secs_f64();
    refs.accept(bench, r, &out, tally);
    Ok(wall)
}

/// The traced run: per-layer metrics. Each round runs the grid four times
/// — engine at two workers, engine at one, direct calls untraced, direct
/// calls traced — and every pass must produce the first pass's digest.
fn trace_run(kind: Kind, seed: u64, seconds: f64, dir: &Path) -> io::Result<Record> {
    let calibration = trace::calibrate();
    set_workers(WORKERS);
    let bench = Bench::setup(kind, seed, dir)?;
    let mut tally = Tally::default();
    let mut refs = References::new(&bench, &mut tally);
    let (traced, untraced) = (trace::Tracer::on(), trace::Tracer::off());
    let mut walls = trace::Walls::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || t0.elapsed().as_secs_f64() < seconds {
        for r in 0..bench.cycle() {
            let label = format!("pisa_bench/{}", kind.name());
            let progress = Progress::new(label, bench.items(bench.grid_of(r)));
            set_workers(WORKERS);
            walls.engine2 += pass(&bench, r, &mut refs, &mut tally, || {
                bench.rep(r, Some(&progress))
            })?;
            walls.claims += progress.claims() as f64;
            walls.steals += progress.steals() as f64;
            set_workers(1);
            walls.engine1 += pass(&bench, r, &mut refs, &mut tally, || bench.rep(r, None))?;
            walls.direct += pass(&bench, r, &mut refs, &mut tally, || {
                trace::direct(&bench, r, &untraced)
            })?;
            walls.traced += pass(&bench, r, &mut refs, &mut tally, || {
                trace::direct(&bench, r, &traced)
            })?;
        }
        rounds += 1;
    }
    let names: Vec<&str> = bench.schedulers.iter().map(|s| s.name()).collect();
    let metrics = trace::layer_metrics(&traced, &names, &walls, calibration);
    let mut m = manifest(seed, 1);
    m.extend([
        ("rounds".into(), Value::Number(f64::from(rounds))),
        ("span_inner_ns".into(), Value::Number(calibration.0)),
        ("span_outer_ns".into(), Value::Number(calibration.1)),
        ("engine2_s".into(), Value::Number(walls.engine2)),
        ("engine1_s".into(), Value::Number(walls.engine1)),
        ("direct_s".into(), Value::Number(walls.direct)),
        ("traced_s".into(), Value::Number(walls.traced)),
        ("digest".into(), Value::String(refs.combined())),
    ]);
    Ok(Record {
        workload: kind.name().into(),
        trace: true,
        manifest: m,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists of `BENCHMARK.json` at the repository root.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        v.get(section)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let names: Vec<&str> = saga_schedulers::benchmark_schedulers()
            .iter()
            .map(|s| s.name())
            .collect();
        let layers: Vec<(String, String)> = trace::layer_metrics(
            &trace::Tracer::off(),
            &names,
            &trace::Walls::default(),
            (0.0, 0.0),
        )
        .into_iter()
        .map(|m| (m.name, m.unit.to_string()))
        .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn arguments_follow_the_driver_protocol() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload fig2 --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("fig2", Some(7), 20.0, true)
        );
        assert_eq!(
            parse(&args("--workload all --seed 0xF164")).unwrap().seed,
            Some(0xF164)
        );
        for bad in [
            "--workload nope",
            "--workload fig4 --trace 2",
            "--workload fig4 --seconds 0",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
