//! The traced run: per-layer time and counts.
//!
//! Spans are recorded from the benchmark's own files, around public calls
//! into each layer, on one thread. The grids are re-expressed from those
//! calls: an objective closure handed to `annealer::maximize_in` (kernel
//! refresh, then the target's and the baseline's incremental runs), a
//! timed delegating `Perturber`, a timed initial-instance closure, and,
//! for fig2 and `resume`, timed sampling, table pinning, scheduler runs,
//! checkpoint calls and merges. Each layer keeps a count and a total in
//! memory; they are turned into metrics once, at the end.
//!
//! A span costs two clock reads and some bookkeeping. That cost is
//! calibrated on empty spans and removed: `inner` is the part of it that
//! falls inside the span's own interval, `outer` all of it as seen from the
//! enclosing interval.

use crate::report::Metric;
use crate::workloads::{fresh, pair_names, Bench, Kind, Outputs};
use saga_core::{DirtyRegion, Instance, SchedContext};
use saga_experiments::engine::{CellCheckpoint, RowCheckpoint};
use saga_experiments::merge::merge_to_path;
use saga_pisa::annealer::{maximize_in, AnnealScratch, PairTraces};
use saga_pisa::app_specific::AppSpecific;
use saga_pisa::constraints::{homogenize_for_pair, restrict_for_pair};
use saga_pisa::perturb::{initial_instance, PerturbUndo};
use saga_pisa::{makespan_ratio, GeneralPerturber, Perturber, PisaResult};
use std::cell::Cell;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A statistic the tracer updates. The tracer runs on one thread, so a
/// plain load and store replaces a read-modify-write; the atomic type only
/// lets the timed `Perturber` (which must be `Sync`) share the tracer.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline(always)]
    fn add(&self, x: u64) {
        self.0.store(self.0.load(Relaxed) + x, Relaxed);
    }

    fn get(&self) -> f64 {
        self.0.load(Relaxed) as f64
    }
}

/// Span count and total measured nanoseconds of one layer.
#[derive(Default)]
pub struct Acc {
    n: Counter,
    ns: Counter,
}

/// Names of the `PerturbUndo` variants, in `op_index` order.
pub const OPS: [&str; 7] = [
    "nothing",
    "node_weight",
    "edge_weight",
    "task_weight",
    "dep_weight",
    "add_dep",
    "remove_dep",
];

fn op_index(u: &PerturbUndo) -> usize {
    match u {
        PerturbUndo::Nothing => 0,
        PerturbUndo::NodeWeight(..) => 1,
        PerturbUndo::EdgeWeight(..) => 2,
        PerturbUndo::TaskWeight(..) => 3,
        PerturbUndo::DepWeight(..) => 4,
        PerturbUndo::AddDep(..) => 5,
        PerturbUndo::RemoveDep { .. } => 6,
    }
}

/// Per-layer spans and counters of one traced run.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    /// Initial instances and dataset samples.
    pub datasets: Acc,
    /// `pin_tables` / `pin_tables_dirty`.
    pub kernel: Acc,
    /// One per benchmark scheduler, in roster order.
    pub sched: [Acc; 15],
    /// `Perturber::perturb_undoable`.
    pub perturb: Acc,
    /// `annealer::maximize_in`, children included.
    pub annealer: Acc,
    /// Checkpoint `record` calls.
    pub record: Acc,
    /// Checkpoint `open` calls.
    pub open: Acc,
    /// Checkpoint `stored` lookups.
    pub replay: Acc,
    /// `merge_to_path` calls.
    pub merge: Acc,
    /// Dirty regions by kind: full, structural, weight-only.
    pub regions: [Counter; 3],
    /// Evaluated instances, and those with 8..=32 nodes.
    pub instances: Counter,
    /// See `instances`.
    pub in_band: Counter,
    /// Perturbations by `PerturbUndo` variant.
    pub ops: [Counter; 7],
    /// Objective evaluations.
    pub evals: Counter,
    /// Evaluations that raised their restart's running best.
    pub improved: Counter,
    /// Annealing cells run.
    pub cells: Counter,
    /// Bytes of checkpoint files written.
    pub ck_bytes: Counter,
    /// Bytes of checkpoint files opened.
    pub open_bytes: Counter,
    /// Bytes of merge inputs.
    pub merge_bytes: Counter,
    /// Records merges wrote.
    pub merge_records: Counter,
}

impl Tracer {
    /// A tracer whose spans only call through.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// Runs `f` inside a span of `acc`.
    #[inline(always)]
    pub fn span<R>(&self, acc: &Acc, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        acc.n.add(1);
        acc.ns.add(ns);
        r
    }

    /// Counts one evaluated instance, and the dirty region it came with.
    fn note_eval(&self, inst: &Instance, dirty: &DirtyRegion) {
        if !self.on {
            return;
        }
        let kind = if dirty.is_full() {
            0
        } else if dirty.is_structural() {
            1
        } else {
            2
        };
        self.regions[kind].add(1);
        self.instances.add(1);
        self.in_band
            .add(u64::from((8..=32).contains(&inst.network.node_count())));
    }

    fn note_file(&self, counter: &Counter, path: &std::path::Path) {
        if self.on {
            counter.add(std::fs::metadata(path).map_or(0, |m| m.len()));
        }
    }
}

/// The cost of one span: `(inner, outer)` nanoseconds, the median of
/// several calibration rounds of empty spans.
pub fn calibrate() -> (f64, f64) {
    const SPANS: u64 = 200_000;
    let mut inner = Vec::new();
    let mut outer = Vec::new();
    for _ in 0..5 {
        let tr = Tracer::on();
        let t0 = Instant::now();
        for _ in 0..SPANS {
            tr.span(&tr.kernel, || black_box(()));
        }
        outer.push(t0.elapsed().as_nanos() as f64 / SPANS as f64);
        inner.push(tr.kernel.ns.get() / SPANS as f64);
    }
    (crate::stats::median(&inner), crate::stats::median(&outer))
}

/// A `Perturber` that times and counts the one it wraps.
struct TimedPerturber<'a> {
    inner: &'a GeneralPerturber,
    tr: &'a Tracer,
}

impl Perturber for TimedPerturber<'_> {
    fn perturb(&self, inst: &mut Instance, rng: &mut rand::rngs::StdRng) {
        self.tr
            .span(&self.tr.perturb, || self.inner.perturb(inst, rng));
    }

    fn perturb_undoable(
        &self,
        inst: &mut Instance,
        rng: &mut rand::rngs::StdRng,
    ) -> Option<PerturbUndo> {
        let undo = self
            .tr
            .span(&self.tr.perturb, || self.inner.perturb_undoable(inst, rng));
        if let Some(u) = &undo {
            self.tr.ops[op_index(u)].add(1);
        }
        undo
    }
}

/// The grid of rep `r` computed without the engine on this thread: plain
/// public calls, spans recorded when `tr` is on. With `tr` off, `fig4` and
/// `app` cells go through `SearchCell::run`; with it on, through the
/// re-expressed annealing loop.
pub fn direct(bench: &Bench, r: usize, tr: &Tracer) -> io::Result<Outputs> {
    match bench.kind {
        Kind::Fig4 | Kind::App => {
            let grid = bench.grid_of(r);
            let path = bench.dir.join("direct.jsonl");
            let ck = CellCheckpoint::open(fresh(&path)?, false)?;
            let results = if tr.on {
                traced_cells(bench, grid, tr, &ck)?
            } else {
                let mut ctx = SchedContext::new();
                let mut scratch = AnnealScratch::default();
                let mut results = Vec::new();
                for cell in &bench.grids[grid] {
                    let res = cell.run(&mut ctx, &mut scratch);
                    ck.record(&cell.key(), &res)?;
                    results.push(res);
                }
                results
            };
            tr.note_file(&tr.ck_bytes, &path);
            Ok(Outputs::Cells { grid, results })
        }
        Kind::Fig2 => {
            let path = bench.dir.join("direct.jsonl");
            let ck = RowCheckpoint::open(fresh(&path)?, false)?;
            let rows = direct_rows(bench, tr, &ck)?;
            tr.note_file(&tr.ck_bytes, &path);
            Ok(Outputs::Rows(rows))
        }
        Kind::Resume => direct_resume(bench, tr),
    }
}

/// Every cell of grid `grid` through `maximize_in` with timed layers.
/// Mirrors `SearchCell::run` for `Pair` and `App` cells; the traced
/// run's digest check proves the two compute the same results.
fn traced_cells(
    bench: &Bench,
    grid: usize,
    tr: &Tracer,
    ck: &CellCheckpoint,
) -> io::Result<Vec<PisaResult>> {
    let roster: Vec<&str> = bench.schedulers.iter().map(|s| s.name()).collect();
    let mut ctx = SchedContext::new();
    let mut scratch = AnnealScratch::default();
    let mut traces = PairTraces::default();
    let mut results = Vec::new();
    for cell in &bench.grids[grid] {
        let unknown = || io::Error::other(format!("cell {} is not a pair cell", cell.label));
        let (target, baseline) = pair_names(cell).ok_or_else(unknown)?;
        let index = |name: &str| roster.iter().position(|n| *n == name).ok_or_else(unknown);
        let (ti, bi) = (index(target)?, index(baseline)?);
        let (target_s, baseline_s) = (&*bench.schedulers[ti], &*bench.schedulers[bi]);
        let app = match &cell.kind {
            saga_pisa::CellKind::App { workflow, ccr, .. } => {
                Some(AppSpecific::new(workflow, *ccr).ok_or_else(unknown)?)
            }
            _ => None,
        };
        let perturber = match &app {
            Some(app) => app.perturber(),
            None => restrict_for_pair(GeneralPerturber::default(), target, baseline),
        };
        let timed = TimedPerturber {
            inner: &perturber,
            tr,
        };
        // set by each restart's initial draw: the next evaluation is that
        // restart's first, which sets its running best
        let restart = Cell::new(false);
        let init = |rng: &mut rand::rngs::StdRng| {
            restart.set(true);
            tr.span(&tr.datasets, || match &app {
                Some(app) => app.initial_instance(rng),
                None => {
                    let mut inst = initial_instance(rng);
                    homogenize_for_pair(&mut inst, target, baseline);
                    inst
                }
            })
        };
        let mut best = f64::NEG_INFINITY;
        let mut objective = |inst: &Instance, dirty: &DirtyRegion| {
            tr.note_eval(inst, dirty);
            tr.span(&tr.kernel, || ctx.pin_tables_dirty(inst, dirty));
            let m_target = tr.span(&tr.sched[ti], || {
                target_s.makespan_incremental(inst, &mut ctx, &mut traces.target, dirty)
            });
            let m_baseline = tr.span(&tr.sched[bi], || {
                baseline_s.makespan_incremental(inst, &mut ctx, &mut traces.baseline, dirty)
            });
            ctx.unpin_tables();
            let ratio = makespan_ratio(m_target, m_baseline);
            tr.evals.add(1);
            if restart.replace(false) {
                best = ratio;
            } else if ratio > best {
                best = ratio;
                tr.improved.add(1);
            }
            ratio
        };
        let res = tr.span(&tr.annealer, || {
            maximize_in(&mut objective, &timed, cell.config, &init, &mut scratch)
        });
        tr.cells.add(1);
        let key = cell.key();
        tr.span(&tr.record, || ck.record(&key, &res))?;
        results.push(res);
    }
    Ok(results)
}

/// Every fig2 row: sample, pin the tables, run the 15 schedulers, record.
fn direct_rows(bench: &Bench, tr: &Tracer, ck: &RowCheckpoint) -> io::Result<Vec<Vec<f64>>> {
    use rand::SeedableRng;
    let mut ctx = SchedContext::new();
    let mut rows = Vec::new();
    let mut keys = bench.fig2_keys();
    for gen in &bench.generators {
        for k in 0..crate::grids::FIG2_INSTANCES {
            let key = keys.next().expect("one key per row");
            let seed = saga_core::derive_seed(bench.seed, k as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let inst = tr.span(&tr.datasets, || gen.sample(&mut rng));
            tr.note_eval(&inst, &DirtyRegion::full());
            tr.span(&tr.kernel, || ctx.pin_tables(&inst));
            let row: Vec<f64> = bench
                .schedulers
                .iter()
                .zip(&tr.sched)
                .map(|(s, acc)| tr.span(acc, || s.makespan_into(&inst, &mut ctx)))
                .collect();
            ctx.unpin_tables();
            tr.span(&tr.record, || ck.record(&key, &row))?;
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Merges the shard checkpoints, opens the merged files and looks every
/// record up.
fn direct_resume(bench: &Bench, tr: &Tracer) -> io::Result<Outputs> {
    let files = bench.resume_files();
    let mut merged = Vec::new();
    for (inputs, out) in [
        (&files.cell_shards, &files.cells_merged),
        (&files.row_shards, &files.rows_merged),
    ] {
        for path in inputs {
            tr.note_file(&tr.merge_bytes, path);
        }
        fresh(out)?;
        let summary = tr
            .span(&tr.merge, || merge_to_path(inputs, out))
            .map_err(io::Error::other)?;
        tr.merge_records.add(summary.records as u64);
        merged.push(summary);
    }
    let missing = || io::Error::other("a merged checkpoint lacks a record");

    tr.note_file(&tr.open_bytes, &files.cells_merged);
    let cell_ck = tr.span(&tr.open, || CellCheckpoint::open(&files.cells_merged, true))?;
    let mut cells = Vec::new();
    for cell in &bench.grids[0] {
        let key = cell.key();
        cells.push(
            tr.span(&tr.replay, || cell_ck.stored(&key))
                .ok_or_else(missing)?,
        );
    }

    tr.note_file(&tr.open_bytes, &files.rows_merged);
    let row_ck = tr.span(&tr.open, || RowCheckpoint::open(&files.rows_merged, true))?;
    let mut rows = Vec::new();
    for key in bench.fig2_keys() {
        rows.push(
            tr.span(&tr.replay, || row_ck.stored(&key))
                .ok_or_else(missing)?,
        );
    }
    let clean = bench.resume_clean(
        &merged,
        [cell_ck.loaded(), row_ck.loaded()],
        cell_ck.skipped() + row_ck.skipped(),
    );
    Ok(Outputs::Replay { cells, rows, clean })
}

/// Wall times of one traced run's passes, summed over rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Walls {
    /// Engine path, two workers.
    pub engine2: f64,
    /// Engine path, one worker.
    pub engine1: f64,
    /// Direct path, untraced.
    pub direct: f64,
    /// Direct path, traced.
    pub traced: f64,
    /// Engine chunk claims and steals in the two-worker passes.
    pub claims: f64,
    /// See `claims`.
    pub steals: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(
    tr: &Tracer,
    names: &[&str],
    walls: &Walls,
    (inner, outer): (f64, f64),
) -> Vec<Metric> {
    let true_ns = |a: &Acc| a.ns.get() - a.n.get() * inner;
    let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
    let leaves: Vec<&Acc> = [
        &tr.datasets,
        &tr.kernel,
        &tr.perturb,
        &tr.record,
        &tr.open,
        &tr.replay,
        &tr.merge,
    ]
    .into_iter()
    .chain(&tr.sched)
    .collect();
    let spans: f64 = leaves.iter().map(|a| a.n.get()).sum::<f64>() + tr.annealer.n.get();
    // the traced wall without the spans' own cost
    let wall_ns = walls.traced * 1e9 - spans * outer;
    let share = |ns: f64| per(ns, wall_ns);

    // inside maximize_in: initial draws, perturbations, kernel refreshes
    // and scheduler runs (checkpoint records come after it returns)
    let nested: Vec<&Acc> = [&tr.datasets, &tr.perturb, &tr.kernel]
        .into_iter()
        .chain(&tr.sched)
        .collect();
    let annealer_self = if tr.annealer.n.get() > 0.0 {
        let nested_raw: f64 = nested.iter().map(|a| a.ns.get()).sum();
        let nested_n: f64 = nested.iter().map(|a| a.n.get()).sum();
        true_ns(&tr.annealer) - nested_raw - nested_n * (outer - inner)
    } else {
        0.0
    };
    let attributed = leaves.iter().map(|a| true_ns(a)).sum::<f64>() + annealer_self;

    let sched_runs: f64 = tr.sched.iter().map(|a| a.n.get()).sum();
    let sched_ns: f64 = tr.sched.iter().map(true_ns).sum();
    let records = tr.record.n.get() + tr.replay.n.get();
    let evals = tr.evals.get();
    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.into(),
            value,
            unit,
        })
    };

    put("datasets.calls", tr.datasets.n.get(), "count");
    put(
        "datasets.ns_per_call",
        per(true_ns(&tr.datasets), tr.datasets.n.get()),
        "ns",
    );
    put("datasets.share", share(true_ns(&tr.datasets)), "fraction");

    put("kernel.table_calls", tr.kernel.n.get(), "count");
    put(
        "kernel.ns_per_call",
        per(true_ns(&tr.kernel), tr.kernel.n.get()),
        "ns",
    );
    put("kernel.share", share(true_ns(&tr.kernel)), "fraction");
    for (name, c) in ["full", "structural", "weight"].iter().zip(&tr.regions) {
        put(&format!("kernel.region.{name}"), c.get(), "count");
    }
    put(
        "kernel.fused_band_share",
        per(tr.in_band.get(), tr.instances.get()),
        "fraction",
    );

    put("schedulers.runs", sched_runs, "count");
    put("schedulers.ns_per_run", per(sched_ns, sched_runs), "ns");
    put("schedulers.share", share(sched_ns), "fraction");
    for (name, a) in names.iter().zip(&tr.sched) {
        put(
            &format!("schedulers.{name}.ns_per_run"),
            per(true_ns(a), a.n.get()),
            "ns",
        );
    }

    put("perturb.calls", tr.perturb.n.get(), "count");
    put(
        "perturb.ns_per_call",
        per(true_ns(&tr.perturb), tr.perturb.n.get()),
        "ns",
    );
    put("perturb.share", share(true_ns(&tr.perturb)), "fraction");
    for (name, c) in OPS.iter().zip(&tr.ops) {
        put(&format!("perturb.op.{name}"), c.get(), "count");
    }

    put("annealer.evals", evals, "count");
    put(
        "annealer.evals_per_cell",
        per(evals, tr.cells.get()),
        "count",
    );
    put(
        "annealer.improve_frac",
        per(tr.improved.get(), evals),
        "fraction",
    );
    put("annealer.self_share", share(annealer_self), "fraction");

    put(
        "engine.self_share",
        1.0 - per(walls.direct, walls.engine1),
        "fraction",
    );
    put(
        "engine.parallel_eff",
        per(walls.engine1, 2.0 * walls.engine2),
        "fraction",
    );
    put("engine.claims", walls.claims, "count");
    put("engine.steals", walls.steals, "count");

    put("checkpoint.records", records, "count");
    put(
        "checkpoint.record_us",
        per(true_ns(&tr.record), tr.record.n.get()) / 1e3,
        "us",
    );
    let ck_bytes = tr.ck_bytes.get() + tr.open_bytes.get();
    put(
        "checkpoint.bytes_per_record",
        per(ck_bytes, records),
        "bytes",
    );
    put(
        "checkpoint.open_mb_per_s",
        per(tr.open_bytes.get() / 1e6, true_ns(&tr.open) / 1e9),
        "MB/s",
    );
    put(
        "checkpoint.replay_us_per_record",
        per(true_ns(&tr.replay), tr.replay.n.get()) / 1e3,
        "us",
    );

    put("merge.records", tr.merge_records.get(), "count");
    put(
        "merge.mb_per_s",
        per(tr.merge_bytes.get() / 1e6, true_ns(&tr.merge) / 1e9),
        "MB/s",
    );

    put(
        "trace.overhead",
        per(walls.traced, walls.direct) - 1.0,
        "fraction",
    );
    put("trace.span_ns", outer, "ns");
    put(
        "trace.unattributed_share",
        1.0 - share(attributed),
        "fraction",
    );
    m
}
