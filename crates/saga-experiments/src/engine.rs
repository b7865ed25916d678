//! The shared batch experiment engine.
//!
//! Every paper experiment is a grid of independent cells — (dataset ×
//! instance × scheduler), (witness × candidate), (workflow × realization) —
//! and before this engine existed each binary walked its grid sequentially,
//! rebuilding cost tables and reallocating contexts per run. The engine
//! factors the common machinery out once:
//!
//! * **Sharding** — cells fan out across rayon workers (the vendored rayon
//!   uses dynamic chunk claiming, so skewed cells — mixed-size datasets,
//!   pairwise blowup cells — don't straggle on one worker);
//! * **Context reuse** — each worker takes one warm [`SchedContext`] from a
//!   shared [`ContextPool`] via `map_init` and keeps it for its whole run,
//!   so cells allocate nothing after warm-up, and the pool keeps the warmth
//!   across batches;
//! * **Table pinning** — [`BatchEngine::makespans`] evaluates all `k`
//!   schedulers of a cell under [`SchedContext::with_pinned`], building the
//!   exec/link cost tables once per instance instead of once per
//!   (instance, scheduler);
//! * **Determinism** — cells must not share mutable state (per-cell RNG
//!   streams come from [`derive_seed`]), and results are collected in input
//!   order, so every experiment's output is bit-identical for any
//!   `RAYON_NUM_THREADS`;
//! * **Progress** — [`Progress`] emits monotone `done/total` counts from an
//!   atomic counter, coherent under concurrency (the old per-dataset
//!   `eprintln!` assumed sequential execution).

use rayon::prelude::*;
use saga_core::{ContextPool, Instance, SchedContext};
use saga_pisa::annealer::AnnealScratch;
use saga_pisa::{PisaResult, SearchCell};
use saga_schedulers::Scheduler;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use saga_core::derive_seed;

/// A coherent, concurrency-safe progress reporter for batch runs.
///
/// Cells tick an atomic counter; a line is printed every `total/20` cells
/// (and at completion), each as a single `eprintln!` with a monotone count —
/// so interleaved workers can never print out-of-order or garbled progress.
pub struct Progress {
    label: String,
    total: usize,
    every: usize,
    done: AtomicUsize,
    claims: AtomicUsize,
    steals: AtomicUsize,
}

impl Progress {
    /// A reporter for `total` cells under the given label.
    pub fn new(label: impl Into<String>, total: usize) -> Self {
        Progress {
            label: label.into(),
            total,
            every: (total / 20).max(1),
            done: AtomicUsize::new(0),
            claims: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        }
    }

    /// Records one completed cell, printing at the configured cadence.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.every) || done == self.total {
            eprintln!("[{}] {done}/{} cells", self.label, self.total);
        }
    }

    /// Number of cells completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Folds one parallel run's scheduler counters into this reporter's
    /// claim/steal totals, and — under `SAGA_WORKER_STATS=1` — prints the
    /// per-worker imbalance summary.
    pub fn note_worker_stats(&self, stats: &rayon::RunStats) {
        self.claims
            .fetch_add(stats.total_claims(), Ordering::Relaxed);
        self.steals
            .fetch_add(stats.total_steals(), Ordering::Relaxed);
        if worker_stats_enabled() {
            eprintln!(
                "[{}] workers: {} claims: {:?} steals: {:?} items: {:?} imbalance: {:.2}x",
                self.label,
                stats.workers(),
                stats.claims,
                stats.steals,
                stats.items,
                stats.imbalance(),
            );
        }
    }

    /// Total chunk claims observed across the runs folded into this
    /// reporter.
    pub fn claims(&self) -> usize {
        self.claims.load(Ordering::Relaxed)
    }

    /// Total work steals observed across the runs folded into this
    /// reporter (0 under the sequential short-circuit).
    pub fn steals(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }
}

/// Whether per-worker scheduler summaries print after each parallel run.
/// Set `SAGA_WORKER_STATS=1` to enable; read once per process.
pub fn worker_stats_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("SAGA_WORKER_STATS").is_some_and(|v| v == "1"))
}

/// Hands the just-finished parallel run's scheduler counters to `progress`
/// (claim/steal accumulation + the optional `SAGA_WORKER_STATS` summary).
/// Advisory: the stats slot is global, so a run issued concurrently from
/// another thread may take it first — counters are diagnostics, not truth.
fn observe_workers(progress: Option<&Progress>) {
    if let (Some(p), Some(stats)) = (progress, rayon::take_last_run_stats()) {
        p.note_worker_stats(&stats);
    }
}

/// The batch evaluation engine. Owns the context pool; one engine per
/// binary is enough (and keeps contexts warm across datasets).
#[derive(Default)]
pub struct BatchEngine {
    pool: ContextPool,
}

impl BatchEngine {
    /// A fresh engine with an empty context pool.
    pub fn new() -> Self {
        BatchEngine::default()
    }

    /// Shards `cells` across workers. For cell functions that don't need a
    /// scheduling context (dataset sampling, profiling). Results come back
    /// in input order regardless of thread count.
    pub fn map<T, R>(&self, cells: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        cells.into_par_iter().map(f).collect()
    }

    /// Shards `cells` across workers, handing each worker one warm
    /// [`SchedContext`] from the pool for its whole run. Results come back
    /// in input order regardless of thread count.
    pub fn map_ctx<T, R>(
        &self,
        cells: Vec<T>,
        f: impl Fn(&mut SchedContext, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        cells
            .into_par_iter()
            .map_init(|| self.pool.take(), |ctx, cell| f(ctx, cell))
            .collect()
    }

    /// [`map_ctx`](Self::map_ctx) on the calling thread: same pooled
    /// warm-context reuse, no fan-out. For timing-sensitive cells —
    /// concurrent workers timing wall-clock on shared cores would inflate
    /// each other's measurements and make them vary with thread count.
    pub fn map_ctx_seq<T, R>(
        &self,
        cells: Vec<T>,
        mut f: impl FnMut(&mut SchedContext, T) -> R,
    ) -> Vec<R> {
        let mut ctx = self.pool.take();
        cells.into_iter().map(|cell| f(&mut ctx, cell)).collect()
    }

    /// Runs a grid of adversarial-search cells — the fig4-class workload.
    /// Cells shard across workers via `map_init`; each worker holds one warm
    /// [`PooledContext`](saga_core::PooledContext) and one
    /// [`AnnealScratch`] for its whole run, so back-to-back cells (and every
    /// restart within a cell) reuse the same buffers. Results come back in
    /// cell order regardless of thread count, and each cell's RNG streams
    /// are baked into the cell itself, so output is bit-identical for any
    /// `RAYON_NUM_THREADS`.
    ///
    /// With a [`CellCheckpoint`], finished cells are appended to a JSONL
    /// file as they complete and cells already present (matched by
    /// [`SearchCell::key`]) are replayed instead of re-run — a multi-hour
    /// paper-scale fig4 run survives interruption.
    ///
    /// A checkpoint *write* failure (full disk, closed pipe) no longer
    /// aborts the process mid-grid: cells already in flight finish, cells
    /// not yet started are skipped (their annealing work would be discarded
    /// with the error anyway), and the first I/O error is returned — with
    /// every cell recorded before it already flushed to the file, so a
    /// `--resume` continues from there.
    pub fn run_cells(
        &self,
        cells: &[SearchCell],
        progress: Option<&Progress>,
        checkpoint: Option<&CellCheckpoint>,
    ) -> std::io::Result<Vec<PisaResult>> {
        use std::sync::atomic::AtomicBool;
        let write_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        let note_write_error = |e: std::io::Error| {
            // a poisoned slot still holds a coherent Option; recover it
            // rather than abort
            let mut slot = write_error
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if slot.is_none() {
                *slot = Some(e);
            }
            failed.store(true, Ordering::Relaxed);
        };
        let results: Vec<Option<PisaResult>> = cells
            .par_iter()
            .map_init(
                || (self.pool.take(), AnnealScratch::default()),
                |(ctx, scratch), cell| {
                    // once a write failed, the run's results can never all be
                    // returned — don't burn hours annealing cells that would
                    // be thrown away with the error
                    if failed.load(Ordering::Relaxed) {
                        return None;
                    }
                    let key = cell.key();
                    if let Some(stored) = checkpoint.and_then(|c| c.stored(&key)) {
                        // replayed, not re-recorded: the file already holds
                        // this line
                        if let Some(p) = progress {
                            p.tick();
                        }
                        return Some(stored);
                    }
                    let res = cell.run(ctx, scratch);
                    if let Some(c) = checkpoint {
                        if let Err(e) = c.record(&key, &res) {
                            note_write_error(e);
                        }
                    }
                    if let Some(p) = progress {
                        p.tick();
                    }
                    Some(res)
                },
            )
            .collect();
        observe_workers(progress);
        let first_error = write_error
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match first_error {
            Some(e) => Err(e),
            None => Ok(results
                .into_iter()
                // saga-lint: allow(error-discipline) — cells return None only after `failed` is set, which always records an error first; with no error recorded every cell ran
                .map(|r| r.expect("no cell skipped without a recorded error"))
                .collect()),
        }
    }

    /// [`run_cells`](Self::run_cells) for experiment binaries: a checkpoint
    /// write failure prints the error — noting that every cell recorded
    /// before it is already flushed and resumable — and exits nonzero
    /// instead of returning. Keeps the four PISA drivers' failure behavior
    /// identical.
    pub fn run_cells_or_exit(
        &self,
        cells: &[SearchCell],
        progress: Option<&Progress>,
        checkpoint: Option<&CellCheckpoint>,
    ) -> Vec<PisaResult> {
        self.run_cells(cells, progress, checkpoint)
            .unwrap_or_else(|e| {
                eprintln!(
                    "fatal: checkpoint write failed: {e} — cells recorded before the failure \
                     are flushed; re-run with --resume after freeing space"
                );
                std::process::exit(1);
            })
    }

    /// The fused fig2-class dataset loop: cell `k` *generates* instance `k`
    /// from its own derived seed (`derive_seed(seed, k)`) and immediately
    /// evaluates every scheduler on it under pinned cost tables, all inside
    /// the worker — so dataset sampling shards across cores along with the
    /// evaluation instead of bottlenecking on one sequential generation
    /// pass (the old layout's limit at 1000-instance budgets). Returns
    /// `out[instance][scheduler]` makespans in instance order; per-cell
    /// seeds and order-preserving collection keep the output bit-identical
    /// for any `RAYON_NUM_THREADS`, and identical to generating the
    /// instances up front with the same per-instance seeds.
    pub fn dataset_makespans(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        gen: &saga_datasets::DatasetGenerator,
        count: usize,
        seed: u64,
        progress: Option<&Progress>,
    ) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = (0..count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, k| {
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        derive_seed(seed, k as u64),
                    );
                    let inst = gen.sample(&mut rng);
                    let row = ctx.with_pinned(&inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(&inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    if let Some(p) = progress {
                        p.tick();
                    }
                    row
                },
            )
            .collect();
        observe_workers(progress);
        rows
    }

    /// Runs every scheduler on every instance — the fig2-class inner loop.
    /// Returns `out[instance][scheduler]` makespans. Per instance, the cost
    /// tables are built once and shared across all scheduler runs
    /// ([`SchedContext::with_pinned`]); instances shard across workers.
    pub fn makespans(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        instances: &[Instance],
        progress: Option<&Progress>,
    ) -> Vec<Vec<f64>> {
        let rows: Vec<Vec<f64>> = instances
            .par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, inst| {
                    let row = ctx.with_pinned(inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    if let Some(p) = progress {
                        p.tick();
                    }
                    row
                },
            )
            .collect();
        observe_workers(progress);
        rows
    }

    /// [`dataset_makespans`](Self::dataset_makespans) for *distributed,
    /// resumable* fig2-class runs: each instance row carries a stable key
    /// (`key_of(k)`), only rows in `shard` are computed (the rest come back
    /// `None`), and rows already stored in the [`RowCheckpoint`] replay
    /// instead of re-running. Computed makespans are bit-identical to the
    /// unsharded [`dataset_makespans`] path — same per-instance seed
    /// streams, same pinned-table evaluation — so the union of all shards'
    /// checkpoints reconstructs the 1-host run exactly.
    ///
    /// A checkpoint write failure skips rows not yet started (mirroring
    /// [`run_cells`](Self::run_cells)) and returns the first I/O error with
    /// everything recorded before it already flushed.
    #[allow(clippy::too_many_arguments)]
    pub fn dataset_makespans_sharded(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        gen: &saga_datasets::DatasetGenerator,
        count: usize,
        seed: u64,
        key_of: &(impl Fn(usize) -> String + Sync),
        shard: saga_pisa::ShardSpec,
        progress: Option<&Progress>,
        checkpoint: Option<&RowCheckpoint>,
    ) -> std::io::Result<Vec<Option<Vec<f64>>>> {
        use std::sync::atomic::AtomicBool;
        let write_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        let rows: Vec<Option<Vec<f64>>> = (0..count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map_init(
                || self.pool.take(),
                |ctx, k| {
                    let key = key_of(k);
                    if !shard.contains_key(&key) {
                        return None;
                    }
                    if let Some(stored) = checkpoint.and_then(|c| c.stored(&key)) {
                        // replayed, not re-recorded: the file already holds
                        // this line
                        if let Some(p) = progress {
                            p.tick();
                        }
                        return Some(stored);
                    }
                    if failed.load(Ordering::Relaxed) {
                        // a failed checkpoint write means the run can't
                        // complete; don't burn work that would be discarded
                        return None;
                    }
                    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                        derive_seed(seed, k as u64),
                    );
                    let inst = gen.sample(&mut rng);
                    let row = ctx.with_pinned(&inst, |ctx| {
                        schedulers
                            .iter()
                            .map(|s| s.makespan_into(&inst, ctx))
                            .collect::<Vec<f64>>()
                    });
                    if let Some(c) = checkpoint {
                        if let Err(e) = c.record(&key, &row) {
                            let mut slot = write_error
                                .lock()
                                .unwrap_or_else(|poisoned| poisoned.into_inner());
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            failed.store(true, Ordering::Relaxed);
                        }
                    }
                    if let Some(p) = progress {
                        p.tick();
                    }
                    Some(row)
                },
            )
            .collect();
        observe_workers(progress);
        let first_error = write_error
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match first_error {
            Some(e) => Err(e),
            None => Ok(rows),
        }
    }
}

/// One completed cell, as persisted in the checkpoint JSONL. The ratio and
/// initial-ratio fields are stored as `f64::to_bits` hex strings — the
/// checkpoint must replay *bit-identical* results, and JSON float printing
/// wouldn't round-trip exactly (nor encode the unbounded cells' infinities).
/// `ratio` repeats the value as a plain float purely for human readers;
/// `None` encodes an unbounded cell, mirroring the witness-library format.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellRecord {
    key: String,
    ratio_bits: String,
    initial_bits: String,
    evaluations: usize,
    ratio: Option<f64>,
    instance: serde_json::Value,
}

impl CellRecord {
    fn new(key: &str, res: &PisaResult) -> std::io::Result<Self> {
        let instance = serde_json::from_str(&res.instance.to_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(CellRecord {
            key: key.to_string(),
            ratio_bits: format!("{:016x}", res.ratio.to_bits()),
            initial_bits: format!("{:016x}", res.initial_ratio.to_bits()),
            evaluations: res.evaluations,
            ratio: res.ratio.is_finite().then_some(res.ratio),
            instance,
        })
    }

    fn result(&self) -> Option<PisaResult> {
        let bits = |s: &str| u64::from_str_radix(s, 16).ok().map(f64::from_bits);
        Some(PisaResult {
            instance: Instance::from_json(&self.instance.to_string()).ok()?,
            ratio: bits(&self.ratio_bits)?,
            initial_ratio: bits(&self.initial_bits)?,
            evaluations: self.evaluations,
        })
    }
}

/// A JSONL checkpoint for [`BatchEngine::run_cells`]: every finished cell is
/// appended (and flushed) as it completes, and a resumed run replays stored
/// cells instead of re-running them. Cells are matched by
/// [`SearchCell::key`], which encodes the budget and seed — changing
/// `--imax`/`--restarts`/`--seed` makes old lines unmatchable rather than
/// silently wrong. Malformed lines (e.g. a half-written line from a crash)
/// are skipped with a warning, so a torn checkpoint only costs re-running
/// the affected cell.
pub struct CellCheckpoint {
    done: BTreeMap<String, PisaResult>,
    file: Mutex<std::fs::File>,
    skipped: usize,
}

impl CellCheckpoint {
    /// Opens `path` for checkpointing. With `resume`, existing well-formed
    /// lines are loaded for replay and new cells append after them;
    /// otherwise the file is truncated and the run starts clean.
    ///
    /// Malformed resume lines are counted ([`skipped`](Self::skipped)) and
    /// summarized on stderr — a corrupted checkpoint is visible instead of
    /// quietly re-running its cells.
    pub fn open(path: &std::path::Path, resume: bool) -> std::io::Result<Self> {
        let mut done = BTreeMap::new();
        let mut unterminated = false;
        let mut skipped = 0usize;
        if resume {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    unterminated = !text.is_empty() && !text.ends_with('\n');
                    for (lineno, line) in text.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        let parsed = serde_json::from_str::<CellRecord>(line)
                            .ok()
                            .and_then(|r| Some((r.key.clone(), r.result()?)));
                        match parsed {
                            Some((key, res)) => {
                                done.insert(key, res);
                            }
                            None => {
                                skipped += 1;
                                eprintln!(
                                    "[checkpoint] skipping malformed line {} of {}",
                                    lineno + 1,
                                    path.display()
                                );
                            }
                        }
                    }
                    if skipped > 0 {
                        eprintln!(
                            "[checkpoint] {} corrupted/unparseable line(s) skipped in {} — \
                             the affected cells will re-run",
                            skipped,
                            path.display()
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)?;
        if unterminated {
            // a crash mid-append left a torn final line (already skipped
            // above); terminate it so the next record starts on its own
            // line instead of merging into — and corrupting — the tear
            writeln!(file)?;
        }
        Ok(CellCheckpoint {
            done,
            file: Mutex::new(file),
            skipped,
        })
    }

    /// Number of cells loaded from the file for replay.
    pub fn loaded(&self) -> usize {
        self.done.len()
    }

    /// Number of malformed/unparseable lines skipped while loading for
    /// resume (0 for a fresh run).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The stored result for `key`, if the checkpoint has it.
    pub fn stored(&self, key: &str) -> Option<PisaResult> {
        self.done.get(key).cloned()
    }

    /// Appends one finished cell and flushes, so an interruption loses at
    /// most the cells in flight. An I/O failure (full disk, closed pipe) is
    /// returned instead of panicking, so the driver can finish the batch
    /// and surface the error with everything already recorded still intact.
    pub fn record(&self, key: &str, res: &PisaResult) -> std::io::Result<()> {
        let line = serde_json::to_string(&CellRecord::new(key, res)?)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        // a poisoned file mutex still wraps a usable handle: the writer that
        // panicked completed or abandoned its line, and ours appends whole
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        writeln!(file, "{line}")?;
        file.flush()
    }
}

/// One keyed makespan row, as persisted in a [`RowCheckpoint`] JSONL.
/// Makespans are stored as space-joined `f64::to_bits` hex words — replay
/// must be bit-identical and JSON float printing wouldn't round-trip
/// infinities or the last ulp.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RowRecord {
    key: String,
    bits: String,
}

impl RowRecord {
    fn new(key: &str, row: &[f64]) -> Self {
        RowRecord {
            key: key.to_string(),
            bits: row
                .iter()
                .map(|m| format!("{:016x}", m.to_bits()))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    fn row(&self) -> Option<Vec<f64>> {
        if self.bits.trim().is_empty() {
            return Some(Vec::new());
        }
        self.bits
            .split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).ok().map(f64::from_bits))
            .collect()
    }
}

/// A JSONL checkpoint for keyed makespan rows — the fig2-class analogue of
/// [`CellCheckpoint`] (there is no [`SearchCell`] behind a benchmarking
/// row, so the row's key string is the contract instead). Same semantics:
/// append-and-flush per row, resume replays stored keys, torn lines are
/// counted and skipped, a tear is newline-terminated so later appends
/// can't merge into it.
pub struct RowCheckpoint {
    done: BTreeMap<String, Vec<f64>>,
    file: Mutex<std::fs::File>,
    skipped: usize,
}

impl RowCheckpoint {
    /// Opens `path` for checkpointing; with `resume`, existing well-formed
    /// lines load for replay (malformed ones are counted and reported),
    /// otherwise the file is truncated.
    pub fn open(path: &std::path::Path, resume: bool) -> std::io::Result<Self> {
        let mut done = BTreeMap::new();
        let mut unterminated = false;
        let mut skipped = 0usize;
        if resume {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    unterminated = !text.is_empty() && !text.ends_with('\n');
                    for (lineno, line) in text.lines().enumerate() {
                        if line.trim().is_empty() {
                            continue;
                        }
                        let parsed = serde_json::from_str::<RowRecord>(line)
                            .ok()
                            .and_then(|r| Some((r.key.clone(), r.row()?)));
                        match parsed {
                            Some((key, row)) => {
                                done.insert(key, row);
                            }
                            None => {
                                skipped += 1;
                                eprintln!(
                                    "[checkpoint] skipping malformed line {} of {}",
                                    lineno + 1,
                                    path.display()
                                );
                            }
                        }
                    }
                    if skipped > 0 {
                        eprintln!(
                            "[checkpoint] {} corrupted/unparseable line(s) skipped in {} — \
                             the affected rows will re-run",
                            skipped,
                            path.display()
                        );
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)?;
        if unterminated {
            // terminate the torn final line so the next append starts clean
            writeln!(file)?;
        }
        Ok(RowCheckpoint {
            done,
            file: Mutex::new(file),
            skipped,
        })
    }

    /// Number of rows loaded from the file for replay.
    pub fn loaded(&self) -> usize {
        self.done.len()
    }

    /// Number of malformed/unparseable lines skipped while loading.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The stored makespan row for `key`, if present.
    pub fn stored(&self, key: &str) -> Option<Vec<f64>> {
        self.done.get(key).cloned()
    }

    /// Appends one finished row and flushes; I/O failures are returned, not
    /// panicked, mirroring [`CellCheckpoint::record`].
    pub fn record(&self, key: &str, row: &[f64]) -> std::io::Result<()> {
        let line = serde_json::to_string(&RowRecord::new(key, row))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        writeln!(file, "{line}")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::benchmark_schedulers;

    fn instances(n: usize) -> Vec<Instance> {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let gen = saga_datasets::by_name("chains").unwrap();
        gen.sample_many(&mut rng, n)
    }

    #[test]
    fn makespans_match_the_sequential_path() {
        let scheds = benchmark_schedulers();
        let insts = instances(4);
        let engine = BatchEngine::new();
        let batched = engine.makespans(&scheds, &insts, None);
        for (inst, row) in insts.iter().zip(&batched) {
            let sequential = crate::makespans(&scheds, inst);
            assert_eq!(
                row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                sequential.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                "engine must be bit-identical to the sequential path"
            );
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        // the engine API guarantees input-order collection; exercise the
        // sharded path against the forced-sequential path
        let scheds = benchmark_schedulers();
        let insts = instances(6);
        let engine = BatchEngine::new();
        let a: Vec<Vec<u64>> = engine
            .makespans(&scheds, &insts, None)
            .into_iter()
            .map(|row| row.into_iter().map(f64::to_bits).collect())
            .collect();
        let b: Vec<Vec<u64>> = insts
            .iter()
            .map(|inst| {
                crate::makespans(&scheds, inst)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_ctx_reuses_pooled_contexts_across_batches() {
        let engine = BatchEngine::new();
        let insts = instances(3);
        let _: Vec<f64> = engine.map_ctx(insts.iter().collect(), |ctx, inst| {
            saga_schedulers::Heft.makespan_into(inst, ctx)
        });
        assert!(
            engine.pool.idle() >= 1,
            "workers must return contexts to the pool"
        );
        let before = engine.pool.idle();
        let _: Vec<f64> = engine.map_ctx(insts.iter().collect(), |ctx, inst| {
            saga_schedulers::Heft.makespan_into(inst, ctx)
        });
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        assert!(
            engine.pool.idle() <= before.max(threads),
            "second batch must reuse pooled contexts, not mint new ones per cell"
        );
    }

    fn quick_cells() -> Vec<SearchCell> {
        use saga_pisa::metric::Objective;
        use saga_pisa::{cell_config, PisaConfig};
        let base = PisaConfig {
            i_max: 60,
            restarts: 2,
            seed: 0xCE11,
            ..PisaConfig::default()
        };
        vec![
            SearchCell::pair("HEFT", "CPoP", cell_config(base, 0)),
            SearchCell::pair("CPoP", "FastestNode", cell_config(base, 1)),
            SearchCell::metric(
                Objective::RentalCost,
                "HEFT",
                "FastestNode",
                cell_config(base, 2),
            ),
            SearchCell::app("blast", 0.5, "CPoP", "FastestNode", cell_config(base, 3)),
        ]
    }

    #[test]
    fn run_cells_matches_the_pooled_runner_bit_for_bit() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let a = engine.run_cells(&cells, None, None).unwrap();
        let b = saga_pisa::run_cells_pooled(&cells);
        for ((cell, x), y) in cells.iter().zip(&a).zip(&b) {
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{}", cell.label);
            assert_eq!(x.instance.to_json(), y.instance.to_json(), "{}", cell.label);
        }
    }

    #[test]
    fn checkpoint_replays_stored_cells_exactly() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let path = std::env::temp_dir().join(format!(
            "saga_ckpt_test_{}_replay.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ck = CellCheckpoint::open(&path, false).unwrap();
        let fresh = engine.run_cells(&cells, None, Some(&ck)).unwrap();
        drop(ck);
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), cells.len());
        let replayed = engine.run_cells(&cells, None, Some(&ck)).unwrap();
        for ((cell, a), b) in cells.iter().zip(&fresh).zip(&replayed) {
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{}", cell.label);
            assert_eq!(
                a.initial_ratio.to_bits(),
                b.initial_ratio.to_bits(),
                "{}",
                cell.label
            );
            assert_eq!(a.evaluations, b.evaluations, "{}", cell.label);
            assert_eq!(a.instance.to_json(), b.instance.to_json(), "{}", cell.label);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_skips_torn_lines_and_stale_keys() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let path =
            std::env::temp_dir().join(format!("saga_ckpt_test_{}_torn.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = CellCheckpoint::open(&path, false).unwrap();
        engine.run_cells(&cells[..2], None, Some(&ck)).unwrap();
        drop(ck);
        // simulate a crash mid-append
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"pair/HEFT~CPoP#trunc").unwrap();
        }
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 2, "torn line must be dropped, good ones kept");
        assert_eq!(
            ck.skipped(),
            1,
            "the torn line must be counted and reported"
        );
        // a different budget produces different keys: nothing replays
        let mut other = quick_cells();
        for c in &mut other {
            c.config.i_max += 1;
        }
        assert!(ck.stored(&other[0].key()).is_none());
        // appending after the tear must start a fresh line — the remaining
        // cells recorded now have to survive another resume intact
        engine.run_cells(&cells, None, Some(&ck)).unwrap();
        drop(ck);
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!(
            ck.loaded(),
            cells.len(),
            "records appended after a torn line must not merge into it"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A checkpoint on a full disk: the first record fails with ENOSPC, and
    /// `run_cells` must return that error without panicking and without
    /// starting every remaining cell.
    #[cfg(target_os = "linux")]
    #[test]
    fn run_cells_stops_after_a_checkpoint_write_failure() {
        use saga_pisa::{cell_config, PisaConfig};
        let base = PisaConfig {
            i_max: 2,
            restarts: 1,
            seed: 0xF011,
            ..PisaConfig::default()
        };
        let cells: Vec<SearchCell> = (0..64)
            .map(|i| SearchCell::pair("HEFT", "CPoP", cell_config(base, i)))
            .collect();
        let ck = CellCheckpoint::open(std::path::Path::new("/dev/full"), false).unwrap();
        let progress = Progress::new("full-disk", cells.len());
        let err = BatchEngine::new()
            .run_cells(&cells, Some(&progress), Some(&ck))
            .expect_err("a write to /dev/full must fail");
        assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC, got {err}");
        assert!(
            progress.completed() < cells.len(),
            "cells kept starting after the failed write: {} of {}",
            progress.completed(),
            cells.len()
        );
    }

    #[test]
    fn progress_counts_monotonically() {
        let p = Progress::new("test", 10);
        for _ in 0..10 {
            p.tick();
        }
        assert_eq!(p.completed(), 10);
    }

    #[test]
    fn progress_accumulates_scheduler_counters() {
        let p = Progress::new("test", 4);
        p.note_worker_stats(&rayon::RunStats {
            claims: vec![2, 1],
            steals: vec![0, 1],
            items: vec![3, 1],
        });
        p.note_worker_stats(&rayon::RunStats {
            claims: vec![1],
            steals: vec![0],
            items: vec![4],
        });
        assert_eq!(p.claims(), 4);
        assert_eq!(p.steals(), 1);
    }

    #[test]
    fn row_checkpoint_round_trips_bits_and_counts_tears() {
        let path =
            std::env::temp_dir().join(format!("saga_rowckpt_test_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = RowCheckpoint::open(&path, false).unwrap();
        let row = vec![1.5, f64::INFINITY, 0.1 + 0.2];
        ck.record("fig2/chains#k0#s0000000000000001", &row).unwrap();
        ck.record("fig2/chains#k1#s0000000000000001", &[]).unwrap();
        drop(ck);
        // simulate a crash mid-append
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"fig2/chains#k2").unwrap();
        }
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 2);
        assert_eq!(ck.skipped(), 1);
        let replay = ck.stored("fig2/chains#k0#s0000000000000001").unwrap();
        assert_eq!(
            replay.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            "replay must be bit-identical, infinities included"
        );
        assert_eq!(
            ck.stored("fig2/chains#k1#s0000000000000001").unwrap(),
            vec![]
        );
        // appending after the tear starts a fresh line
        ck.record("fig2/chains#k3#s0000000000000001", &[2.0])
            .unwrap();
        drop(ck);
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_dataset_rows_cover_exactly_and_match_unsharded() {
        use saga_pisa::ShardSpec;
        let gen = saga_datasets::by_name("chains").unwrap();
        let scheds = benchmark_schedulers();
        let engine = BatchEngine::new();
        let count = 6;
        let seed = 0xF162;
        let key_of = |k: usize| format!("fig2/chains#k{k}#s{seed:016x}");
        let full = engine.dataset_makespans(&scheds, &gen, count, seed, None);
        let mut merged: Vec<Option<Vec<f64>>> = vec![None; count];
        for index in 0..3u64 {
            let shard = ShardSpec { index, count: 3 };
            let rows = engine
                .dataset_makespans_sharded(&scheds, &gen, count, seed, &key_of, shard, None, None)
                .unwrap();
            for (k, row) in rows.into_iter().enumerate() {
                if let Some(row) = row {
                    assert!(merged[k].is_none(), "row {k} computed by two shards");
                    merged[k] = Some(row);
                }
            }
        }
        for (k, row) in merged.into_iter().enumerate() {
            let row = row.unwrap_or_else(|| panic!("row {k} computed by no shard"));
            assert_eq!(
                row.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                full[k].iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                "sharded row {k} must match the unsharded run bit-for-bit"
            );
        }
    }

    /// The row twin of `run_cells_stops_after_a_checkpoint_write_failure`.
    #[cfg(target_os = "linux")]
    #[test]
    fn sharded_dataset_rows_stop_after_a_checkpoint_write_failure() {
        use saga_pisa::ShardSpec;
        let gen = saga_datasets::by_name("chains").unwrap();
        let scheds: Vec<Box<dyn Scheduler>> = ["HEFT", "FastestNode"]
            .iter()
            .map(|n| saga_schedulers::by_name(n).unwrap())
            .collect();
        let count = 64;
        let key_of = |k: usize| format!("fig2/chains#k{k}");
        let ck = RowCheckpoint::open(std::path::Path::new("/dev/full"), false).unwrap();
        let progress = Progress::new("full-disk", count);
        let err = BatchEngine::new()
            .dataset_makespans_sharded(
                &scheds,
                &gen,
                count,
                0xF011,
                &key_of,
                ShardSpec::FULL,
                Some(&progress),
                Some(&ck),
            )
            .expect_err("a write to /dev/full must fail");
        assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC, got {err}");
        assert!(
            progress.completed() < count,
            "rows kept starting after the failed write: {} of {count}",
            progress.completed()
        );
    }

    #[test]
    fn sharded_dataset_rows_replay_from_checkpoint() {
        use saga_pisa::ShardSpec;
        let gen = saga_datasets::by_name("chains").unwrap();
        let scheds = benchmark_schedulers();
        let engine = BatchEngine::new();
        let seed = 0xF162;
        let key_of = |k: usize| format!("fig2/chains#k{k}#s{seed:016x}");
        let path =
            std::env::temp_dir().join(format!("saga_rowckpt_shard_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = RowCheckpoint::open(&path, false).unwrap();
        let fresh = engine
            .dataset_makespans_sharded(
                &scheds,
                &gen,
                4,
                seed,
                &key_of,
                ShardSpec::FULL,
                None,
                Some(&ck),
            )
            .unwrap();
        drop(ck);
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!(ck.loaded(), 4);
        let replayed = engine
            .dataset_makespans_sharded(
                &scheds,
                &gen,
                4,
                seed,
                &key_of,
                ShardSpec::FULL,
                None,
                Some(&ck),
            )
            .unwrap();
        for (a, b) in fresh.iter().zip(&replayed) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
