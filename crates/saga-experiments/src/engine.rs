//! The shared batch experiment engine.
//!
//! Every paper experiment is a grid of independent cells — (dataset ×
//! instance × scheduler), (witness × candidate), (workflow × realization) —
//! and before this engine existed each binary walked its grid sequentially,
//! rebuilding cost tables and reallocating contexts per run. The engine
//! factors the common machinery out once:
//!
//! * **Sharding** — cells fan out across the engine's workers
//!   (`crate::workers`), which claim cells one at a time from a shared
//!   cursor, so skewed cells — mixed-size datasets, pairwise blowup
//!   cells — don't straggle on one worker;
//! * **Context reuse** — each worker takes one warm [`SchedContext`] from a
//!   shared [`ContextPool`] once and keeps it for its whole run, so cells
//!   allocate nothing after warm-up, and the pool keeps the warmth across
//!   batches;
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
//!   `eprintln!` assumed sequential execution);
//! * **Resume and shards** — [`BatchEngine::run_cells`] and
//!   [`BatchEngine::dataset_makespans_sharded`] run one keyed-grid loop:
//!   each unit of work has a stable key that picks its shard and its
//!   checkpoint record, so stored records replay instead of re-running.

// a checkpoint IO path: a failed write is returned, never an abort mid-grid
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::checkpoint::{Checkpoint, Record};
use crate::workers;
use saga_core::{ContextPool, Instance, SchedContext};
use saga_pisa::annealer::AnnealScratch;
use saga_pisa::{PisaResult, SearchCell, ShardSpec};
use saga_schedulers::Scheduler;
use std::borrow::Borrow;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

pub use crate::checkpoint::{CellCheckpoint, RowCheckpoint};
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

    /// Adds `n` worker claims to this reporter's total.
    pub(crate) fn note_claims(&self, n: usize) {
        self.claims.fetch_add(n, Ordering::Relaxed);
    }

    /// Total worker claims across the runs that reported to this
    /// reporter. Workers claim items one at a time, so this counts one
    /// claim per item.
    pub fn claims(&self) -> usize {
        self.claims.load(Ordering::Relaxed)
    }

    /// Always 0: workers claim items from one shared cursor, so there is
    /// no other worker's queue to steal from. Kept for `pisa_bench`, which
    /// still reports it as `engine.steals`.
    pub fn steals(&self) -> usize {
        0
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
        workers::map_init(workers::count(), cells, || (), |_, cell| f(cell), None)
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
        workers::map_init(
            workers::count(),
            cells,
            || self.pool.take(),
            |ctx, cell| f(ctx, cell),
            None,
        )
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
    /// Cells shard across workers; each worker holds one warm
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
    /// A checkpoint *write* failure (full disk, closed pipe) does not
    /// abort the process mid-grid: cells already in flight finish, cells
    /// not yet started are skipped (their annealing work would be discarded
    /// with the error anyway), and the first I/O error is returned — with
    /// every cell recorded before it already flushed to the file, so a
    /// `--resume` continues from there.
    pub fn run_cells(
        &self,
        cells: &[SearchCell],
        progress: Option<&Progress>,
        checkpoint: Option<&CellCheckpoint>,
    ) -> io::Result<Vec<PisaResult>> {
        let results = self.run_keyed(
            cells,
            SearchCell::key,
            ShardSpec::FULL,
            progress,
            checkpoint,
            |ctx, scratch: &mut AnnealScratch, cell| cell.run(ctx, scratch),
        )?;
        // with no write error and the full shard, every cell ran
        results
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| io::Error::other("a cell was skipped without a write error"))
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
        workers::map_init(
            workers::count(),
            instances,
            || self.pool.take(),
            |ctx, inst| {
                let row = pinned_row(ctx, schedulers, inst);
                if let Some(p) = progress {
                    p.tick();
                }
                row
            },
            progress,
        )
    }

    /// The fused, resumable fig2-class dataset loop: row `k` *generates*
    /// instance `k` from its own derived seed (`derive_seed(seed, k)`) and
    /// evaluates every scheduler on it under pinned cost tables, all inside
    /// the worker — so dataset sampling shards across cores along with the
    /// evaluation. Each row carries a stable key (`key_of(k)`); only rows in
    /// `shard` are computed (the rest come back `None`), and rows already
    /// stored in the [`RowCheckpoint`] replay instead of re-running. Rows
    /// come back in instance order, bit-identical for any
    /// `RAYON_NUM_THREADS` and to generating the instances up front with
    /// the same per-instance seeds, so the union of all shards' checkpoints
    /// reconstructs the 1-host run exactly.
    ///
    /// A checkpoint write failure skips rows not yet started (mirroring
    /// [`run_cells`](Self::run_cells)) and returns the first I/O error with
    /// everything recorded before it already flushed.
    #[expect(
        clippy::too_many_arguments,
        reason = "the rows, their seeds and keys, plus the shard, progress and checkpoint every grid takes"
    )]
    pub fn dataset_makespans_sharded(
        &self,
        schedulers: &[Box<dyn Scheduler>],
        gen: &saga_datasets::DatasetGenerator,
        count: usize,
        seed: u64,
        key_of: &(impl Fn(usize) -> String + Sync),
        shard: ShardSpec,
        progress: Option<&Progress>,
        checkpoint: Option<&RowCheckpoint>,
    ) -> io::Result<Vec<Option<Vec<f64>>>> {
        let ks: Vec<usize> = (0..count).collect();
        self.run_keyed(
            &ks,
            |&k| key_of(k),
            shard,
            progress,
            checkpoint,
            |ctx, _: &mut (), &k| {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                    derive_seed(seed, k as u64),
                );
                pinned_row(ctx, schedulers, &gen.sample(&mut rng))
            },
        )
    }

    /// The one resumable keyed-grid loop. Per item, in order: skip it
    /// (`None`) when its key is outside `shard`; replay it when
    /// `checkpoint` holds its key; skip it (`None`) once an earlier
    /// checkpoint write failed; otherwise compute it with the worker's warm
    /// context and scratch, record it, and tick `progress`. Results come
    /// back in item order; the first write error, if any, is returned
    /// instead, with every record before it flushed.
    fn run_keyed<T: Sync, S: Default, R: Record + Send + Sync + Borrow<R::Input>>(
        &self,
        items: &[T],
        key_of: impl Fn(&T) -> String + Sync,
        shard: ShardSpec,
        progress: Option<&Progress>,
        checkpoint: Option<&Checkpoint<R>>,
        compute: impl Fn(&mut SchedContext, &mut S, &T) -> R + Sync,
    ) -> io::Result<Vec<Option<R>>> {
        let write_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let failed = AtomicBool::new(false);
        let tick = || {
            if let Some(p) = progress {
                p.tick();
            }
        };
        let out = workers::map_init(
            workers::count(),
            items,
            || (self.pool.take(), S::default()),
            |(ctx, scratch), item| {
                let key = key_of(item);
                if !shard.contains_key(&key) {
                    return None;
                }
                if let Some(stored) = checkpoint.and_then(|c| c.take(&key)) {
                    // replayed, not re-recorded: the file already holds
                    // this line
                    tick();
                    return Some(stored);
                }
                // once a write failed, the run's results can never all
                // be returned — don't burn work that would be thrown
                // away with the error
                if failed.load(Ordering::Relaxed) {
                    return None;
                }
                let value = compute(ctx, scratch, item);
                if let Some(Err(e)) = checkpoint.map(|c| c.record(&key, value.borrow())) {
                    // a poisoned slot still holds a coherent Option;
                    // recover it rather than abort
                    write_error
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .get_or_insert(e);
                    failed.store(true, Ordering::Relaxed);
                }
                tick();
                Some(value)
            },
            progress,
        );
        match write_error
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
        {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// Every scheduler's makespan on `inst`, with the cost tables built once
/// and pinned for the whole row ([`SchedContext::with_pinned`]). A
/// parameterless scheduler that already ran in the row is looked up, not
/// re-run ([`SchedContext::pinned_makespan`]): in the Fig. 2 roster,
/// Duplex's MinMin and MaxMin runs serve those two columns.
fn pinned_row(
    ctx: &mut SchedContext,
    schedulers: &[Box<dyn Scheduler>],
    inst: &Instance,
) -> Vec<f64> {
    ctx.with_pinned(inst, |ctx| {
        schedulers
            .iter()
            .map(|s| s.makespan_into(inst, ctx))
            .collect()
    })
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
        let insts = instances(6);
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
    fn map_ctx_reuses_pooled_contexts_across_batches() {
        let engine = BatchEngine::new();
        let insts = instances(12);
        // each worker takes one context, so two batches hold at most one
        // context per worker unless the second mints instead of reusing
        let most = workers::count().min(insts.len());
        for batch in 0..2 {
            let _: Vec<f64> = engine.map_ctx(insts.iter().collect(), |ctx, inst| {
                saga_schedulers::Heft.makespan_into(inst, ctx)
            });
            let idle = engine.pool.idle();
            assert!(idle >= 1, "workers must return contexts to the pool");
            assert!(
                idle <= most,
                "batch {batch} left {idle} pooled contexts for {most} workers"
            );
        }
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
    fn run_cells_matches_in_order_cell_runs_bit_for_bit() {
        let cells = quick_cells();
        let engine = BatchEngine::new();
        let a = engine.run_cells(&cells, None, None).unwrap();
        let mut ctx = SchedContext::new();
        let mut scratch = AnnealScratch::default();
        for (cell, x) in cells.iter().zip(&a) {
            let y = cell.run(&mut ctx, &mut scratch);
            assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{}", cell.label);
            assert_eq!(x.evaluations, y.evaluations, "{}", cell.label);
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
        // the replay handed every record over; the count stays
        assert!(cells.iter().all(|c| ck.stored(&c.key()).is_none()));
        assert_eq!(ck.loaded(), cells.len());
        // a second replay of the handed-over keys computes them again,
        // bit-identically, and appends byte-identical repeats
        let again = engine.run_cells(&cells, None, Some(&ck)).unwrap();
        for results in [&replayed, &again] {
            for ((cell, a), b) in cells.iter().zip(&fresh).zip(results) {
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
        }
        drop(ck);
        let ck = CellCheckpoint::open(&path, true).unwrap();
        assert_eq!((ck.loaded(), ck.skipped()), (cells.len(), 0));
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
        let p = Progress::new("test", 8);
        let _ = workers::map_init(2, 0..5, || (), |_, i| i, Some(&p));
        let _ = workers::map_init(1, 0..3, || (), |_, i| i, Some(&p));
        assert_eq!(p.claims(), 8, "one claim per item, summed across runs");
        assert_eq!(p.steals(), 0);
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
        let full = engine.makespans(
            &scheds,
            &crate::benchmarking::dataset_instances(&gen, count, seed),
            None,
        );
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
