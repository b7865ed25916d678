//! The four workloads: set-up, one timed rep, and the checks on its outputs.
//!
//! Every rep goes through the entry points the experiment binaries call
//! (`BatchEngine::run_cells`, `BatchEngine::dataset_makespans_sharded`,
//! the two checkpoint types and `merge::merge_to_path`), and every rep of a
//! run repeats the same seeded work, so its result digest must equal the
//! first one computed for the same grid.

use crate::grids::{self, APP_SLICES, FIG2_INSTANCES, RESUME_IMAX, RESUME_SHARDS};
use crate::stats::DigestInput;
use rand::SeedableRng;
use saga_datasets::DatasetGenerator;
use saga_experiments::engine::{derive_seed, BatchEngine, CellCheckpoint, Progress, RowCheckpoint};
use saga_experiments::merge::{merge_to_path, MergeSummary};
use saga_pisa::{shard_cells, CellKind, GeneralPerturber, Pisa, PisaResult, SearchCell, ShardSpec};
use saga_schedulers::Scheduler;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 210-cell Section VI pairwise grid at the paper's constants.
    Fig4,
    /// A ninth of the 1350-cell Section VII grid per rep (every ninth
    /// cell); nine reps cover the grid once.
    App,
    /// The 16-dataset x 100-instance x 15-scheduler benchmarking grid.
    Fig2,
    /// Merging, opening and replaying 2-way shard checkpoints of the full
    /// Section VII grid and every fig2 row.
    Resume,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 4] = [Kind::Fig4, Kind::App, Kind::Fig2, Kind::Resume];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig4 => "fig4",
            Kind::App => "app",
            Kind::Fig2 => "fig2",
            Kind::Resume => "resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The seed of the experiment binary the workload stands in for.
    pub fn default_seed(self) -> u64 {
        match self {
            Kind::Fig4 => 0xF164,
            Kind::App | Kind::Resume => 0xA551,
            Kind::Fig2 => 0xF162,
        }
    }
}

/// What one rep produced.
pub enum Outputs {
    /// Annealing results of grid `grid`, in cell order.
    Cells {
        /// Index into [`Bench::grids`].
        grid: usize,
        /// One result per cell.
        results: Vec<PisaResult>,
    },
    /// Fig. 2 makespan rows, dataset-major.
    Rows(Vec<Vec<f64>>),
    /// Everything a resumed run read back.
    Replay {
        /// Replayed cells of [`Bench::grids`]`[0]`.
        cells: Vec<PisaResult>,
        /// Replayed fig2 rows, dataset-major.
        rows: Vec<Vec<f64>>,
        /// No torn, duplicate or skipped line, and every record present.
        clean: bool,
    },
}

/// Checks attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Checks and operations attempted.
    pub attempted: u64,
    /// Checks that failed and operations that returned an error.
    pub failed: u64,
}

impl Tally {
    /// Counts one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Input files of the `resume` workload and the results they hold.
pub struct ResumeFiles {
    /// Per-shard cell checkpoints.
    pub cell_shards: Vec<PathBuf>,
    /// Per-shard fig2 row checkpoints.
    pub row_shards: Vec<PathBuf>,
    /// Where the merged cell checkpoint goes.
    pub cells_merged: PathBuf,
    /// Where the merged row checkpoint goes.
    pub rows_merged: PathBuf,
    /// The results the shard runs computed.
    pub reference: Outputs,
}

/// One workload's inputs and engine, kept across reps.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
    /// Directory for checkpoint files.
    pub dir: PathBuf,
    /// The engine every rep runs on.
    pub engine: BatchEngine,
    /// The 15 benchmark schedulers (fig2 rows).
    pub schedulers: Vec<Box<dyn Scheduler>>,
    /// The 16 dataset generators (fig2 rows).
    pub generators: Vec<DatasetGenerator>,
    /// Cell grids: fig4's one grid, app's nine slices of the Section VII
    /// grid, or the whole Section VII grid that `resume` reads back.
    pub grids: Vec<Vec<SearchCell>>,
    /// `resume`'s shard files.
    pub resume: Option<ResumeFiles>,
}

impl Bench {
    /// Builds the workload's inputs; for `resume` this runs the shards and
    /// writes their checkpoints.
    pub fn setup(kind: Kind, seed: u64, dir: &Path) -> io::Result<Bench> {
        let grids = match kind {
            Kind::Fig4 => vec![grids::fig4_cells(seed)],
            Kind::App => grids::dealt(grids::section7_cells(seed, grids::APP_IMAX), APP_SLICES),
            Kind::Fig2 => Vec::new(),
            Kind::Resume => vec![grids::section7_cells(seed, RESUME_IMAX)],
        };
        let mut bench = Bench {
            kind,
            seed,
            dir: dir.to_path_buf(),
            engine: BatchEngine::new(),
            schedulers: saga_schedulers::benchmark_schedulers(),
            generators: saga_datasets::all_generators(),
            grids,
            resume: None,
        };
        if kind == Kind::Resume {
            bench.resume = Some(bench.write_shards()?);
        }
        Ok(bench)
    }

    /// Runs every cell and fig2 row once, split into shards, each shard
    /// into its own checkpoint files.
    fn write_shards(&self) -> io::Result<ResumeFiles> {
        let cells = &self.grids[0];
        let mut by_key: BTreeMap<String, PisaResult> = BTreeMap::new();
        let mut rows_by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut cell_shards, mut row_shards) = (Vec::new(), Vec::new());
        for index in 0..RESUME_SHARDS {
            let shard = ShardSpec {
                index,
                count: RESUME_SHARDS,
            };
            let path = shard.checkpoint_path(&self.dir.join("cells.jsonl"));
            let mine = shard_cells(cells.clone(), shard);
            let ck = CellCheckpoint::open(fresh(&path)?, false)?;
            let results = self.engine.run_cells(&mine, None, Some(&ck))?;
            by_key.extend(mine.iter().map(|c| c.key()).zip(results));
            cell_shards.push(path);

            let path = shard.checkpoint_path(&self.dir.join("rows.jsonl"));
            let ck = RowCheckpoint::open(fresh(&path)?, false)?;
            let rows = self.fig2_rows(shard, None, &ck)?;
            rows_by_key.extend(
                self.fig2_keys()
                    .zip(rows)
                    .filter_map(|(key, row)| Some((key, row?))),
            );
            row_shards.push(path);
        }
        let missing = || io::Error::other("a shard run left a record out");
        let cells = cells
            .iter()
            .map(|c| by_key.remove(&c.key()))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(missing)?;
        let rows = self
            .fig2_keys()
            .map(|k| rows_by_key.remove(&k))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(missing)?;
        Ok(ResumeFiles {
            cell_shards,
            row_shards,
            cells_merged: self.dir.join("cells.merged.jsonl"),
            rows_merged: self.dir.join("rows.merged.jsonl"),
            reference: Outputs::Replay {
                cells,
                rows,
                clean: true,
            },
        })
    }

    /// Reps per workload cycle: `app` cycles through its nine slices, and
    /// a run ends on a cycle boundary so it covers the grid a whole number
    /// of times.
    pub fn cycle(&self) -> usize {
        if self.kind == Kind::App {
            APP_SLICES
        } else {
            1
        }
    }

    /// Which grid rep `r` computes.
    pub fn grid_of(&self, r: usize) -> usize {
        r % self.cycle()
    }

    /// Cells, instances or records one rep of grid `grid` handles.
    pub fn items(&self, grid: usize) -> usize {
        let rows = self.generators.len() * FIG2_INSTANCES;
        match self.kind {
            Kind::Fig4 | Kind::App => self.grids[grid].len(),
            Kind::Fig2 => rows,
            Kind::Resume => self.grids[0].len() + rows,
        }
    }

    /// Fig. 2 row keys, dataset-major.
    pub fn fig2_keys(&self) -> impl Iterator<Item = String> + '_ {
        self.generators.iter().flat_map(move |g| {
            (0..FIG2_INSTANCES).map(move |k| grids::fig2_key(g.name, k, self.seed))
        })
    }

    /// The fig2 rows of `shard` (`None` outside it), through the engine.
    fn fig2_rows(
        &self,
        shard: ShardSpec,
        progress: Option<&Progress>,
        ck: &RowCheckpoint,
    ) -> io::Result<Vec<Option<Vec<f64>>>> {
        let mut rows = Vec::with_capacity(self.generators.len() * FIG2_INSTANCES);
        for gen in &self.generators {
            let key_of = |k: usize| grids::fig2_key(gen.name, k, self.seed);
            rows.extend(self.engine.dataset_makespans_sharded(
                &self.schedulers,
                gen,
                FIG2_INSTANCES,
                self.seed,
                &key_of,
                shard,
                progress,
                Some(ck),
            )?);
        }
        Ok(rows)
    }

    /// One rep of the workload, as the experiment binaries run it.
    pub fn rep(&self, r: usize, progress: Option<&Progress>) -> io::Result<Outputs> {
        match self.kind {
            Kind::Fig4 | Kind::App => {
                let grid = self.grid_of(r);
                let ck = CellCheckpoint::open(fresh(&self.dir.join("cells.jsonl"))?, false)?;
                let results = self
                    .engine
                    .run_cells(&self.grids[grid], progress, Some(&ck))?;
                Ok(Outputs::Cells { grid, results })
            }
            Kind::Fig2 => {
                let ck = RowCheckpoint::open(fresh(&self.dir.join("rows.jsonl"))?, false)?;
                let rows = self.fig2_rows(ShardSpec::FULL, progress, &ck)?;
                Ok(Outputs::Rows(complete(rows)?))
            }
            Kind::Resume => {
                let files = self.resume_files();
                let merged = [
                    merge_to_path(&files.cell_shards, fresh(&files.cells_merged)?)
                        .map_err(io::Error::other)?,
                    merge_to_path(&files.row_shards, fresh(&files.rows_merged)?)
                        .map_err(io::Error::other)?,
                ];
                let cell_ck = CellCheckpoint::open(&files.cells_merged, true)?;
                let cells = self
                    .engine
                    .run_cells(&self.grids[0], progress, Some(&cell_ck))?;
                let row_ck = RowCheckpoint::open(&files.rows_merged, true)?;
                let rows = complete(self.fig2_rows(ShardSpec::FULL, progress, &row_ck)?)?;
                let clean = self.resume_clean(
                    &merged,
                    [cell_ck.loaded(), row_ck.loaded()],
                    cell_ck.skipped() + row_ck.skipped(),
                );
                Ok(Outputs::Replay { cells, rows, clean })
            }
        }
    }

    /// `resume`'s shard files.
    ///
    /// # Panics
    /// On any other workload.
    pub fn resume_files(&self) -> &ResumeFiles {
        self.resume
            .as_ref()
            .expect("resume workload set up its shards")
    }

    /// Whether a resumed read saw every record once and nothing torn:
    /// `merged` and `loaded` are the (cells, rows) merge summaries and
    /// loaded-record counts, `skipped` the malformed lines the opens skipped.
    pub fn resume_clean(
        &self,
        merged: &[MergeSummary],
        loaded: [usize; 2],
        skipped: usize,
    ) -> bool {
        let expected = [self.grids[0].len(), self.generators.len() * FIG2_INSTANCES];
        skipped == 0
            && merged.iter().all(|m| m.torn == 0 && m.duplicates == 0)
            && merged.iter().map(|m| m.records).eq(expected)
            && loaded == expected
    }

    /// The digest of a rep's results.
    pub fn digest(&self, out: &Outputs) -> u64 {
        let mut d = DigestInput::default();
        let rows = |d: &mut DigestInput, rows: &[Vec<f64>]| {
            for (key, row) in self.fig2_keys().zip(rows) {
                d.row(&key, row);
            }
        };
        match out {
            Outputs::Cells { grid, results } => {
                for (cell, res) in self.grids[*grid].iter().zip(results) {
                    d.cell(cell, res);
                }
            }
            Outputs::Rows(r) => rows(&mut d, r),
            Outputs::Replay { cells, rows: r, .. } => {
                for (cell, res) in self.grids[0].iter().zip(cells) {
                    d.cell(cell, res);
                }
                rows(&mut d, r);
            }
        }
        d.finish()
    }

    /// Re-derives a sample of the outputs independently of the engine:
    /// every 10th cell's ratio on a fresh context over its witness, with
    /// both schedules verified, and every 50th fig2 row from a fresh
    /// instance through `Scheduler::schedule` and `Schedule::verify`.
    pub fn deep_check(&self, out: &Outputs, tally: &mut Tally) {
        match out {
            Outputs::Cells { grid, results } => check_cells(&self.grids[*grid], results, tally),
            Outputs::Rows(rows) => self.check_rows(rows, tally),
            Outputs::Replay { cells, rows, .. } => {
                check_cells(&self.grids[0], cells, tally);
                self.check_rows(rows, tally);
            }
        }
    }

    fn check_rows(&self, rows: &[Vec<f64>], tally: &mut Tally) {
        for (i, row) in rows.iter().enumerate().step_by(50) {
            let gen = &self.generators[i / FIG2_INSTANCES];
            let k = i % FIG2_INSTANCES;
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(self.seed, k as u64));
            let inst = gen.sample(&mut rng);
            let ok = row.len() == self.schedulers.len()
                && self.schedulers.iter().zip(row).all(|(s, m)| {
                    let sched = s.schedule(&inst);
                    sched.verify(&inst).is_ok() && sched.makespan().to_bits() == m.to_bits()
                });
            tally.check(ok);
        }
    }
}

/// `path`, with any file already there removed. Checkpoints and merges
/// then create their files rather than replace them: ext4 and similar
/// filesystems push a replaced file's data to disk on close or rename,
/// which would add the host disk's speed to every rep.
pub fn fresh(path: &Path) -> io::Result<&Path> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(path),
    }
}

/// Unwraps the rows of a full-shard run.
fn complete(rows: Vec<Option<Vec<f64>>>) -> io::Result<Vec<Vec<f64>>> {
    rows.into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| io::Error::other("a full-shard run left a row out"))
}

/// The target and baseline scheduler names of an annealing cell.
pub fn pair_names(cell: &SearchCell) -> Option<(&str, &str)> {
    match &cell.kind {
        CellKind::Pair { target, baseline }
        | CellKind::App {
            target, baseline, ..
        } => Some((target, baseline)),
        _ => None,
    }
}

fn check_cells(cells: &[SearchCell], results: &[PisaResult], tally: &mut Tally) {
    for (cell, res) in cells.iter().zip(results).step_by(10) {
        let schedulers = pair_names(cell)
            .and_then(|(t, b)| Some((saga_schedulers::by_name(t)?, saga_schedulers::by_name(b)?)));
        let ok = schedulers.is_some_and(|(t, b)| {
            let pisa = Pisa {
                target: &*t,
                baseline: &*b,
                perturber: &GeneralPerturber::default(),
                config: cell.config,
            };
            let inst = &res.instance;
            pisa.ratio(inst).to_bits() == res.ratio.to_bits()
                && t.schedule(inst).verify(inst).is_ok()
                && b.schedule(inst).verify(inst).is_ok()
        });
        tally.check(ok);
    }
}
