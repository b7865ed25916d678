//! The append-only JSONL checkpoint log behind every resumable grid.
//!
//! A [`Checkpoint`] appends (and flushes) one `{"key": …}` line per
//! finished unit of work, and a resumed run loads the stored lines and
//! replays them by key instead of recomputing. Only the record format
//! varies: [`CellCheckpoint`] stores the [`PisaResult`] of a
//! [`SearchCell`](saga_pisa::SearchCell), [`RowCheckpoint`] a fig2
//! makespan row. Both store floats as `f64::to_bits` hex: replay must be
//! bit-identical, and JSON float printing would neither round-trip the
//! last ulp nor encode the unbounded cells' infinities.
//!
//! Torn lines — a crash mid-append, a byte that is not UTF-8 — are
//! counted and skipped, so a damaged checkpoint only costs re-running the
//! affected records. `saga-merge` reads its inputs with the same line
//! splitter, `lines`.

use saga_core::Instance;
use saga_pisa::PisaResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// The non-blank lines of a JSONL file's bytes with their 1-based line
/// numbers: split on `\n` (a trailing `\r` dropped), and `None` for a
/// line that is not UTF-8 — the caller counts that line as torn.
pub(crate) fn lines(bytes: &[u8]) -> impl Iterator<Item = (usize, Option<&str>)> {
    bytes
        .split(|&b| b == b'\n')
        .enumerate()
        .filter_map(|(i, line)| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => None,
                text => Some((i + 1, text.ok())),
            }
        })
}

mod sealed {
    /// One checkpoint record format: how a value encodes to a JSONL line
    /// under its key, and how a line decodes back.
    pub trait Record: Clone + Sized {
        /// What [`Checkpoint::record`](super::Checkpoint::record) takes.
        type Input: ?Sized;
        fn encode(key: &str, value: &Self::Input) -> std::io::Result<String>;
        /// `None` for a line that is not a well-formed record.
        fn decode(line: &str) -> Option<(String, Self)>;
    }
}
pub(crate) use sealed::Record;

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn from_hex_bits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// One [`CellCheckpoint`] line. `ratio` repeats the ratio as a plain float
/// for human readers; `None` encodes an unbounded cell, mirroring the
/// witness-library format.
#[derive(Serialize, Deserialize)]
struct CellRecord {
    key: String,
    ratio_bits: String,
    initial_bits: String,
    evaluations: usize,
    ratio: Option<f64>,
    instance: serde_json::Value,
}

impl Record for PisaResult {
    type Input = PisaResult;

    fn encode(key: &str, res: &PisaResult) -> io::Result<String> {
        let record = CellRecord {
            key: key.to_string(),
            ratio_bits: hex_bits(res.ratio),
            initial_bits: hex_bits(res.initial_ratio),
            evaluations: res.evaluations,
            ratio: res.ratio.is_finite().then_some(res.ratio),
            instance: serde_json::from_str(&res.instance.to_json()).map_err(invalid_data)?,
        };
        serde_json::to_string(&record).map_err(invalid_data)
    }

    fn decode(line: &str) -> Option<(String, PisaResult)> {
        let r: CellRecord = serde_json::from_str(line).ok()?;
        let res = PisaResult {
            instance: Instance::from_json(&r.instance.to_string()).ok()?,
            ratio: from_hex_bits(&r.ratio_bits)?,
            initial_ratio: from_hex_bits(&r.initial_bits)?,
            evaluations: r.evaluations,
        };
        Some((r.key, res))
    }
}

/// One [`RowCheckpoint`] line: the makespans as space-joined hex words.
#[derive(Serialize, Deserialize)]
struct RowRecord {
    key: String,
    bits: String,
}

impl Record for Vec<f64> {
    type Input = [f64];

    fn encode(key: &str, row: &[f64]) -> io::Result<String> {
        let bits = row.iter().map(|&m| hex_bits(m)).collect::<Vec<_>>();
        let record = RowRecord {
            key: key.to_string(),
            bits: bits.join(" "),
        };
        serde_json::to_string(&record).map_err(invalid_data)
    }

    fn decode(line: &str) -> Option<(String, Vec<f64>)> {
        let r: RowRecord = serde_json::from_str(line).ok()?;
        let row = r
            .bits
            .split_whitespace()
            .map(from_hex_bits)
            .collect::<Option<_>>()?;
        Some((r.key, row))
    }
}

/// A JSONL checkpoint of keyed records: every finished record is appended
/// and flushed as it completes, and a resumed run replays stored records
/// instead of recomputing them. Keys are the contract — a
/// [`SearchCell::key`](saga_pisa::SearchCell::key) encodes the budget and
/// seed, so changing `--imax`/`--restarts`/`--seed` makes old lines
/// unmatchable rather than silently wrong.
pub struct Checkpoint<R> {
    done: BTreeMap<String, R>,
    file: Mutex<std::fs::File>,
    skipped: usize,
}

/// The checkpoint of [`BatchEngine::run_cells`](crate::engine::BatchEngine::run_cells):
/// one `{key, ratio_bits, initial_bits, evaluations, ratio, instance}`
/// line per finished search cell.
pub type CellCheckpoint = Checkpoint<PisaResult>;

/// The checkpoint of
/// [`BatchEngine::dataset_makespans_sharded`](crate::engine::BatchEngine::dataset_makespans_sharded):
/// one `{key, bits}` makespan row per fig2 instance.
pub type RowCheckpoint = Checkpoint<Vec<f64>>;

impl<R: Record> Checkpoint<R> {
    /// Opens `path` for checkpointing. With `resume`, existing well-formed
    /// lines are loaded for replay and new records append after them;
    /// otherwise the file is truncated and the run starts clean.
    ///
    /// Malformed resume lines are counted ([`skipped`](Self::skipped)) and
    /// reported on stderr — a corrupted checkpoint is visible instead of
    /// quietly recomputing its records.
    pub fn open(path: &Path, resume: bool) -> io::Result<Self> {
        let bytes = if resume {
            match std::fs::read(path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                read => read?,
            }
        } else {
            Vec::new()
        };
        let mut done = BTreeMap::new();
        let mut skipped = 0usize;
        for (lineno, line) in lines(&bytes) {
            if let Some((key, value)) = line.and_then(R::decode) {
                done.insert(key, value);
            } else {
                skipped += 1;
                eprintln!(
                    "[checkpoint] skipping malformed line {lineno} of {}",
                    path.display()
                );
            }
        }
        if skipped > 0 {
            eprintln!(
                "[checkpoint] {skipped} corrupted/unparseable line(s) skipped in {} — \
                 the affected records will re-run",
                path.display()
            );
        }
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(resume)
            .truncate(!resume)
            .write(true)
            .open(path)?;
        if !bytes.is_empty() && !bytes.ends_with(b"\n") {
            // a crash mid-append left a torn final line (already skipped
            // above); terminate it so the next record starts on its own
            // line instead of merging into — and corrupting — the tear
            writeln!(file)?;
        }
        Ok(Checkpoint {
            done,
            file: Mutex::new(file),
            skipped,
        })
    }

    /// Number of records loaded from the file for replay.
    pub fn loaded(&self) -> usize {
        self.done.len()
    }

    /// Number of malformed/unparseable lines skipped while loading for
    /// resume (0 for a fresh run).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The stored record for `key`, if the checkpoint has it.
    pub fn stored(&self, key: &str) -> Option<R> {
        self.done.get(key).cloned()
    }

    /// Appends one finished record and flushes, so an interruption loses
    /// at most the records in flight. An I/O failure (full disk, closed
    /// pipe) is returned instead of panicking, so the driver can finish
    /// the batch and surface the error with everything already recorded
    /// still intact.
    pub fn record(&self, key: &str, value: &R::Input) -> io::Result<()> {
        let line = R::encode(key, value)?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
