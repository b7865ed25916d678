//! The append-only JSONL checkpoint log behind every resumable grid.
//!
//! A [`Checkpoint`] appends (and flushes) one `{"key": …}` line per
//! finished unit of work, and a resumed run loads the stored lines and
//! replays them by key instead of recomputing. Only the record format
//! varies: [`CellCheckpoint`] stores the [`PisaResult`] of a
//! [`SearchCell`](saga_pisa::SearchCell), [`RowCheckpoint`] a fig2
//! makespan row. Both store floats as `f64::to_bits` hex: replay must be
//! bit-identical, and JSON float printing would neither round-trip the
//! last ulp nor encode the unbounded cells' infinities. A cell's witness
//! instance is embedded in the [`Instance`] JSON form.
//!
//! Lines are written through the value tree (`serde_json::to_string`) and
//! read back in one pass with `serde_json::Reader`: the record's fields,
//! and the instance through [`Instance::read_json`], decode straight from
//! the text, with no tree built. The decoders keep the derived value-tree
//! decoders' rules: the first occurrence of a field wins, unknown and
//! repeated fields are skipped but must be valid JSON, and a missing
//! field, a wrong type or trailing bytes reject the line.
//!
//! Torn lines — a crash mid-append, a byte that is not UTF-8 — are
//! counted and skipped, so a damaged checkpoint only costs re-running the
//! affected records. So is a line that repeats an earlier line's key with
//! a different record: the first record is kept. `saga-merge` reads its
//! inputs with the same line splitter, `lines`.

use saga_core::Instance;
use saga_pisa::PisaResult;
use serde::Serialize;
use serde_json::{required, Reader};
use std::collections::btree_map::{BTreeMap, Entry};
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
        /// The key and record of one line, read in one pass; an error for
        /// a line that is not a well-formed record.
        fn decode(line: &str) -> Result<(String, Self), serde_json::Error>;
    }
}
pub(crate) use sealed::Record;

fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn hex_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The `f64` whose bits are the hex word `s`, which must be exactly the 16
/// hex digits [`hex_bits`] writes: `from_str_radix` alone would also take a
/// sign and a short word.
fn from_hex_bits(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A hex-bits field: a string that must parse as `f64` bits.
fn read_hex_bits(r: &mut Reader<'_>) -> Result<f64, serde_json::Error> {
    let text = r.string()?;
    from_hex_bits(&text).ok_or_else(|| serde_json::Error::custom(format!("bad hex bits `{text}`")))
}

/// One [`CellCheckpoint`] line, as written. `ratio` repeats the ratio as a
/// plain float for human readers; `None` encodes an unbounded cell,
/// mirroring the witness-library format.
#[derive(Serialize)]
struct CellRecord {
    key: String,
    ratio_bits: String,
    initial_bits: String,
    evaluations: usize,
    ratio: Option<f64>,
    instance: Instance,
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
            instance: res.instance.clone(),
        };
        serde_json::to_string(&record).map_err(invalid_data)
    }

    fn decode(line: &str) -> Result<(String, PisaResult), serde_json::Error> {
        let mut r = Reader::new(line);
        let (mut key, mut ratio, mut initial_ratio, mut evaluations) = (None, None, None, None);
        let (mut shown_ratio, mut instance) = (None, None);
        r.begin_object()?;
        while let Some(field) = r.next_key()? {
            match &*field {
                "key" if key.is_none() => key = Some(r.string()?.into_owned()),
                "ratio_bits" if ratio.is_none() => ratio = Some(read_hex_bits(&mut r)?),
                "initial_bits" if initial_ratio.is_none() => {
                    initial_ratio = Some(read_hex_bits(&mut r)?)
                }
                "evaluations" if evaluations.is_none() => evaluations = Some(r.number_as()?),
                // the human-readable copy: `null` or a number, then unused
                "ratio" if shown_ratio.is_none() => {
                    shown_ratio = Some(if r.take_null()? {
                        None
                    } else {
                        Some(r.number()?)
                    })
                }
                "instance" if instance.is_none() => instance = Some(Instance::read_json(&mut r)?),
                _ => r.skip()?,
            }
        }
        r.end()?;
        required(shown_ratio, "ratio")?;
        let res = PisaResult {
            instance: required(instance, "instance")?,
            ratio: required(ratio, "ratio_bits")?,
            initial_ratio: required(initial_ratio, "initial_bits")?,
            evaluations: required(evaluations, "evaluations")?,
        };
        Ok((required(key, "key")?, res))
    }
}

/// One [`RowCheckpoint`] line, as written: the makespans as space-joined
/// hex words.
#[derive(Serialize)]
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

    fn decode(line: &str) -> Result<(String, Vec<f64>), serde_json::Error> {
        let mut r = Reader::new(line);
        let (mut key, mut row) = (None, None);
        r.begin_object()?;
        while let Some(field) = r.next_key()? {
            match &*field {
                "key" if key.is_none() => key = Some(r.string()?.into_owned()),
                "bits" if row.is_none() => {
                    let bits = r.string()?;
                    let words = bits.split_whitespace().map(from_hex_bits);
                    row = Some(words.collect::<Option<Vec<_>>>().ok_or_else(|| {
                        serde_json::Error::custom(format!("bad hex bits in `{bits}`"))
                    })?)
                }
                _ => r.skip()?,
            }
        }
        r.end()?;
        let row = required(row, "bits")?;
        Ok((required(key, "key")?, row))
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
    /// quietly recomputing its records. So is a line whose key an earlier
    /// line already holds with a different record: the first record is
    /// kept, as `saga-merge` refuses such a pair. A byte-identical repeat
    /// of a line is dropped silently.
    pub fn open(path: &Path, resume: bool) -> io::Result<Self> {
        let bytes = if resume {
            match std::fs::read(path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                read => read?,
            }
        } else {
            Vec::new()
        };
        let mut done: BTreeMap<String, (R, &str)> = BTreeMap::new();
        let mut skipped = 0usize;
        for (lineno, line) in lines(&bytes) {
            let Some(line) = line else {
                skipped += 1;
                eprintln!(
                    "[checkpoint] skipping line {lineno} of {}: not UTF-8",
                    path.display()
                );
                continue;
            };
            match R::decode(line) {
                Ok((key, value)) => match done.entry(key) {
                    Entry::Vacant(slot) => {
                        slot.insert((value, line));
                    }
                    // a byte-identical repeat (a doubled append) is harmless
                    Entry::Occupied(first) if first.get().1 == line => {}
                    Entry::Occupied(first) => {
                        skipped += 1;
                        eprintln!(
                            "[checkpoint] skipping line {lineno} of {}: key `{}` already has \
                             a different record; the first is kept",
                            path.display(),
                            first.key()
                        );
                    }
                },
                Err(e) => {
                    skipped += 1;
                    eprintln!(
                        "[checkpoint] skipping malformed line {lineno} of {}: {e}",
                        path.display()
                    );
                }
            }
        }
        let done = done
            .into_iter()
            .map(|(key, (value, _))| (key, value))
            .collect();
        if skipped > 0 {
            eprintln!(
                "[checkpoint] {skipped} malformed or conflicting line(s) skipped in {} — \
                 keys left without a record will re-run",
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

    /// Number of lines skipped while loading for resume: malformed or
    /// unparseable lines, and later records for a key already loaded with
    /// a different one (0 for a fresh run).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// The key and record of one checkpoint line, as [`open`](Self::open)
    /// decodes it; `None` for a line it would skip as malformed.
    pub fn decode_line(line: &str) -> Option<(String, R)> {
        R::decode(line).ok()
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
        append_line(&mut *file, line)
    }
}

/// Appends `line` and its `\n` to `out` in one `write_all`, then flushes:
/// the file handle is unbuffered, so a separate newline write would be a
/// second system call, and a failure between the two would leave a record
/// without its newline.
fn append_line(out: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
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

    #[test]
    fn a_later_different_record_under_a_loaded_key_is_skipped_and_the_first_kept() {
        let path =
            std::env::temp_dir().join(format!("saga_rowckpt_dup_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ck = RowCheckpoint::open(&path, false).unwrap();
        ck.record("k", &[1.0]).unwrap();
        ck.record("other", &[3.0]).unwrap();
        ck.record("k", &[2.0]).unwrap();
        ck.record("k", &[1.0]).unwrap(); // a byte-identical repeat of the first
        drop(ck);
        let ck = RowCheckpoint::open(&path, true).unwrap();
        assert_eq!((ck.loaded(), ck.skipped()), (2, 1));
        assert_eq!(
            ck.stored("k").unwrap(),
            vec![1.0],
            "the first record is kept"
        );
        assert_eq!(ck.stored("other").unwrap(), vec![3.0]);
        let _ = std::fs::remove_file(&path);
    }

    /// A writer that counts its `write` calls and accepts every byte.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_record_line_and_its_newline_go_out_in_one_write() {
        let mut out = CountingWriter::default();
        append_line(&mut out, "{\"key\":\"k\"}".to_string()).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"{\"key\":\"k\"}\n");
    }
}
