//! Fault injection on the checkpoint log.
//!
//! A crash can cut a checkpoint file at any byte. Each test writes a real
//! three-record cell or row checkpoint and cuts it at every byte offset;
//! after each cut, resume must load exactly the records whose full JSON
//! survived, count at most the one torn tail, append its next record on a
//! line of its own, and agree with `saga-merge` on the torn count. A line
//! that is not UTF-8 must count as torn too, not fail the whole file.

use saga::pisa::{cell_config, PisaConfig, PisaResult, SearchCell};
use saga_experiments::engine::{BatchEngine, CellCheckpoint, RowCheckpoint};
use saga_experiments::merge::merge_files;
use std::io;
use std::path::{Path, PathBuf};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "saga_checkpoint_faults_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// The checkpoint API both formats share, so one driver cuts both.
trait Log: Sized {
    type Value: ?Sized;
    fn open(path: &Path, resume: bool) -> io::Result<Self>;
    fn loaded(&self) -> usize;
    fn skipped(&self) -> usize;
    fn has(&self, key: &str) -> bool;
    fn append(&self, key: &str, value: &Self::Value) -> io::Result<()>;
}

impl Log for CellCheckpoint {
    type Value = PisaResult;
    fn open(path: &Path, resume: bool) -> io::Result<Self> {
        CellCheckpoint::open(path, resume)
    }
    fn loaded(&self) -> usize {
        CellCheckpoint::loaded(self)
    }
    fn skipped(&self) -> usize {
        CellCheckpoint::skipped(self)
    }
    fn has(&self, key: &str) -> bool {
        self.stored(key).is_some()
    }
    fn append(&self, key: &str, value: &PisaResult) -> io::Result<()> {
        self.record(key, value)
    }
}

impl Log for RowCheckpoint {
    type Value = [f64];
    fn open(path: &Path, resume: bool) -> io::Result<Self> {
        RowCheckpoint::open(path, resume)
    }
    fn loaded(&self) -> usize {
        RowCheckpoint::loaded(self)
    }
    fn skipped(&self) -> usize {
        RowCheckpoint::skipped(self)
    }
    fn has(&self, key: &str) -> bool {
        self.stored(key).is_some()
    }
    fn append(&self, key: &str, value: &[f64]) -> io::Result<()> {
        self.record(key, value)
    }
}

/// Cuts the checkpoint at `full` (records for `keys`, one per line) at
/// every byte offset and checks resume, append, re-open and merge.
fn cut_at_every_offset<L: Log>(full: &Path, keys: &[String], extra: &L::Value) {
    let bytes = std::fs::read(full).unwrap();
    // a record survives a cut iff its whole JSON does; its `\n` may be lost
    let json_ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
    assert_eq!(json_ends.len(), keys.len(), "one line per record");
    let path = full.with_extension("cut.jsonl");
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let merged = merge_files(std::slice::from_ref(&path), &mut Vec::new())
            .unwrap_or_else(|e| panic!("merge of the cut at {cut}: {e}"));
        let ck = L::open(&path, true).unwrap_or_else(|e| panic!("resume of the cut at {cut}: {e}"));
        let mut survivors = 0;
        for (key, &end) in keys.iter().zip(&json_ends) {
            assert_eq!(ck.has(key), cut >= end, "cut at {cut}: record {key}");
            survivors += usize::from(cut >= end);
        }
        assert_eq!(ck.loaded(), survivors, "cut at {cut}");
        assert!(ck.skipped() <= 1, "cut at {cut}: {} skipped", ck.skipped());
        assert_eq!(merged.torn, ck.skipped(), "cut at {cut}: merge vs resume");
        assert_eq!(merged.records, survivors, "cut at {cut}: merge vs resume");
        let skipped = ck.skipped();
        ck.append("extra", extra).unwrap();
        drop(ck);
        let ck = L::open(&path, true).unwrap();
        assert!(
            ck.has("extra"),
            "cut at {cut}: the record after the tear merged into it"
        );
        assert_eq!(ck.loaded(), survivors + 1, "cut at {cut}");
        assert_eq!(ck.skipped(), skipped, "cut at {cut}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cell_checkpoint_survives_a_cut_at_every_byte() {
    let base = PisaConfig {
        i_max: 2,
        restarts: 1,
        seed: 0xC07,
        ..PisaConfig::default()
    };
    let cells: Vec<SearchCell> = [("HEFT", "CPoP"), ("CPoP", "MinMin"), ("MinMin", "HEFT")]
        .iter()
        .enumerate()
        .map(|(i, (a, b))| SearchCell::pair(a, b, cell_config(base, i as u64)))
        .collect();
    let full = tmp_path("cells");
    let ck = CellCheckpoint::open(&full, false).unwrap();
    let results = BatchEngine::new()
        .run_cells(&cells, None, Some(&ck))
        .unwrap();
    drop(ck);
    // the file holds records in completion order; list keys in file order
    let text = std::fs::read_to_string(&full).unwrap();
    let keys: Vec<String> = text
        .lines()
        .map(|line| {
            let record: serde_json::Value = serde_json::from_str(line).unwrap();
            record
                .get("key")
                .and_then(|k| k.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    cut_at_every_offset::<CellCheckpoint>(&full, &keys, &results[0]);
    let _ = std::fs::remove_file(&full);
}

#[test]
fn row_checkpoint_survives_a_cut_at_every_byte() {
    let full = tmp_path("rows");
    let ck = RowCheckpoint::open(&full, false).unwrap();
    let keys: Vec<String> = (0..3).map(|k| format!("fig2/chains#k{k}")).collect();
    ck.record(&keys[0], &[1.5, f64::INFINITY, 0.1 + 0.2])
        .unwrap();
    ck.record(&keys[1], &[]).unwrap();
    ck.record(&keys[2], &[7.0; 15]).unwrap();
    drop(ck);
    cut_at_every_offset::<RowCheckpoint>(&full, &keys, &[2.0, 3.0]);
    let _ = std::fs::remove_file(&full);
}

/// Two good rows, then a torn tail holding a byte that is not UTF-8.
#[test]
fn a_line_that_is_not_utf8_counts_as_torn() {
    let path = tmp_path("not_utf8");
    let mut bytes = b"{\"key\":\"a\",\"bits\":\"3ff0000000000000\"}\n\
                      {\"key\":\"b\",\"bits\":\"4000000000000000\"}\n"
        .to_vec();
    bytes.extend_from_slice(b"{\"key\":\"c\",\"bi\xff");
    std::fs::write(&path, &bytes).unwrap();

    let merged = merge_files(std::slice::from_ref(&path), &mut Vec::new()).unwrap();
    assert_eq!((merged.records, merged.torn), (2, 1));
    let cells = CellCheckpoint::open(&path, true).unwrap();
    assert_eq!(
        (cells.loaded(), cells.skipped()),
        (0, 3),
        "rows are not cells"
    );
    drop(cells);
    let rows = RowCheckpoint::open(&path, true).unwrap();
    assert_eq!((rows.loaded(), rows.skipped()), (2, 1));
    assert_eq!(rows.stored("b"), Some(vec![2.0]));
    let _ = std::fs::remove_file(&path);
}
