//! Integration suite for the distributed shard-and-merge protocol (PR 9).
//!
//! `--shard i/N` partitions a grid's cells by `fnv1a(key) % N` — stateless,
//! thread-count independent, generation-order independent — and
//! `saga-merge` unions the per-shard checkpoints back into one canonical
//! (key-sorted) file. The distributed run is only trustworthy if three
//! things hold, and this suite proves each:
//!
//! 1. **Exact cover** — every cell of an arbitrary grid lands in exactly
//!    one shard, for any shard count (proptest over grid shapes and seeds).
//! 2. **Byte-identity** — shards 0/3 + 1/3 + 2/3 of a quick fig4-class and
//!    a quick metric grid, merged, are byte-identical to the canonicalized
//!    1-host checkpoint, and a run resumed *from* the merged file replays
//!    bit-identical results.
//! 3. **Merge hygiene** — identical duplicate keys dedupe, conflicting
//!    duplicates are a hard error, torn lines are counted.

use proptest::prelude::*;
use saga::pisa::metric::Objective;
use saga::pisa::{cell_config, shard_cells, PisaConfig, SearchCell, ShardSpec};
use saga_experiments::engine::{BatchEngine, CellCheckpoint};
use saga_experiments::merge::{merge_files, MergeError};
use std::path::PathBuf;

const NAMES: &[&str] = &["HEFT", "CPoP", "ETF", "MinMin", "FastestNode", "MCT"];

fn cfg(i_max: usize, restarts: usize, seed: u64) -> PisaConfig {
    PisaConfig {
        i_max,
        restarts,
        seed,
        ..PisaConfig::default()
    }
}

/// A quick fig4-class grid: every ordered pair of a small roster.
fn pair_grid(i_max: usize, seed: u64) -> Vec<SearchCell> {
    let mut cells = Vec::new();
    for a in NAMES {
        for b in NAMES {
            if a != b {
                cells.push(SearchCell::pair(
                    a,
                    b,
                    cell_config(cfg(i_max, 1, seed), cells.len() as u64),
                ));
            }
        }
    }
    cells
}

/// A quick metric grid: pairs × objectives, like `metric_pisa --quick`.
fn metric_grid(i_max: usize, seed: u64) -> Vec<SearchCell> {
    let objectives = [
        Objective::Makespan,
        Objective::RentalCost,
        Objective::Throughput,
    ];
    let pairs = [("HEFT", "FastestNode"), ("CPoP", "HEFT")];
    let mut cells = Vec::new();
    for (a, b) in pairs {
        for obj in objectives {
            cells.push(SearchCell::metric(
                obj,
                a,
                b,
                cell_config(cfg(i_max, 1, seed), cells.len() as u64),
            ));
        }
    }
    cells
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "saga_shard_merge_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// Runs `cells` to a fresh checkpoint at `path` and returns the file text.
fn run_to_checkpoint(engine: &BatchEngine, cells: &[SearchCell], path: &PathBuf) -> String {
    let ck = CellCheckpoint::open(path, false).unwrap();
    engine.run_cells(cells, None, Some(&ck)).unwrap();
    drop(ck);
    std::fs::read_to_string(path).unwrap()
}

/// Canonicalizes checkpoint text through the merge (key-sorted output).
fn canonical(text: &str, tag: &str) -> Vec<u8> {
    let path = tmp_path(tag);
    std::fs::write(&path, text).unwrap();
    let mut out = Vec::new();
    merge_files(std::slice::from_ref(&path), &mut out).unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

/// The byte-identity property: run `cells` unsharded and as 3 shards, merge
/// the shard checkpoints, and demand byte-identity with the canonicalized
/// 1-host file.
fn assert_three_way_shard_merges_byte_identical(cells: &[SearchCell], tag: &str) {
    let engine = BatchEngine::new();
    let one_host = tmp_path(&format!("{tag}_1host"));
    let one_host_text = run_to_checkpoint(&engine, cells, &one_host);

    let mut shard_paths = Vec::new();
    for index in 0..3u64 {
        let shard = ShardSpec { index, count: 3 };
        let subset = shard_cells(cells.to_vec(), shard);
        let path = tmp_path(&format!("{tag}_shard{index}"));
        run_to_checkpoint(&engine, &subset, &path);
        shard_paths.push(path);
    }
    let mut merged = Vec::new();
    let summary = merge_files(&shard_paths, &mut merged).unwrap();
    assert_eq!(summary.records, cells.len(), "merge must cover the grid");
    assert_eq!(summary.duplicates, 0);
    assert_eq!(summary.torn, 0);
    assert_eq!(
        merged,
        canonical(&one_host_text, &format!("{tag}_canon")),
        "3-way shard merge must be byte-identical to the canonicalized 1-host checkpoint"
    );

    // and a run resumed from the merged file replays bit-identically
    let merged_path = tmp_path(&format!("{tag}_merged"));
    std::fs::write(&merged_path, &merged).unwrap();
    let ck = CellCheckpoint::open(&merged_path, true).unwrap();
    assert_eq!(ck.loaded(), cells.len());
    let replayed = engine.run_cells(cells, None, Some(&ck)).unwrap();
    let fresh = engine.run_cells(cells, None, None).unwrap();
    for ((cell, a), b) in cells.iter().zip(&replayed).zip(&fresh) {
        assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "{}", cell.label);
        assert_eq!(a.instance.to_json(), b.instance.to_json(), "{}", cell.label);
    }

    for p in shard_paths.iter().chain([&one_host, &merged_path]) {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn quick_fig4_grid_shards_merge_byte_identical() {
    assert_three_way_shard_merges_byte_identical(&pair_grid(40, 0xF164), "fig4");
}

#[test]
fn quick_metric_grid_shards_merge_byte_identical() {
    assert_three_way_shard_merges_byte_identical(&metric_grid(40, 0x3E71C), "metric");
}

#[test]
fn shard_partition_is_independent_of_plan_and_thread_count() {
    // the shard assignment is a pure function of the key: the same cell
    // list sharded twice — or in a different generation order — lands
    // identically
    let cells = pair_grid(40, 7);
    let shard = ShardSpec { index: 1, count: 4 };
    let a: Vec<String> = shard_cells(cells.clone(), shard)
        .iter()
        .map(|c| c.key())
        .collect();
    let mut reversed = cells.clone();
    reversed.reverse();
    let mut b: Vec<String> = shard_cells(reversed, shard)
        .iter()
        .map(|c| c.key())
        .collect();
    b.reverse();
    assert_eq!(a, b);
}

#[test]
fn merge_rejects_conflicting_duplicate_keys() {
    let a = tmp_path("conflict_a");
    let b = tmp_path("conflict_b");
    std::fs::write(
        &a,
        "{\"key\":\"cell#1\",\"ratio_bits\":\"3ff0000000000000\"}\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "{\"key\":\"cell#1\",\"ratio_bits\":\"4000000000000000\"}\n",
    )
    .unwrap();
    let err = merge_files(&[a.clone(), b.clone()], &mut Vec::new()).unwrap_err();
    match err {
        MergeError::Conflict { key, first, second } => {
            assert_eq!(key, "cell#1");
            assert_eq!(first, a);
            assert_eq!(second, b);
        }
        other => panic!("expected a conflict error, got {other}"),
    }
    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
}

#[test]
fn merge_reports_torn_line_counts() {
    let a = tmp_path("torn_a");
    // a good record, a torn tail from a crash, and a keyless line
    std::fs::write(
        &a,
        "{\"key\":\"cell#1\",\"v\":1}\n{\"key\":\"cell#2\",\"ratio_bits\":\"3ff00\n{\"v\":2}\n",
    )
    .unwrap();
    let mut out = Vec::new();
    let summary = merge_files(std::slice::from_ref(&a), &mut out).unwrap();
    assert_eq!(summary.records, 1);
    assert_eq!(summary.torn, 2);
    let _ = std::fs::remove_file(a);
}

#[test]
fn merged_duplicates_must_be_byte_identical_to_dedupe() {
    // a shard re-run twice produces the same lines; merging both runs
    // dedupes instead of erroring
    let cells = metric_grid(30, 3);
    let engine = BatchEngine::new();
    let p1 = tmp_path("dup_run1");
    let p2 = tmp_path("dup_run2");
    let t1 = run_to_checkpoint(&engine, &cells, &p1);
    let t2 = run_to_checkpoint(&engine, &cells, &p2);
    assert_eq!(
        canonical(&t1, "dup_c1"),
        canonical(&t2, "dup_c2"),
        "deterministic cells re-run must produce identical records"
    );
    let mut out = Vec::new();
    let summary = merge_files(&[p1.clone(), p2.clone()], &mut out).unwrap();
    assert_eq!(summary.records, cells.len());
    assert_eq!(summary.duplicates, cells.len());
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact cover: for arbitrary grid shapes (random pair subsets, seeds,
    /// budgets) and arbitrary shard counts, every cell lands in exactly one
    /// shard — no loss, no double-run — and the union preserves grid order.
    #[test]
    fn shard_partition_is_an_exact_cover(
        specs in proptest::collection::vec(
            (0usize..NAMES.len(), 1usize..NAMES.len(), 10usize..=60, 0u64..1000),
            1..=12,
        ),
        count in 1u64..=6,
    ) {
        let cells: Vec<SearchCell> = specs
            .iter()
            .enumerate()
            .map(|(i, &(t, off, i_max, seed))| {
                SearchCell::pair(
                    NAMES[t],
                    NAMES[(t + off) % NAMES.len()],
                    cell_config(cfg(i_max, 1, seed), i as u64),
                )
            })
            .collect();
        let mut owners: Vec<usize> = vec![0; cells.len()];
        for index in 0..count {
            let shard = ShardSpec { index, count };
            for sc in shard_cells(cells.clone(), shard) {
                // match shard members back to grid positions by key
                for (i, c) in cells.iter().enumerate() {
                    if c.key() == sc.key() {
                        owners[i] += 1;
                    }
                }
            }
        }
        // duplicate keys (proptest may generate identical specs) are owned
        // once per occurrence per duplicate, so normalize by multiplicity
        let mut multiplicity = std::collections::HashMap::new();
        for c in &cells {
            *multiplicity.entry(c.key()).or_insert(0usize) += 1;
        }
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(
                owners[i],
                multiplicity[&c.key()],
                "cell {} must land in exactly one shard of {}",
                c.key(),
                count
            );
        }
    }
}
