//! Deterministic shard partition for distributed grid runs.
//!
//! Every grid bin owns a list of [`SearchCell`]s whose checkpoint keys
//! ([`SearchCell::key`]) are pure functions of the cell's configuration.
//! `--shard i/N` partitions that list by `fnv1a(key) % N == i`: a stateless
//! assignment that depends only on the cell's identity — not on thread
//! count, and not on the order cells were generated — so N hosts each run
//! a disjoint `1/N` slice against their own checkpoint JSONL, and
//! `saga-merge` reassembles the union.
//!
//! The same partition applies to any keyed record stream (fig2's
//! per-dataset rows use it too, via [`ShardSpec::contains_key`]): the only
//! contract is a stable key string.

use crate::runner::SearchCell;
use saga_core::fnv1a;
use std::fmt;
use std::path::{Path, PathBuf};

/// One host's slice of a sharded grid: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u64,
    /// Total number of shards, `>= 1`.
    pub count: u64,
}

impl ShardSpec {
    /// The degenerate single-shard spec: contains every key, appends no
    /// path suffix — a `--shard 0/1` run is byte-identical to an unsharded
    /// one.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Parses `"i/N"` (e.g. `"0/3"`). Errors on malformed input, `N == 0`,
    /// or `i >= N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard spec `{s}` is not of the form i/N"))?;
        let index: u64 = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index `{i}` is not an integer"))?;
        let count: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count `{n}` is not an integer"))?;
        if count == 0 {
            return Err(format!("shard spec `{s}`: count must be >= 1"));
        }
        if index >= count {
            return Err(format!(
                "shard spec `{s}`: index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this spec covers the whole grid (`count == 1`).
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// Whether `key` belongs to this shard: `fnv1a(key) % count == index`.
    /// Every key belongs to exactly one shard of a given count (exact
    /// cover), and the assignment is stable across processes and hosts.
    pub fn contains_key(&self, key: &str) -> bool {
        fnv1a(key.as_bytes()) % self.count == self.index
    }

    /// The default checkpoint path for this shard: inserts
    /// `.shard{i}of{N}` before the extension (`results/fig4_cells.jsonl` →
    /// `results/fig4_cells.shard0of3.jsonl`). A full spec returns the path
    /// unchanged, so 1-host runs keep their historical filenames.
    pub fn checkpoint_path(&self, base: &Path) -> PathBuf {
        if self.is_full() {
            return base.to_path_buf();
        }
        let stem = base
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("checkpoint");
        let name = match base.extension().and_then(|e| e.to_str()) {
            Some(ext) => format!("{stem}.shard{}of{}.{ext}", self.index, self.count),
            None => format!("{stem}.shard{}of{}", self.index, self.count),
        };
        base.with_file_name(name)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Filters `cells` down to the ones in `shard`, preserving grid order.
pub fn shard_cells(cells: Vec<SearchCell>, shard: ShardSpec) -> Vec<SearchCell> {
    if shard.is_full() {
        return cells;
    }
    cells
        .into_iter()
        .filter(|c| shard.contains_key(&c.key()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_specs() {
        assert_eq!(ShardSpec::parse("0/1").unwrap(), ShardSpec::FULL);
        assert_eq!(
            ShardSpec::parse("2/5").unwrap(),
            ShardSpec { index: 2, count: 5 }
        );
        assert_eq!(ShardSpec::parse("2/5").unwrap().to_string(), "2/5");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "3", "1/0", "3/3", "5/2", "a/b", "-1/2", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn every_key_lands_in_exactly_one_shard() {
        let keys: Vec<String> = (0..500).map(|i| format!("cell#{i}")).collect();
        for count in [1u64, 2, 3, 7] {
            for key in &keys {
                let owners: Vec<u64> = (0..count)
                    .filter(|&index| ShardSpec { index, count }.contains_key(key))
                    .collect();
                assert_eq!(owners.len(), 1, "key {key} at N={count}: {owners:?}");
            }
        }
    }

    #[test]
    fn full_shard_is_identity() {
        assert!(ShardSpec::FULL.is_full());
        assert!(ShardSpec::FULL.contains_key("anything"));
        let p = Path::new("results/fig4_cells.jsonl");
        assert_eq!(ShardSpec::FULL.checkpoint_path(p), p);
    }

    #[test]
    fn shard_paths_embed_index_and_count() {
        let spec = ShardSpec { index: 1, count: 3 };
        assert_eq!(
            spec.checkpoint_path(Path::new("results/fig4_cells.jsonl")),
            Path::new("results/fig4_cells.shard1of3.jsonl")
        );
        assert_eq!(
            spec.checkpoint_path(Path::new("noext")),
            Path::new("noext.shard1of3")
        );
    }
}
