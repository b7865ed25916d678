//! The traditional benchmarking methodology of Section V: run every
//! scheduler on every instance of a dataset and report makespan ratios
//! against the best baseline on each instance.
//!
//! [`benchmark_dataset_engine`] shards the grid across the
//! [`BatchEngine`](crate::engine::BatchEngine) with generation fused into
//! each cell. Instance `k` always comes from the stream
//! `derive_seed(seed, k)` ([`dataset_instances`] draws the same ones up
//! front), so the `RatioStats` are bit-identical at any thread count.

use crate::engine::{BatchEngine, Progress};
use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_core::Instance;
use saga_datasets::DatasetGenerator;
use saga_pisa::ShardSpec;
use saga_schedulers::Scheduler;

/// Summary statistics of a scheduler's makespan ratios over a dataset.
#[derive(Debug, Clone, Copy)]
pub struct RatioStats {
    /// Largest ratio (the paper's Fig. 2 cell label).
    pub max: f64,
    /// Median ratio.
    pub median: f64,
    /// Mean ratio (infinite ratios excluded; count reported separately).
    pub mean_finite: f64,
    /// Number of instances with an unbounded ratio.
    pub unbounded: usize,
}

/// Converts one instance's makespan row into ratios against the row's best:
/// each scheduler's makespan divided by the minimum makespan any scheduler
/// achieved on that instance (the paper's benchmarking objective).
pub fn ratios_of(makespans: &[f64]) -> Vec<f64> {
    let best = makespans.iter().copied().fold(f64::INFINITY, f64::min);
    makespans
        .iter()
        .map(|&m| saga_pisa::makespan_ratio(m, best))
        .collect()
}

/// Draws the same `count` instances [`benchmark_dataset_engine`] does:
/// instance `k` comes from its own stream `derive_seed(seed, k)`, so up-front
/// generation and the engine's sharded generation sample identical
/// instances regardless of who generates them (and in what order).
pub fn dataset_instances(gen: &DatasetGenerator, count: usize, seed: u64) -> Vec<Instance> {
    (0..count)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(crate::engine::derive_seed(seed, k as u64));
            gen.sample(&mut rng)
        })
        .collect()
}

/// Benchmarks `schedulers` on `count` fresh instances of `gen`, returning
/// one [`RatioStats`] per scheduler (in scheduler order). Generation *and*
/// evaluation fuse into per-instance rows
/// ([`BatchEngine::dataset_makespans_sharded`], whole grid, no checkpoint)
/// that shard across workers with pinned cost tables. Output is
/// independent of `RAYON_NUM_THREADS`.
pub fn benchmark_dataset_engine(
    engine: &BatchEngine,
    schedulers: &[Box<dyn Scheduler>],
    gen: &DatasetGenerator,
    count: usize,
    seed: u64,
    progress: Option<&Progress>,
) -> Vec<RatioStats> {
    let no_key = |_: usize| String::new();
    // without a checkpoint no write can fail, and the full shard computes
    // every row
    let rows = engine
        .dataset_makespans_sharded(
            schedulers,
            gen,
            count,
            seed,
            &no_key,
            ShardSpec::FULL,
            progress,
            None,
        )
        .unwrap_or_default();
    let mut per_sched: Vec<Vec<f64>> = vec![Vec::with_capacity(count); schedulers.len()];
    for row in rows.iter().flatten() {
        for (k, r) in ratios_of(row).into_iter().enumerate() {
            per_sched[k].push(r);
        }
    }
    per_sched.into_iter().map(|rs| summarize(&rs)).collect()
}

/// Summarizes a ratio sample.
pub fn summarize(ratios: &[f64]) -> RatioStats {
    assert!(!ratios.is_empty());
    let mut sorted: Vec<f64> = ratios.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let max = *sorted.last().unwrap();
    let median = sorted[sorted.len() / 2];
    let finite: Vec<f64> = sorted.iter().copied().filter(|r| r.is_finite()).collect();
    let mean_finite = if finite.is_empty() {
        f64::INFINITY
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    };
    RatioStats {
        max,
        median,
        mean_finite,
        unbounded: ratios.len() - finite.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::benchmark_schedulers;

    #[test]
    fn ratios_are_at_least_one_and_someone_achieves_it() {
        let gen = saga_datasets::by_name("chains").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let scheds = benchmark_schedulers();
        for _ in 0..5 {
            let inst = gen.sample(&mut rng);
            let rs = ratios_of(&crate::makespans(&scheds, &inst));
            assert!(rs.iter().all(|&r| r >= 1.0 - 1e-9));
            assert!(rs.iter().any(|&r| (r - 1.0).abs() < 1e-9));
        }
    }

    #[test]
    fn summarize_computes_order_statistics() {
        let s = summarize(&[1.0, 3.0, 2.0, f64::INFINITY]);
        assert!(s.max.is_infinite());
        assert_eq!(s.unbounded, 1);
        assert_eq!(s.median, 3.0); // index 2 of sorted [1,2,3,inf]
        assert!((s.mean_finite - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fused_generation_matches_pregenerated_instances() {
        // the engine's in-worker sampling must produce exactly the
        // instances the reference generator yields for the same seeds
        let gen = saga_datasets::by_name("montage").unwrap();
        let scheds = benchmark_schedulers();
        let engine = crate::engine::BatchEngine::new();
        let key_of = |k: usize| format!("montage#k{k}");
        let fused = engine
            .dataset_makespans_sharded(&scheds, &gen, 5, 7, &key_of, ShardSpec::FULL, None, None)
            .unwrap();
        let split = engine.makespans(&scheds, &dataset_instances(&gen, 5, 7), None);
        assert_eq!(fused.len(), split.len());
        for (a, b) in fused.iter().flatten().zip(&split) {
            assert_eq!(
                a.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn benchmark_dataset_runs_end_to_end() {
        let gen = saga_datasets::by_name("in_trees").unwrap();
        let scheds = benchmark_schedulers();
        let engine = crate::engine::BatchEngine::new();
        let stats = benchmark_dataset_engine(&engine, &scheds, &gen, 3, 11, None);
        assert_eq!(stats.len(), scheds.len());
        for s in stats {
            assert!(s.max >= 1.0 - 1e-9);
        }
    }
}
