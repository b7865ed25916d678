//! The traditional benchmarking methodology of Section V: run every
//! scheduler on every instance of a dataset and report makespan ratios
//! against the best baseline on each instance.
//!
//! [`BatchEngine::dataset_makespans_sharded`] shards a dataset's grid
//! across the engine's workers with generation fused into each row.
//! Instance `k` always comes from the stream `derive_seed(seed, k)`
//! ([`dataset_instances`] draws the same ones up front), so the
//! [`RatioStats`] are bit-identical at any thread count.
//!
//! Fig. 2 is that reduction over every dataset: [`fig2_rows`] computes
//! (or replays) the keyed rows and [`fig2_output`] reduces them to the max
//! and median matrices and renders them. The `fig2` binary and the
//! paper-scale pin in `tests/paper_pins.rs` share both calls.

use crate::engine::{BatchEngine, Progress, RowCheckpoint};
use crate::grids::{index, names};
use crate::render::matrix;
use crate::Output;
use rand::rngs::StdRng;
use rand::SeedableRng;
use saga_core::Instance;
use saga_datasets::DatasetGenerator;
use saga_pisa::ShardSpec;
use saga_schedulers::Scheduler;
use std::io;

/// Fig. 2's default budget: instances per dataset (the paper's low end).
pub const FIG2_INSTANCES: usize = 100;

/// Fig. 2's default base seed; instance `k` comes from
/// `derive_seed(FIG2_SEED, k)`.
pub const FIG2_SEED: u64 = 0xF162;

/// Summary statistics of a scheduler's makespan ratios over a dataset.
#[derive(Debug, Clone, Copy)]
pub struct RatioStats {
    /// Largest ratio (the paper's Fig. 2 cell label).
    pub max: f64,
    /// Median ratio.
    pub median: f64,
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

/// Draws the same `count` instances
/// [`BatchEngine::dataset_makespans_sharded`] does:
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

/// One dataset's makespan rows reduced to one [`RatioStats`] per scheduler
/// (in scheduler order): each row becomes ratios against its best
/// ([`ratios_of`]) and each scheduler's ratios are summarized. Rows outside
/// the shard (`None`) are left out.
pub fn dataset_stats(rows: &[Option<Vec<f64>>], schedulers: usize) -> Vec<RatioStats> {
    let mut per_sched: Vec<Vec<f64>> = vec![Vec::with_capacity(rows.len()); schedulers];
    for row in rows.iter().flatten() {
        for (k, r) in ratios_of(row).into_iter().enumerate() {
            per_sched[k].push(r);
        }
    }
    per_sched.iter().map(|rs| summarize(rs)).collect()
}

/// The checkpoint key of Fig. 2's row `k` of `dataset` under base `seed`.
pub fn fig2_key(dataset: &str, k: usize, seed: u64) -> String {
    format!("fig2/{dataset}#k{k}#s{seed:016x}")
}

/// Fig. 2's makespan rows: for each of `generators`, in order, its
/// `instances` rows from [`BatchEngine::dataset_makespans_sharded`], keyed
/// by [`fig2_key`]. Rows outside `shard` are `None`; rows stored in
/// `checkpoint` replay. Stops at the first checkpoint write error.
#[allow(clippy::too_many_arguments)]
pub fn fig2_rows(
    engine: &BatchEngine,
    schedulers: &[Box<dyn Scheduler>],
    generators: &[DatasetGenerator],
    instances: usize,
    seed: u64,
    shard: ShardSpec,
    progress: Option<&Progress>,
    checkpoint: Option<&RowCheckpoint>,
) -> io::Result<Vec<Vec<Option<Vec<f64>>>>> {
    generators
        .iter()
        .map(|gen| {
            let key_of = |k: usize| fig2_key(gen.name, k, seed);
            engine.dataset_makespans_sharded(
                schedulers, gen, instances, seed, &key_of, shard, progress, checkpoint,
            )
        })
        .collect()
}

/// Fig. 2's output from the full grid's [`fig2_rows`] over the benchmark
/// roster and every dataset generator: each dataset reduced by
/// [`dataset_stats`] to its max and median ratios, the two
/// `[dataset][scheduler]` matrices as CSVs, and a report with both
/// matrices and the paper's two takeaways, checked.
pub fn fig2_output(rows: &[Vec<Option<Vec<f64>>>]) -> Output {
    let scheds = names(&saga_schedulers::benchmark_schedulers());
    let datasets: Vec<String> = saga_datasets::all_generators()
        .iter()
        .map(|g| g.name.to_string())
        .collect();
    let (max, median): (Vec<Vec<f64>>, Vec<Vec<f64>>) = rows
        .iter()
        .map(|dataset| {
            let stats = dataset_stats(dataset, scheds.len());
            stats.iter().map(|s| (s.max, s.median)).unzip()
        })
        .unzip();
    let instances = rows.first().map_or(0, Vec::len);
    let title =
        format!("Fig. 2: max makespan ratio per (dataset, scheduler), {instances} instances");
    let (max_text, max_csv) = matrix(&title, "fig2_max_ratios.csv", &datasets, &scheds, &max);
    let title = "Fig. 2 (median makespan ratio)";
    let (med_text, med_csv) = matrix(title, "fig2_median_ratios.csv", &datasets, &scheds, &median);
    let (fastest, heft) = (index(&scheds, "FastestNode"), index(&scheds, "HEFT"));
    let report = format!(
        "{max_text}{med_text}\
         check: FastestNode max ratio > 2 on some dataset: {}\n\
         check: HEFT median ratio stays below 1.35 on every dataset: {}\n",
        max.iter().any(|row| row[fastest] > 2.0),
        median.iter().all(|row| row[heft] < 1.35),
    );
    Output {
        files: vec![max_csv, med_csv],
        report,
    }
}

/// Summarizes a ratio sample.
pub fn summarize(ratios: &[f64]) -> RatioStats {
    assert!(!ratios.is_empty());
    let mut sorted: Vec<f64> = ratios.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    RatioStats {
        max: sorted[sorted.len() - 1],
        median: sorted[sorted.len() / 2],
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
        assert_eq!(s.median, 3.0); // index 2 of sorted [1,2,3,inf]
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
}
