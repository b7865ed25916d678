//! The paper's grids, built exactly as the experiment binaries build them.
//!
//! `fig4` (Section VI pairwise matrix), `app_pisa` (Section VII
//! application searches) and `fig2` (benchmarking matrix) each construct
//! their cell or row lists from public builders; the functions here repeat
//! those constructions so a default-seed benchmark rep computes what the
//! bins compute, bit for bit.

use saga_pisa::{cell_config, pairwise_cells, PisaConfig, SearchCell};

/// Instances per dataset in the Fig. 2 grid (the `fig2` bin's default).
pub const FIG2_INSTANCES: usize = 100;

/// Annealing iterations of the Section VII cells (the `app_pisa` default).
pub const APP_IMAX: usize = 300;

/// Annealing restarts of the Section VII cells (the `app_pisa` default).
pub const APP_RESTARTS: usize = 2;

/// Annealing iterations of the Section VII cells that `resume` checkpoints:
/// the workload measures reading records back, so the cells only need to
/// exist, not to be paper-quality searches.
pub const RESUME_IMAX: usize = 20;

/// Shard count of the checkpoints `resume` merges.
pub const RESUME_SHARDS: u64 = 2;

/// Reps per pass over the Section VII grid in the `app` workload.
pub const APP_SLICES: usize = 9;

/// The Fig. 4 grid: every ordered pair of the 15 benchmark schedulers at
/// the paper's annealing constants (`T_max` 10, `T_min` 0.1, `alpha`
/// 0.99, `I_max` 1000, 5 restarts).
pub fn fig4_cells(seed: u64) -> Vec<SearchCell> {
    pairwise_cells(
        &saga_schedulers::benchmark_schedulers(),
        PisaConfig {
            seed,
            ..PisaConfig::default()
        },
    )
}

/// One workflow's Section VII grid: every CCR of the paper times every
/// ordered pair of the six application schedulers, in `app_pisa`'s order.
pub fn app_cells(workflow: &str, seed: u64, i_max: usize) -> Vec<SearchCell> {
    let config = PisaConfig {
        i_max,
        restarts: APP_RESTARTS,
        seed,
        ..PisaConfig::default()
    };
    let names: Vec<&str> = saga_schedulers::app_specific_schedulers()
        .iter()
        .map(|s| s.name())
        .collect();
    let mut cells = Vec::new();
    for &ccr in &saga_datasets::ccr::PAPER_CCRS {
        for (i, baseline) in names.iter().enumerate() {
            for (j, target) in names.iter().enumerate() {
                if i != j {
                    let config = cell_config(config, cells.len() as u64);
                    cells.push(SearchCell::app(workflow, ccr, target, baseline, config));
                }
            }
        }
    }
    cells
}

/// The whole Section VII grid: every workflow's [`app_cells`], in
/// workflow order (`app_pisa all`).
pub fn section7_cells(seed: u64, i_max: usize) -> Vec<SearchCell> {
    saga_datasets::workflows::WORKFLOW_NAMES
        .iter()
        .flat_map(|wf| app_cells(wf, seed, i_max))
        .collect()
}

/// `cells` dealt into `n` slices, cell `i` to slice `i % n`. Dealing the
/// workflow-major Section VII grid this way gives every slice the same mix
/// of workflows, CCRs and pairs, so rep times do not jump with the
/// workflow a rep happens to hold (cell costs differ ~3x between
/// workflows).
pub fn dealt(cells: Vec<SearchCell>, n: usize) -> Vec<Vec<SearchCell>> {
    let mut slices = vec![Vec::new(); n];
    for (i, cell) in cells.into_iter().enumerate() {
        slices[i % n].push(cell);
    }
    slices
}

/// The checkpoint key of Fig. 2 row `k` of `dataset` (the `fig2` bin's
/// key format).
pub fn fig2_key(dataset: &str, k: usize, seed: u64) -> String {
    format!("fig2/{dataset}#k{k}#s{seed:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_datasets::workflows::WORKFLOW_NAMES;

    #[test]
    fn grid_sizes_match_the_paper() {
        assert_eq!(fig4_cells(1).len(), 210);
        for wf in WORKFLOW_NAMES {
            assert_eq!(app_cells(wf, 1, APP_IMAX).len(), 150, "{wf}");
        }
        let generators = saga_datasets::all_generators();
        assert_eq!(generators.len() * FIG2_INSTANCES, 1600);
        // app deals the whole Section VII grid into nine 150-cell reps;
        // resume reads the whole grid back, plus every fig2 row
        let all = section7_cells(1, APP_IMAX);
        assert_eq!(all.len(), 1350);
        let mut keys: Vec<String> = all.iter().map(|c| c.key()).collect();
        let slices = dealt(all, APP_SLICES);
        assert!(slices.iter().all(|s| s.len() == 150));
        let mut dealt_keys: Vec<String> = slices.iter().flatten().map(|c| c.key()).collect();
        keys.sort();
        dealt_keys.sort();
        assert_eq!(dealt_keys, keys, "every cell dealt exactly once");
        assert_eq!(section7_cells(1, RESUME_IMAX).len(), 1350);
    }

    #[test]
    fn cells_match_the_experiment_bins() {
        // app_pisa: baseline-major, diagonal skipped, config index = position
        let cells = app_cells("blast", 0xA551, APP_IMAX);
        assert_eq!(cells[0].label, "app/blast@0.2/FastestNode~CPoP");
        assert_eq!(cells[149].label, "app/blast@5/MinMin~WBA");
        assert_eq!(
            cells[7].config.seed,
            cell_config(
                PisaConfig {
                    seed: 0xA551,
                    ..PisaConfig::default()
                },
                7
            )
            .seed
        );
        assert_eq!(fig4_cells(0xF164)[0].label, "pair/CPoP~BIL");
        assert_eq!(
            fig2_key("chains", 3, 0xF162),
            "fig2/chains#k3#s000000000000f162"
        );
    }
}
