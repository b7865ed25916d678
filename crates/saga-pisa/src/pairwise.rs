//! The all-pairs adversarial comparison behind the paper's Fig. 4.
//!
//! For every ordered pair `(baseline i, target j)`, run PISA to find the
//! instance maximizing `m_j / m_i`. The grid is expressed as
//! [`SearchCell`]s ([`pairwise_cells`]) so any cell executor reproduces it:
//! [`pairwise_matrix`] runs the cells in order on one context, and the
//! `fig4` binary drives the experiment engine's parallel, checkpointing
//! `run_cells` — both bit-identical, at any thread count (the paper's
//! matrix is 15×15 with 5 restarts each — over a thousand annealing runs).

use crate::annealer::{AnnealScratch, PisaConfig};
use crate::runner::{cell_config, SearchCell};
use crate::PisaResult;
use saga_core::{Instance, SchedContext};
use saga_schedulers::Scheduler;

/// The `fig4` binary's default base seed; with [`PisaConfig::default`]'s
/// budget (1000 iterations, 5 restarts) it is the grid `tests/paper/`
/// pins.
pub const FIG4_SEED: u64 = 0xF164;

/// The Fig. 4 result matrix.
pub struct PairwiseMatrix {
    /// Scheduler names, in both row and column order.
    pub names: Vec<String>,
    /// `ratios[i][j]`: worst-case ratio of scheduler `j` (target) against
    /// scheduler `i` (baseline); `1.0` on the diagonal by construction.
    pub ratios: Vec<Vec<f64>>,
    /// The instance realizing each off-diagonal cell.
    pub witnesses: Vec<Vec<Option<Instance>>>,
}

impl PairwiseMatrix {
    /// Column-wise maxima — the paper's "Worst" row: the worst case found
    /// for scheduler `j` against *any* baseline.
    pub fn worst_row(&self) -> Vec<f64> {
        let n = self.names.len();
        (0..n)
            .map(|j| {
                (0..n)
                    .map(|i| self.ratios[i][j])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// The heatmap's rows as the paper lays them out: the "Worst" row on
    /// top, then one row per baseline in reverse roster order. Returns the
    /// row labels and the rows; the columns are [`names`](Self::names).
    pub fn heatmap_rows(&self) -> (Vec<String>, Vec<Vec<f64>>) {
        let mut row_names = vec!["Worst".to_string()];
        row_names.extend(self.names.iter().rev().cloned());
        let mut rows = vec![self.worst_row()];
        rows.extend(self.ratios.iter().rev().cloned());
        (row_names, rows)
    }

    /// Formats a cell the way the paper's heatmaps do: `> 1000` for blowups,
    /// `> 5.0` for large-but-bounded cells, otherwise two decimals.
    pub fn format_cell(r: f64) -> String {
        if r.is_infinite() || r > 1000.0 {
            "> 1000".to_string()
        } else if r > 5.0 {
            "> 5.0".to_string()
        } else {
            format!("{r:.2}")
        }
    }
}

/// Builds the Fig. 4 cell grid for `schedulers`: one [`SearchCell`] per
/// ordered pair `(baseline i, target j)`, row-major with the diagonal
/// skipped. Cell `k` runs on the stream `derive_seed(config.seed, k)`, so
/// every cell is independent and reproducible whatever executes it.
pub fn pairwise_cells(schedulers: &[Box<dyn Scheduler>], config: PisaConfig) -> Vec<SearchCell> {
    let n = schedulers.len();
    let mut cells = Vec::with_capacity(n * n - n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            cells.push(SearchCell::pair(
                schedulers[j].name(),
                schedulers[i].name(),
                cell_config(config, cells.len() as u64),
            ));
        }
    }
    cells
}

impl PairwiseMatrix {
    /// Assembles the matrix from per-cell results in [`pairwise_cells`]
    /// order (row-major, diagonal skipped).
    pub fn from_cell_results(names: Vec<String>, results: Vec<PisaResult>) -> Self {
        let n = names.len();
        assert_eq!(results.len(), n * n - n, "one result per off-diagonal cell");
        let mut ratios = vec![vec![1.0f64; n]; n];
        let mut witnesses: Vec<Vec<Option<Instance>>> = (0..n).map(|_| vec![None; n]).collect();
        let mut it = results.into_iter();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let res = it.next().expect("length checked above");
                ratios[i][j] = res.ratio;
                witnesses[i][j] = Some(res.instance);
            }
        }
        PairwiseMatrix {
            names,
            ratios,
            witnesses,
        }
    }
}

/// Runs PISA for every ordered pair of `schedulers` and assembles the
/// Fig. 4 matrix, running the cells in order on one scheduling context and
/// one annealing scratch. `config.seed` is combined with the pair index so
/// every cell gets an independent, reproducible stream. Grids that want
/// cores, progress or checkpoints run [`pairwise_cells`] on the experiment
/// engine instead.
pub fn pairwise_matrix(schedulers: &[Box<dyn Scheduler>], config: PisaConfig) -> PairwiseMatrix {
    let names: Vec<String> = schedulers.iter().map(|s| s.name().to_string()).collect();
    let mut ctx = SchedContext::new();
    let mut scratch = AnnealScratch::default();
    let results = pairwise_cells(schedulers, config)
        .iter()
        .map(|cell| cell.run(&mut ctx, &mut scratch))
        .collect();
    PairwiseMatrix::from_cell_results(names, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saga_schedulers::{Cpop, FastestNode, Heft};

    fn tiny_config() -> PisaConfig {
        PisaConfig {
            restarts: 1,
            i_max: 120,
            seed: 7,
            ..PisaConfig::default()
        }
    }

    #[test]
    fn matrix_shape_and_diagonal() {
        let schedulers: Vec<Box<dyn Scheduler>> =
            vec![Box::new(Heft), Box::new(Cpop), Box::new(FastestNode)];
        let m = pairwise_matrix(&schedulers, tiny_config());
        assert_eq!(m.names, vec!["HEFT", "CPoP", "FastestNode"]);
        assert_eq!(m.ratios.len(), 3);
        for i in 0..3 {
            assert_eq!(m.ratios[i][i], 1.0);
            assert!(m.witnesses[i][i].is_none());
        }
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(m.ratios[i][j] >= 0.0);
                    assert!(m.witnesses[i][j].is_some());
                }
            }
        }
    }

    #[test]
    fn worst_row_is_columnwise_max() {
        let m = PairwiseMatrix {
            names: vec!["a".into(), "b".into()],
            ratios: vec![vec![1.0, 3.0], vec![2.0, 1.0]],
            witnesses: vec![vec![None, None], vec![None, None]],
        };
        assert_eq!(m.worst_row(), vec![2.0, 3.0]);
        let (row_names, rows) = m.heatmap_rows();
        assert_eq!(row_names, vec!["Worst", "b", "a"]);
        assert_eq!(rows, vec![vec![2.0, 3.0], vec![2.0, 1.0], vec![1.0, 3.0]]);
    }

    #[test]
    fn format_cell_matches_paper_buckets() {
        assert_eq!(PairwiseMatrix::format_cell(1.234), "1.23");
        assert_eq!(PairwiseMatrix::format_cell(7.0), "> 5.0");
        assert_eq!(PairwiseMatrix::format_cell(f64::INFINITY), "> 1000");
        assert_eq!(PairwiseMatrix::format_cell(5000.0), "> 1000");
    }

    #[test]
    fn adversarial_cells_usually_exceed_one() {
        // even a tiny budget finds >1 ratios for most pairs among these
        let schedulers: Vec<Box<dyn Scheduler>> =
            vec![Box::new(Heft), Box::new(Cpop), Box::new(FastestNode)];
        let m = pairwise_matrix(&schedulers, tiny_config());
        let mut above_one = 0;
        let mut total = 0;
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    total += 1;
                    if m.ratios[i][j] > 1.0 {
                        above_one += 1;
                    }
                }
            }
        }
        assert!(
            above_one * 2 >= total,
            "{above_one}/{total} cells above 1.0"
        );
    }
}
