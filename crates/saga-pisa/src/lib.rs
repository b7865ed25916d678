//! # saga-pisa
//!
//! PISA — *Problem-instance Identification using Simulated Annealing* — the
//! paper's main contribution (Section VI): an adversarial search for problem
//! instances on which one scheduler maximally under-performs another, i.e.
//!
//! ```text
//! max_{(N, G)}  m(S_A(N,G)) / m(S_B(N,G))
//! ```
//!
//! * [`annealer`] — the simulated-annealing loop of Algorithm 1 with the
//!   paper's constants (`T_max = 10`, `T_min = 0.1`, `I_max = 1000`,
//!   `alpha = 0.99`, 5 restarts).
//! * [`perturb`] — the six perturbation operators of Section VI and the
//!   trace-scaled, structure-preserving variants of Section VII.
//! * [`constraints`] — per-scheduler homogeneity restrictions (ETF/FCP/FLB
//!   fix node speeds; BIL/GDL/FCP/FLB fix link strengths).
//! * [`pairwise`] — the all-pairs cell grid behind Fig. 4.
//! * [`app_specific`] — the Section VII application-specific search over
//!   rigid scientific-workflow structures at fixed CCR.
//! * [`runner`] — the [`SearchCell`] runtime: every
//!   search variant expressed as data, executed against borrowed contexts
//!   and scratch by any driver (in order on one context here, the parallel
//!   checkpointing batch engine in `saga-experiments`).

#![warn(missing_docs)]

pub mod ablation;
pub mod annealer;
pub mod app_specific;
pub mod constraints;
pub mod library;
pub mod metric;
pub mod pairwise;
pub mod perturb;
pub mod runner;
pub mod shard;

pub use annealer::{AnnealScratch, PairTraces, Pisa, PisaConfig, PisaResult};
pub use pairwise::{pairwise_cells, pairwise_matrix, PairwiseMatrix, FIG4_SEED};
pub use perturb::{GeneralPerturber, Perturber};
pub use runner::{cell_config, CellKind, SearchCell};
pub use shard::{shard_cells, ShardSpec};

/// The adversarial objective: the makespan ratio of `target` against
/// `baseline` (`m_A / m_B`), with the conventions the paper's `> 1000`
/// cells imply:
///
/// * both infinite (or both zero) → `1.0` — neither wins;
/// * target infinite, baseline finite → `+inf` — an unboundedly bad case;
/// * target finite, baseline infinite → `0.0` — the baseline is the broken
///   one.
pub fn makespan_ratio(target: f64, baseline: f64) -> f64 {
    debug_assert!(!target.is_nan() && !baseline.is_nan());
    if target.is_infinite() && baseline.is_infinite() {
        return 1.0;
    }
    if target == 0.0 && baseline == 0.0 {
        return 1.0;
    }
    target / baseline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_conventions() {
        assert_eq!(makespan_ratio(2.0, 1.0), 2.0);
        assert_eq!(makespan_ratio(f64::INFINITY, f64::INFINITY), 1.0);
        assert_eq!(makespan_ratio(0.0, 0.0), 1.0);
        assert_eq!(makespan_ratio(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(makespan_ratio(1.0, f64::INFINITY), 0.0);
        assert_eq!(makespan_ratio(0.0, 1.0), 0.0);
    }
}
