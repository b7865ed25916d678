//! The `SearchCell` runtime: annealing runs as first-class engine workloads.
//!
//! Every PISA-style experiment — the Fig. 4 pairwise matrix, the Section VII
//! application searches, the metric-objective comparisons, the
//! search-strategy ablation — is a grid of independent annealing *cells*.
//! Before this module each driver hand-rolled its own fan-out (raw
//! `par_iter`, fresh `SchedContext` and fresh scratch instances per cell,
//! ad-hoc seed mixing). A [`SearchCell`] instead describes one cell as
//! *data*: what to search ([`CellKind`]), under which annealing budget
//! ([`PisaConfig`]), with which derived RNG seed. Executing a cell borrows a
//! warm scheduling context and a set of annealing scratch instances from
//! whoever is driving — a worker thread runs back-to-back cells with zero
//! steady-state allocation — and the cell's seed is baked in at construction
//! ([`derive_seed`] over the cell's index), so results are bit-identical no
//! matter how cells are sharded across threads or which worker claims them.
//!
//! The one parallel driver (progress, JSONL checkpointing, `--resume`) is
//! `saga_experiments::engine::BatchEngine::run_cells`;
//! [`pairwise_matrix`](crate::pairwise_matrix) and the golden suites run
//! cells in order on a single context. Both go through [`SearchCell::run`].

use crate::ablation::Strategy;
use crate::annealer::{AnnealScratch, Pisa, PisaConfig, PisaResult};
use crate::app_specific::AppSpecific;
use crate::constraints;
use crate::metric::{self, Objective};
use crate::perturb::{initial_instance, GeneralPerturber};
use saga_core::{derive_seed, fnv1a, SchedContext};
use saga_schedulers::Scheduler;

/// What one adversarial-search cell searches.
#[derive(Debug, Clone)]
pub enum CellKind {
    /// A general Section VI pairwise cell: free-form instances, per-pair
    /// homogeneity constraints.
    Pair {
        /// Scheduler whose failures are hunted (the ratio's numerator).
        target: String,
        /// Baseline scheduler (the denominator).
        baseline: String,
    },
    /// A Section VII application cell: rigid workflow structure at a fixed
    /// CCR, trace-scaled weight perturbations.
    App {
        /// Workflow name (e.g. `"blast"`).
        workflow: String,
        /// Target communication-to-computation ratio.
        ccr: f64,
        /// Scheduler whose failures are hunted.
        target: String,
        /// Baseline scheduler.
        baseline: String,
    },
    /// An alternative-metric cell: the generic annealer under an
    /// [`Objective`] other than (or including) makespan.
    Metric {
        /// The schedule-quality metric being compared.
        objective: Objective,
        /// Scheduler whose failures are hunted.
        target: String,
        /// Baseline scheduler.
        baseline: String,
    },
    /// A search-strategy ablation cell: the PISA objective and budget under
    /// a different acceptance strategy.
    Ablation {
        /// The acceptance strategy to run.
        strategy: Strategy,
        /// Scheduler whose failures are hunted.
        target: String,
        /// Baseline scheduler.
        baseline: String,
    },
}

/// One adversarial-search cell: a [`CellKind`] plus its annealing budget.
/// The config's `seed` is the cell's own derived stream, assigned at
/// construction — cells are fully self-describing, so any executor
/// (sequential, pooled, checkpointed engine) produces identical results.
#[derive(Debug, Clone)]
pub struct SearchCell {
    /// Stable human-readable identity (also the checkpoint key prefix).
    pub label: String,
    /// What to search.
    pub kind: CellKind,
    /// Annealing constants, including the cell's derived seed.
    pub config: PisaConfig,
}

impl SearchCell {
    /// A general pairwise cell (Fig. 4). `config.seed` must already be the
    /// cell's derived seed — see [`pairwise_cells`](crate::pairwise_cells)
    /// for the canonical grid builder.
    pub fn pair(target: &str, baseline: &str, config: PisaConfig) -> Self {
        SearchCell {
            label: format!("pair/{target}~{baseline}"),
            kind: CellKind::Pair {
                target: target.to_string(),
                baseline: baseline.to_string(),
            },
            config,
        }
    }

    /// A Section VII application cell.
    pub fn app(workflow: &str, ccr: f64, target: &str, baseline: &str, config: PisaConfig) -> Self {
        SearchCell {
            label: format!("app/{workflow}@{ccr}/{target}~{baseline}"),
            kind: CellKind::App {
                workflow: workflow.to_string(),
                ccr,
                target: target.to_string(),
                baseline: baseline.to_string(),
            },
            config,
        }
    }

    /// An alternative-metric cell.
    pub fn metric(objective: Objective, target: &str, baseline: &str, config: PisaConfig) -> Self {
        SearchCell {
            label: format!("metric/{}/{target}~{baseline}", objective.name()),
            kind: CellKind::Metric {
                objective,
                target: target.to_string(),
                baseline: baseline.to_string(),
            },
            config,
        }
    }

    /// A search-strategy ablation cell.
    pub fn ablation(strategy: Strategy, target: &str, baseline: &str, config: PisaConfig) -> Self {
        SearchCell {
            label: format!("ablation/{}/{target}~{baseline}", strategy.name()),
            kind: CellKind::Ablation {
                strategy,
                target: target.to_string(),
                baseline: baseline.to_string(),
            },
            config,
        }
    }

    /// The cell's checkpoint identity: label, every budget knob, and a
    /// digest of the *full* cell configuration. A resumed run only reuses a
    /// stored cell when the key matches exactly, so changing
    /// `--imax`/`--restarts`/`--seed` invalidates stale checkpoint lines —
    /// and so do config differences the label alone can't see (two `Metric`
    /// cells with different `Energy` parameters share a label; so do cells
    /// differing only in `t_max`/`t_min`/`alpha`). Without the digest such
    /// cells would falsely replay each other's stored result on `--resume`.
    pub fn key(&self) -> String {
        let cfg = format!(
            "{:?}|{:016x}|{:016x}|{:016x}",
            self.kind,
            self.config.t_max.to_bits(),
            self.config.t_min.to_bits(),
            self.config.alpha.to_bits()
        );
        format!(
            "{}#i{}r{}s{:016x}#c{:016x}",
            self.label,
            self.config.i_max,
            self.config.restarts,
            self.config.seed,
            fnv1a(cfg.as_bytes())
        )
    }

    /// Executes the cell, borrowing a scheduling context and annealing
    /// scratch from the driver. Bit-identical for a given cell regardless of
    /// the executor or thread count: every random draw comes from the cell's
    /// own seeded streams.
    ///
    /// # Panics
    /// Panics if the cell names an unknown scheduler or workflow.
    pub fn run(&self, ctx: &mut SchedContext, scratch: &mut AnnealScratch) -> PisaResult {
        let resolve = |name: &str| -> Box<dyn Scheduler> {
            saga_schedulers::by_name(name)
                .unwrap_or_else(|| panic!("cell {}: unknown scheduler {name}", self.label))
        };
        match &self.kind {
            CellKind::Pair { target, baseline } => {
                let t = resolve(target);
                let b = resolve(baseline);
                let perturber =
                    constraints::restrict_for_pair(GeneralPerturber::default(), target, baseline);
                let pisa = Pisa {
                    target: &*t,
                    baseline: &*b,
                    perturber: &perturber,
                    config: self.config,
                };
                pisa.run_in(ctx, scratch, &|rng| {
                    let mut inst = initial_instance(rng);
                    constraints::homogenize_for_pair(&mut inst, target, baseline);
                    inst
                })
            }
            CellKind::App {
                workflow,
                ccr,
                target,
                baseline,
            } => {
                let app = AppSpecific::new(workflow, *ccr)
                    .unwrap_or_else(|| panic!("cell {}: unknown workflow {workflow}", self.label));
                app.run_pair_in(
                    &*resolve(target),
                    &*resolve(baseline),
                    self.config,
                    ctx,
                    scratch,
                )
            }
            CellKind::Metric {
                objective,
                target,
                baseline,
            } => metric::metric_search_in(
                *objective,
                &*resolve(target),
                &*resolve(baseline),
                &GeneralPerturber::default(),
                self.config,
                &|rng| initial_instance(rng),
                ctx,
                scratch,
            ),
            CellKind::Ablation {
                strategy,
                target,
                baseline,
            } => {
                let (t, b) = (resolve(target), resolve(baseline));
                let pisa = Pisa {
                    target: &*t,
                    baseline: &*b,
                    perturber: &GeneralPerturber::default(),
                    config: self.config,
                };
                pisa.run_with(*strategy, ctx, scratch, &|rng| initial_instance(rng))
            }
        }
    }
}

/// Derives cell `index`'s config from a base config: same budget, own seed.
pub fn cell_config(base: PisaConfig, index: u64) -> PisaConfig {
    PisaConfig {
        seed: derive_seed(base.seed, index),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> PisaConfig {
        PisaConfig {
            i_max: 80,
            restarts: 2,
            seed,
            ..PisaConfig::default()
        }
    }

    #[test]
    fn scratch_reuse_across_heterogeneous_cells_is_clean() {
        // a driver's context and scratch cross every cell family (different
        // instance shapes/sizes); results must match fresh-scratch runs bit
        // for bit
        let cells = vec![
            SearchCell::app(
                "seismology",
                1.0,
                "MinMin",
                "CPoP",
                cell_config(quick(4), 0),
            ),
            SearchCell::pair("FastestNode", "HEFT", cell_config(quick(4), 1)),
            SearchCell::metric(
                Objective::Throughput,
                "CPoP",
                "HEFT",
                cell_config(quick(4), 2),
            ),
            SearchCell::ablation(
                Strategy::HillClimb,
                "CPoP",
                "HEFT",
                cell_config(quick(4), 3),
            ),
            SearchCell::app(
                "blast",
                0.5,
                "CPoP",
                "FastestNode",
                cell_config(quick(4), 4),
            ),
        ];
        let mut ctx = SchedContext::new();
        let mut shared = AnnealScratch::default();
        for cell in &cells {
            let warm = cell.run(&mut ctx, &mut shared);
            let fresh = cell.run(&mut SchedContext::new(), &mut AnnealScratch::default());
            assert_eq!(
                warm.ratio.to_bits(),
                fresh.ratio.to_bits(),
                "{}",
                cell.label
            );
            assert_eq!(warm.evaluations, fresh.evaluations, "{}", cell.label);
            assert_eq!(
                warm.instance.to_json(),
                fresh.instance.to_json(),
                "{} witness diverged",
                cell.label
            );
        }
    }

    #[test]
    fn keys_distinguish_same_label_different_config() {
        // regression: two Energy cells share the label "metric/energy/..."
        // but differ in their objective parameters — before the key carried
        // a config digest, a resumed run would replay one cell's stored
        // result for the other
        let a = SearchCell::metric(
            Objective::Energy {
                idle_fraction: 0.2,
                comm_energy_per_unit: 1.0,
            },
            "HEFT",
            "CPoP",
            quick(1),
        );
        let b = SearchCell::metric(
            Objective::Energy {
                idle_fraction: 0.4,
                comm_energy_per_unit: 1.0,
            },
            "HEFT",
            "CPoP",
            quick(1),
        );
        assert_eq!(a.label, b.label, "the label alone cannot tell them apart");
        assert_ne!(a.key(), b.key(), "the key digest must");
        // annealing-schedule knobs outside the label/budget fields count too
        let mut warm = quick(1);
        warm.t_max = 20.0;
        let c = SearchCell::pair("HEFT", "CPoP", quick(1));
        let d = SearchCell::pair("HEFT", "CPoP", warm);
        assert_ne!(c.key(), d.key());
        // and equal configs still agree
        assert_eq!(a.key(), a.clone().key());
    }

    #[test]
    fn keys_encode_budget_and_seed() {
        let a = SearchCell::pair("HEFT", "CPoP", quick(1));
        let mut changed = quick(1);
        changed.i_max = 81;
        let b = SearchCell::pair("HEFT", "CPoP", changed);
        assert_ne!(a.key(), b.key());
        assert_ne!(
            SearchCell::pair("HEFT", "CPoP", quick(1)).key(),
            SearchCell::pair("HEFT", "CPoP", quick(2)).key()
        );
        assert_eq!(a.key(), SearchCell::pair("HEFT", "CPoP", quick(1)).key());
    }
}
