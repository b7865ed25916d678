//! The paper's pinned grids, one library call each. A call returns the
//! exact text of the files its binary writes and of the report it prints
//! ([`Output`]): the binary parses its flags, makes the call and emits the
//! result, and `tests/paper_pins.rs` makes the same call at the binary's
//! defaults (each grid's `Default` or constructor) and compares the files
//! with `tests/paper/`.
//!
//! Four grids are adversarial-search cells, a [`CellGrid`] each: [`Fig4`],
//! [`AppPisa`] (one Section VII workflow), [`MetricPisa`] and
//! [`AblationSearch`]. Their binaries run them through
//! [`cli::run_grid`](crate::cli::run_grid), with a checkpoint and a shard;
//! the pin test through [`CellGrid::run`]. The other three run per-instance
//! cells through [`BatchEngine::map_ctx`]: [`ForkJoin`] (Figs. 7 and 8),
//! [`OnlineEval`] and [`StochasticEval`]. Fig. 2's rows come from
//! [`fig2_rows`](crate::benchmarking::fig2_rows) and render through
//! [`fig2_output`](crate::benchmarking::fig2_output).

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "the grids are fixed by the paper: a roster name, a known \
              workflow or one result per cell can only fail by a bug here"
)]

use crate::benchmarking::dataset_stats;
use crate::engine::{derive_seed, BatchEngine, Progress};
use crate::render::{self, matrix};
use crate::Output;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga_core::stochastic::{static_plan_makespan, StochasticInstance};
use saga_core::Instance;
use saga_datasets::families::{cpop_weak_instance, heft_weak_instance};
use saga_datasets::workflows::{self, WorkflowSpec};
use saga_pisa::ablation::Strategy;
use saga_pisa::app_specific::AppSpecific;
use saga_pisa::library::WitnessLibrary;
use saga_pisa::metric::Objective;
use saga_pisa::{cell_config, pairwise_cells, PairwiseMatrix, PisaConfig, PisaResult, SearchCell};
use saga_schedulers::online::{simulate_online, OnlineEft, OnlineOlb, ReleaseTimes};
use saga_schedulers::{app_specific_schedulers, benchmark_schedulers, Cpop, Heft, Scheduler};

/// The schedulers' names, in roster order.
pub(crate) fn names(schedulers: &[Box<dyn Scheduler>]) -> Vec<String> {
    schedulers.iter().map(|s| s.name().to_string()).collect()
}

/// The index of scheduler `name` in `names`.
pub(crate) fn index(names: &[String], name: &str) -> usize {
    names.iter().position(|n| n == name).expect("in the roster")
}

/// The paper's annealing schedule with this budget and base seed.
fn budget(i_max: usize, restarts: usize, seed: u64) -> PisaConfig {
    PisaConfig {
        i_max,
        restarts,
        seed,
        ..PisaConfig::default()
    }
}

/// A grid of adversarial-search cells, rendered from their results.
pub trait CellGrid {
    /// The progress label. The grid's checkpoint is
    /// `results/{name}_cells.jsonl`, with `/` written as `_`.
    fn name(&self) -> String;

    /// Every cell, in the order [`render`](Self::render) reads the results.
    fn cells(&self) -> Vec<SearchCell>;

    /// The output, from one result per cell in cell order.
    fn render(&self, engine: &BatchEngine, results: &[PisaResult]) -> Output;

    /// Runs every cell with no checkpoint and renders them. The results
    /// come back too, in cell order.
    fn run(&self, engine: &BatchEngine) -> (Vec<PisaResult>, Output) {
        let results = engine
            .run_cells(&self.cells(), None, None)
            .expect("with no checkpoint, no write can fail");
        let output = self.render(engine, &results);
        (results, output)
    }
}

/// Fig. 4: PISA over the 210 ordered pairs of the 15 benchmark
/// schedulers, their witness instances, and the paper's headline checks.
#[derive(Debug, Clone, Copy)]
pub struct Fig4 {
    /// The budget and base seed of every cell.
    pub config: PisaConfig,
}

impl Default for Fig4 {
    /// The paper's budget (5 restarts × 1000 iterations) at `FIG4_SEED`.
    fn default() -> Self {
        Fig4 {
            config: budget(1000, 5, saga_pisa::FIG4_SEED),
        }
    }
}

impl CellGrid for Fig4 {
    fn name(&self) -> String {
        "fig4".to_string()
    }

    fn cells(&self) -> Vec<SearchCell> {
        pairwise_cells(&benchmark_schedulers(), self.config)
    }

    fn render(&self, _: &BatchEngine, results: &[PisaResult]) -> Output {
        let m = PairwiseMatrix::from_cell_results(names(&benchmark_schedulers()), results.to_vec());
        let (row_names, rows) = m.heatmap_rows();
        let title = "Fig. 4: worst-case makespan ratio of scheduler (column) vs baseline (row)";
        let (mut report, csv) = matrix(title, "fig4_pairwise.csv", &row_names, &m.names, &rows);
        let worst = m.worst_row();
        let losses = |x: f64| worst.iter().filter(|&&r| r >= x).count();
        let n = m.names.len();
        let both_dirs = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| m.ratios[i][j] > 1.0 && m.ratios[j][i] > 1.0)
            .count();
        report += &format!(
            "check: schedulers with a >=2x adversarial loss: {}/{n} (paper: 15/15)\n\
             check: schedulers with a >=5x adversarial loss: {}/{n} (paper: 10/15)\n\
             check: pairs adversarial in BOTH directions: {both_dirs}/{}\n\
             check: HEFT vs FastestNode worst ratio {} (paper: 4.34)\n",
            losses(2.0),
            losses(5.0),
            n * (n - 1) / 2,
            render::cell(m.ratios[index(&m.names, "FastestNode")][index(&m.names, "HEFT")]),
        );
        // the witness instances, for reuse by other researchers (the
        // paper's "publish PISA instances" future-work item)
        let witnesses = WitnessLibrary::from_matrix(&m).to_jsonl();
        let files = vec![csv, ("fig4_witnesses.jsonl".to_string(), witnesses)];
        Output { files, report }
    }
}

/// Section VII (Figs. 10–19, Appendix A) for one workflow: PISA over the
/// ordered pairs of the application-specific roster at each CCR, each
/// matrix with the traditional benchmarking row (the max ratio over
/// in-family instances) at the bottom — the paper's figure layout.
#[derive(Debug, Clone)]
pub struct AppPisa {
    /// The workflow (one of `WORKFLOW_NAMES`).
    pub workflow: String,
    /// The CCRs, one matrix each.
    pub ccrs: Vec<f64>,
    /// Instances behind each benchmarking row.
    pub instances: usize,
    /// The budget and base seed.
    pub config: PisaConfig,
}

impl AppPisa {
    /// `workflow` at the `app_pisa` defaults: the paper's five CCRs, 15
    /// benchmarking instances, 2 restarts × 300 iterations, seed `0xA551`.
    pub fn new(workflow: &str) -> Self {
        AppPisa {
            workflow: workflow.to_string(),
            ccrs: saga_datasets::ccr::PAPER_CCRS.to_vec(),
            instances: 15,
            config: budget(300, 2, 0xA551),
        }
    }
}

impl CellGrid for AppPisa {
    fn name(&self) -> String {
        format!("app_pisa/{}", self.workflow)
    }

    /// Every (CCR, baseline, target) cell, baselines and targets in roster
    /// order.
    fn cells(&self) -> Vec<SearchCell> {
        let names = names(&app_specific_schedulers());
        let mut cells = Vec::new();
        for &ccr in &self.ccrs {
            for baseline in &names {
                for target in names.iter().filter(|&t| t != baseline) {
                    let config = cell_config(self.config, cells.len() as u64);
                    let cell = SearchCell::app(&self.workflow, ccr, target, baseline, config);
                    cells.push(cell);
                }
            }
        }
        cells
    }

    fn render(&self, engine: &BatchEngine, results: &[PisaResult]) -> Output {
        let workflow = &self.workflow;
        let schedulers = app_specific_schedulers();
        let names = names(&schedulers);
        let n = names.len();
        let mut report =
            format!("=== Section VII: application-specific PISA for {workflow} ===\n\n");
        let mut files = Vec::new();
        let mut results = results.iter();
        for (ci, &ccr) in self.ccrs.iter().enumerate() {
            // the benchmarking row: instances from per-instance derived
            // seeds, generated in parallel, evaluated with pinned tables
            let app = AppSpecific::new(workflow, ccr).expect("known workflow");
            let bench_seed = derive_seed(self.config.seed, 0xB000 + ci as u64);
            let insts: Vec<Instance> = engine.map((0..self.instances).collect(), |k| {
                let seed = derive_seed(bench_seed, k as u64);
                app.initial_instance(&mut StdRng::seed_from_u64(seed))
            });
            let bench: Vec<_> = engine.makespans(&schedulers, &insts, None);
            let bench: Vec<_> = bench.into_iter().map(Some).collect();
            let bench_row: Vec<f64> = dataset_stats(&bench, n).iter().map(|s| s.max).collect();

            // this CCR's PISA matrix, `ratios[baseline][target]`
            let mut ratios = vec![vec![1.0f64; n]; n];
            for (i, row) in ratios.iter_mut().enumerate() {
                for (j, slot) in row.iter_mut().enumerate() {
                    if i != j {
                        *slot = results.next().expect("one result per cell").ratio;
                    }
                }
            }
            // baseline rows in reverse roster order like the paper, then
            // the benchmarking row
            let mut row_names: Vec<String> = names.iter().rev().cloned().collect();
            row_names.push("Benchmarking".to_string());
            let mut rows: Vec<Vec<f64>> = ratios.iter().rev().cloned().collect();
            rows.push(bench_row.clone());
            let title =
                format!("{workflow} (CCR = {ccr}): PISA worst-case + benchmarking max ratios");
            let name = format!("app_pisa_{workflow}_ccr{ccr}.csv");
            let (text, csv) = matrix(&title, &name, &row_names, &names, &rows);
            report += &text;
            files.push(csv);

            // the Section VII takeaway: for how many schedulers does PISA
            // expose a worse case than the benchmarking row shows?
            let exposed: Vec<String> = (0..n)
                .filter_map(|j| {
                    let pisa_worst = ratios.iter().map(|row| row[j]).fold(0.0, f64::max);
                    (pisa_worst > bench_row[j] * 1.05).then(|| {
                        let (pisa, bench) = (render::cell(pisa_worst), render::cell(bench_row[j]));
                        format!("{} ({pisa} vs bench {bench})", names[j])
                    })
                })
                .collect();
            report += &format!(
                "check: PISA exposes worse-than-benchmarking cases for {}/{n} schedulers: {}\n\n",
                exposed.len(),
                exposed.join(", ")
            );
        }
        Output { files, report }
    }
}

/// Adversarial comparison under alternative metrics (energy, rental cost,
/// throughput), the paper's "other performance metrics" future-work item:
/// one cell per (pair, objective).
#[derive(Debug, Clone, Copy)]
pub struct MetricPisa {
    /// The budget and base seed.
    pub config: PisaConfig,
}

impl Default for MetricPisa {
    /// 3 restarts × 400 iterations, seed `0x3E71C`.
    fn default() -> Self {
        MetricPisa {
            config: budget(400, 3, 0x3E71C),
        }
    }
}

/// [`MetricPisa`]'s objectives, the output's columns.
const OBJECTIVES: [Objective; 4] = [
    Objective::Makespan,
    Objective::Energy {
        idle_fraction: 0.2,
        comm_energy_per_unit: 1.0,
    },
    Objective::RentalCost,
    Objective::Throughput,
];

/// [`MetricPisa`]'s (target, baseline) pairs, the output's rows.
const METRIC_PAIRS: [(&str, &str); 4] = [
    ("HEFT", "FastestNode"),
    ("FastestNode", "HEFT"),
    ("CPoP", "HEFT"),
    ("MinMin", "MaxMin"),
];

impl CellGrid for MetricPisa {
    fn name(&self) -> String {
        "metric_pisa".to_string()
    }

    /// Pair-major, objective-minor, so each output row is a contiguous
    /// slice of the results.
    fn cells(&self) -> Vec<SearchCell> {
        let pairs = METRIC_PAIRS
            .iter()
            .flat_map(|&pair| OBJECTIVES.map(|obj| (pair, obj)));
        pairs
            .enumerate()
            .map(|(k, ((a, b), obj))| {
                SearchCell::metric(obj, a, b, cell_config(self.config, k as u64))
            })
            .collect()
    }

    fn render(&self, _: &BatchEngine, results: &[PisaResult]) -> Output {
        let col_names: Vec<String> = OBJECTIVES.iter().map(|o| o.name().to_string()).collect();
        let row_names: Vec<String> = METRIC_PAIRS
            .iter()
            .map(|(a, b)| format!("{a} vs {b}"))
            .collect();
        let rows: Vec<Vec<f64>> = results
            .chunks(OBJECTIVES.len())
            .map(|chunk| chunk.iter().map(|r| r.ratio).collect())
            .collect();
        let title = "Adversarial worst-case ratios by metric (pair rows, metric columns)";
        let (report, csv) = matrix(title, "metric_pisa.csv", &row_names, &col_names, &rows);
        let report = report
            + "takeaway: weaknesses are metric-dependent — a scheduler can be\n\
               makespan-competitive yet adversarially bad on energy or cost.\n";
        Output {
            files: vec![csv],
            report,
        }
    }
}

/// The search-strategy ablation: does PISA need simulated annealing?
/// Annealing, hill-climbing and a random walk at identical budgets over a
/// panel of pairs, one cell per (pair, strategy, trial).
#[derive(Debug, Clone, Copy)]
pub struct AblationSearch {
    /// The budget and base seed shared by every strategy.
    pub config: PisaConfig,
    /// Trials per (pair, strategy), each from its own seed.
    pub trials: usize,
}

impl Default for AblationSearch {
    /// 5 trials of 5 restarts × 1000 iterations, seed `0xAB1A`.
    fn default() -> Self {
        AblationSearch {
            config: budget(1000, 5, 0xAB1A),
            trials: 5,
        }
    }
}

/// [`AblationSearch`]'s (target, baseline) pairs, the output's rows.
const ABLATION_PAIRS: [(&str, &str); 6] = [
    ("HEFT", "CPoP"),
    ("CPoP", "HEFT"),
    ("HEFT", "FastestNode"),
    ("MinMin", "MaxMin"),
    ("WBA", "HEFT"),
    ("MCT", "HEFT"),
];

impl CellGrid for AblationSearch {
    fn name(&self) -> String {
        "ablation_search".to_string()
    }

    /// (pair, strategy, trial) nesting. The strategies compare at matched
    /// seeds: a trial's seed depends on (pair, trial) only, and the seed in
    /// each cell's key keeps the keys unique.
    fn cells(&self) -> Vec<SearchCell> {
        let mut cells = Vec::new();
        for (pi, (a, b)) in ABLATION_PAIRS.iter().enumerate() {
            for strategy in Strategy::ALL {
                for k in 0..self.trials {
                    let seed = derive_seed(self.config.seed, (pi * self.trials + k) as u64);
                    let config = PisaConfig {
                        seed,
                        ..self.config
                    };
                    cells.push(SearchCell::ablation(strategy, a, b, config));
                }
            }
        }
        cells
    }

    fn render(&self, _: &BatchEngine, results: &[PisaResult]) -> Output {
        let trials = self.trials;
        let col_names: Vec<String> = Strategy::ALL.iter().map(|s| s.name().to_string()).collect();
        let row_names: Vec<String> = ABLATION_PAIRS
            .iter()
            .map(|(a, b)| format!("{a} vs {b}"))
            .collect();
        let mut wins = vec![0usize; Strategy::ALL.len()];
        // each pair's best ratio per (strategy, trial), unbounded as 1000
        let mut ratio = results
            .iter()
            .map(|r| if r.ratio.is_finite() { r.ratio } else { 1000.0 });
        let rows: Vec<Vec<f64>> = ABLATION_PAIRS
            .iter()
            .map(|_| {
                let best: Vec<Vec<f64>> = Strategy::ALL
                    .iter()
                    .map(|_| ratio.by_ref().take(trials).collect())
                    .collect();
                // per-trial wins, ties to the earlier strategy
                for k in 0..trials {
                    let winner =
                        (1..best.len()).fold(0, |w, s| if best[s][k] > best[w][k] { s } else { w });
                    wins[winner] += 1;
                }
                best.iter()
                    .map(|t| t.iter().sum::<f64>() / trials as f64)
                    .collect()
            })
            .collect();
        let mut report = format!(
            "Ablation: best adversarial ratio by search strategy \
             ({} restarts x {} iters, mean over {trials} seeds)\n\n",
            self.config.restarts, self.config.i_max
        );
        let title = "mean best ratio (1000 = unbounded)";
        let (text, csv) = matrix(title, "ablation_search.csv", &row_names, &col_names, &rows);
        report += &text;
        report += "per-trial wins across all pairs:\n";
        for (s, w) in Strategy::ALL.iter().zip(&wins) {
            report += &format!("  {:<12} {w}\n", s.name());
        }
        Output {
            files: vec![csv],
            report,
        }
    }
}

/// The fork-join family of Fig. 7 or Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Fig. 7: one branch with a huge initial communication cost, where
    /// HEFT performs poorly against CPoP.
    HeftWeak,
    /// Fig. 8: wide, with expensive join messages and a weak link between
    /// the two fastest nodes, where CPoP performs poorly against HEFT.
    CpopWeak,
}

/// Figs. 7 and 8: HEFT and CPoP makespans on draws from a fork-join
/// family, with the five-number summaries behind the paper's box plots.
/// Each draw is a cell with its own derived seed, and both schedulers run
/// on it under one pinned table build.
#[derive(Debug, Clone, Copy)]
pub struct ForkJoin {
    /// Which family, and so which figure.
    pub family: Family,
    /// Draws from the family.
    pub instances: usize,
    /// Base seed; draw `k` comes from `derive_seed(seed, k)`.
    pub seed: u64,
}

impl ForkJoin {
    /// Fig. 7 at the `fig7` defaults: 1000 draws, seed `0xF167`.
    pub fn fig7() -> Self {
        ForkJoin {
            family: Family::HeftWeak,
            instances: 1000,
            seed: 0xF167,
        }
    }

    /// Fig. 8 at the `fig8` defaults: 1000 draws, seed `0xF168`.
    pub fn fig8() -> Self {
        ForkJoin {
            family: Family::CpopWeak,
            seed: 0xF168,
            ..Self::fig7()
        }
    }

    /// Runs the draws and renders `fig{7,8}_makespans.csv` and the report.
    pub fn run(&self, engine: &BatchEngine) -> Output {
        let (fig, family, sample): (u8, &str, fn(&mut StdRng) -> Instance) = match self.family {
            Family::HeftWeak => (7, "HEFT-weak fork-join", heft_weak_instance),
            Family::CpopWeak => (8, "CPoP-weak wide fork-join", cpop_weak_instance),
        };
        let (instances, seed) = (self.instances, self.seed);
        let progress = Progress::new(format!("fig{fig}"), instances);
        let pairs: Vec<(f64, f64)> = engine.map_ctx((0..instances).collect(), |ctx, k| {
            let inst = sample(&mut StdRng::seed_from_u64(derive_seed(seed, k as u64)));
            let pair = ctx.with_pinned(&inst, |ctx| {
                (
                    Heft.makespan_into(&inst, ctx),
                    Cpop.makespan_into(&inst, ctx),
                )
            });
            progress.tick();
            pair
        });
        let heft: Vec<f64> = pairs.iter().map(|&(h, _)| h).collect();
        let cpop: Vec<f64> = pairs.iter().map(|&(_, c)| c).collect();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (weak, weak_mean, strong_mean) = match self.family {
            Family::HeftWeak => ("HEFT", mean(&heft), mean(&cpop)),
            Family::CpopWeak => ("CPoP", mean(&cpop), mean(&heft)),
        };
        let report = format!(
            "Fig. {fig}: makespans on the {family} family ({instances} instances)\n\n{}\n{}\n\n\
             mean makespan: CPoP {:.3}, HEFT {:.3} (ratio {:.3})\n\
             check: {weak} clearly worse on this family: {}\n",
            render::five_number_summary("CPoP", &cpop),
            render::five_number_summary("HEFT", &heft),
            mean(&cpop),
            mean(&heft),
            weak_mean / strong_mean,
            weak_mean > 1.1 * strong_mean,
        );
        let mut csv = String::from("instance,heft,cpop\n");
        for (i, (h, c)) in pairs.iter().enumerate() {
            csv += &format!("{i},{h},{c}\n");
        }
        Output {
            files: vec![(format!("fig{fig}_makespans.csv"), csv)],
            report,
        }
    }
}

/// The price of non-clairvoyance, the paper's "online scheduling"
/// future-work direction: online dispatch policies against offline HEFT as
/// task arrivals are staggered more and more. Each (stagger, instance)
/// pair is a cell with its own derived seed.
#[derive(Debug, Clone)]
pub struct OnlineEval {
    /// The workflow (one of `WORKFLOW_NAMES`).
    pub workflow: String,
    /// Instances per stagger.
    pub instances: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for OnlineEval {
    /// 10 `blast` instances, seed `0x0411`.
    fn default() -> Self {
        OnlineEval {
            workflow: "blast".to_string(),
            instances: 10,
            seed: 0x0411,
        }
    }
}

/// `workflow`'s spec; panics on an unknown workflow.
fn spec(workflow: &str) -> WorkflowSpec {
    workflows::spec(workflow).unwrap_or_else(|| panic!("unknown workflow {workflow}"))
}

/// An instance of `workflow` (with its `spec`) at CCR 1, drawn from `rng`.
fn workflow_instance(workflow: &str, spec: &WorkflowSpec, rng: &mut StdRng) -> Instance {
    let g = workflows::build_graph(workflow, rng);
    let net = workflows::sample_chameleon_network(rng, spec);
    let mut inst = Instance::new(net, g);
    saga_datasets::ccr::set_homogeneous_ccr(&mut inst, 1.0);
    inst
}

impl OnlineEval {
    /// Arrival gaps per level, as fractions of a quarter of the offline
    /// makespan.
    const STAGGERS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 2.0];

    /// Runs the cells and renders `online_{workflow}.csv` and the report.
    ///
    /// # Panics
    /// Panics on an unknown workflow.
    pub fn run(&self, engine: &BatchEngine) -> Output {
        let (workflow, instances, seed) = (&self.workflow, self.instances, self.seed);
        let spec = spec(workflow);
        let staggers = Self::STAGGERS;
        let progress = Progress::new("online_eval", staggers.len() * instances);
        let cells: Vec<(usize, usize)> = (0..staggers.len())
            .flat_map(|si| (0..instances).map(move |k| (si, k)))
            .collect();
        let rows: Vec<(f64, f64, f64)> = engine.map_ctx(cells, |ctx, (si, k)| {
            let cell_seed = derive_seed(seed, (si * instances + k) as u64);
            let mut rng = StdRng::seed_from_u64(cell_seed);
            let inst = workflow_instance(workflow, &spec, &mut rng);
            let h = Heft.makespan_into(&inst, ctx);
            // stagger proportional to the offline makespan scale, with
            // jitters from a cell-local stream
            let stagger = staggers[si] * h / 4.0;
            let mut jitter_rng = StdRng::seed_from_u64(cell_seed ^ 0xABCD);
            let jitters: Vec<f64> = (0..inst.graph.task_count())
                .map(|_| jitter_rng.gen_range(0.0..=stagger.max(1e-12)))
                .collect();
            let releases = ReleaseTimes::staggered(&inst, stagger, |i| jitters[i] * 0.1);
            let se = simulate_online(&inst, &releases, &OnlineEft, ctx);
            releases.verify(&inst, &se).expect("valid online schedule");
            let so = simulate_online(&inst, &releases, &OnlineOlb, ctx);
            releases.verify(&inst, &so).expect("valid online schedule");
            progress.tick();
            (h, se.makespan(), so.makespan())
        });

        let mut report = format!(
            "Online vs offline on {workflow} ({instances} instances; stagger = arrival gap per level)\n\n\
             {:>8} {:>14} {:>14} {:>14}\n",
            "stagger", "offline HEFT", "OnlineEFT", "OnlineOLB"
        );
        let mut csv = String::from("stagger,offline_heft,online_eft,online_olb\n");
        for (si, &stagger) in staggers.iter().enumerate() {
            let chunk = &rows[si * instances..(si + 1) * instances];
            let n = instances as f64;
            let offline: f64 = chunk.iter().map(|r| r.0).sum::<f64>() / n;
            let eft: f64 = chunk.iter().map(|r| r.1).sum::<f64>() / n;
            let olb: f64 = chunk.iter().map(|r| r.2).sum::<f64>() / n;
            report += &format!("{stagger:>8.2} {offline:>14.1} {eft:>14.1} {olb:>14.1}\n");
            csv += &format!("{stagger},{offline},{eft},{olb}\n");
        }
        report += "\noffline HEFT sees the whole graph at t=0; the online policies pay\n\
                   for both non-clairvoyance and the arrival-induced idle time.\n";
        Output {
            files: vec![(format!("online_{workflow}.csv"), csv)],
            report,
        }
    }
}

/// Robustness under uncertainty, the paper's stochastic-instances
/// future-work direction: plan on the *expected* instance, execute the
/// fixed plan under Monte-Carlo realizations of the weights, and compare
/// schedulers by achieved mean and p95 makespan. One cell per (scheduler,
/// instance), with per-instance Monte-Carlo seeds.
#[derive(Debug, Clone)]
pub struct StochasticEval {
    /// The workflow (one of `WORKFLOW_NAMES`).
    pub workflow: String,
    /// Coefficient of variation of every weight.
    pub cv: f64,
    /// Base instances.
    pub instances: usize,
    /// Realizations per (scheduler, instance).
    pub samples: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for StochasticEval {
    /// 25 `montage` instances × 100 realizations at cv 0.3, seed `0x570C`.
    fn default() -> Self {
        StochasticEval {
            workflow: "montage".to_string(),
            cv: 0.3,
            instances: 25,
            samples: 100,
            seed: 0x570C,
        }
    }
}

impl StochasticEval {
    /// Runs the cells and renders `stochastic_{workflow}.csv` and the
    /// report.
    ///
    /// # Panics
    /// Panics on an unknown workflow.
    pub fn run(&self, engine: &BatchEngine) -> Output {
        let (workflow, cv, instances, seed) = (&self.workflow, self.cv, self.instances, self.seed);
        let spec = spec(workflow);
        let schedulers = app_specific_schedulers();
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<Instance> = (0..instances)
            .map(|_| workflow_instance(workflow, &spec, &mut rng))
            .collect();
        let progress = Progress::new("stochastic_eval", schedulers.len() * instances);
        let cells: Vec<(usize, usize)> = (0..schedulers.len())
            .flat_map(|s| (0..instances).map(move |k| (s, k)))
            .collect();
        let results: Vec<(f64, f64, f64)> = engine.map_ctx(cells, |ctx, (s, k)| {
            let stoch = StochasticInstance::jittered(&base[k], cv);
            let plan = schedulers[s].schedule_into(&stoch.expected_instance(), ctx);
            let mut mc_rng = StdRng::seed_from_u64(seed ^ (k as u64) << 8);
            let (m, p) = static_plan_makespan(&plan, &stoch, self.samples, &mut mc_rng);
            progress.tick();
            (plan.makespan(), m, p)
        });

        let mut report = format!(
            "Stochastic evaluation on {workflow} (cv = {cv}, {instances} instances x {} realizations)\n\n\
             {:<12} {:>14} {:>14} {:>14}\n",
            self.samples, "scheduler", "planned", "achieved mean", "achieved p95"
        );
        let mut csv = String::from("scheduler,planned,achieved_mean,achieved_p95\n");
        for (s, sched) in schedulers.iter().enumerate() {
            let (mut planned, mut mean, mut p95) = (0.0, 0.0, 0.0);
            for &(pl, m, p) in &results[s * instances..(s + 1) * instances] {
                planned += pl;
                mean += m;
                p95 += p;
            }
            let n = instances as f64;
            let (name, planned, mean, p95) = (sched.name(), planned / n, mean / n, p95 / n);
            report += &format!("{name:<12} {planned:>14.3} {mean:>14.3} {p95:>14.3}\n");
            csv += &format!("{name},{planned},{mean},{p95}\n");
        }
        report += &format!(
            "\nnote: 'planned' is the makespan promised on the expected instance;\n\
             'achieved' is what the fixed plan delivers when weights deviate (cv = {cv}).\n"
        );
        Output {
            files: vec![(format!("stochastic_{workflow}.csv"), csv)],
            report,
        }
    }
}
