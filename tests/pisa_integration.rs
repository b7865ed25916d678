//! Integration tests for the adversarial pipeline: PISA end-to-end against
//! real schedulers, the pairwise driver, and the Section VII
//! application-specific variant.

use saga::core::Instance;
use saga::pisa::annealer::{Pisa, PisaConfig};
use saga::pisa::app_specific::AppSpecific;
use saga::pisa::perturb::{initial_instance, GeneralPerturber, PerturbUndo};
use saga::pisa::{pairwise_matrix, Perturber};
use saga::schedulers::Scheduler;

fn quick(seed: u64) -> PisaConfig {
    PisaConfig {
        i_max: 200,
        restarts: 2,
        seed,
        ..PisaConfig::default()
    }
}

#[test]
fn pisa_beats_benchmarking_for_heft_vs_fastest_node() {
    // The paper's most striking single claim: PISA finds instances where
    // HEFT badly trails the serial FastestNode baseline (4.34x in Fig. 4),
    // even though FastestNode looks terrible in benchmarks.
    let perturber = GeneralPerturber::default();
    let pisa = Pisa {
        target: &saga::schedulers::Heft,
        baseline: &saga::schedulers::FastestNode,
        perturber: &perturber,
        config: quick(11),
    };
    let res = pisa.run(&|rng| initial_instance(rng));
    assert!(
        res.ratio > 1.3,
        "expected HEFT to over-parallelize somewhere, got {}",
        res.ratio
    );
    // the witness is a real, verifiable instance
    let h = saga::schedulers::Heft.schedule(&res.instance);
    let f = saga::schedulers::FastestNode.schedule(&res.instance);
    h.verify(&res.instance).unwrap();
    f.verify(&res.instance).unwrap();
    assert!(h.makespan() > f.makespan());
}

#[test]
fn pairwise_matrix_on_app_subset_finds_mutual_weaknesses() {
    let m = pairwise_matrix(&saga::schedulers::app_specific_schedulers(), quick(5));
    assert_eq!(m.names.len(), 6);
    // at least one pair is adversarial in both directions
    let n = m.names.len();
    let mut mutual = false;
    for i in 0..n {
        for j in (i + 1)..n {
            if m.ratios[i][j] > 1.05 && m.ratios[j][i] > 1.05 {
                mutual = true;
            }
        }
    }
    assert!(mutual, "no mutually adversarial pair found");
    // every witness revalidates to its recorded ratio
    for i in 0..n {
        for j in 0..n {
            if let Some(inst) = &m.witnesses[i][j] {
                let a = saga::schedulers::by_name(&m.names[j]).unwrap();
                let b = saga::schedulers::by_name(&m.names[i]).unwrap();
                let r = saga::pisa::makespan_ratio(
                    a.schedule(inst).makespan(),
                    b.schedule(inst).makespan(),
                );
                let recorded = m.ratios[i][j];
                assert!(
                    (r - recorded).abs() < 1e-9 || (r.is_infinite() && recorded.is_infinite()),
                    "witness mismatch {} vs {}: {r} != {recorded}",
                    m.names[j],
                    m.names[i]
                );
            }
        }
    }
}

#[test]
fn app_specific_search_stays_in_family() {
    let app = AppSpecific::new("seismology", 1.0).unwrap();
    let res = app.run_pair(
        &saga::schedulers::MinMin,
        &saga::schedulers::Cpop,
        quick(23),
    );
    // the witness still has seismology's star shape: one sink fed by all
    let g = &res.instance.graph;
    let sinks = g.sinks();
    assert_eq!(sinks.len(), 1);
    assert_eq!(g.predecessors(sinks[0]).len(), g.task_count() - 1);
    // and weights stayed in the trace ranges
    let sp = app.spec;
    for t in g.tasks() {
        assert!(g.cost(t) >= sp.runtime_range.0 && g.cost(t) <= sp.runtime_range.1);
    }
}

#[test]
fn perturber_composes_with_all_schedulers() {
    // fuzz-ish: schedulers stay valid along a perturbation trajectory
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let mut inst = initial_instance(&mut rng);
    let p = GeneralPerturber::default();
    let schedulers = saga::schedulers::benchmark_schedulers();
    for step in 0..30 {
        p.perturb(&mut inst, &mut rng);
        for s in &schedulers {
            let sched = s.schedule(&inst);
            sched
                .verify(&inst)
                .unwrap_or_else(|e| panic!("{} invalid at step {step}: {e}", s.name()));
        }
    }
}

/// A third-party perturber that breaks the `Some` contract of
/// `Perturber::perturb_undoable`.
struct NoUndo;

impl Perturber for NoUndo {
    fn perturb_undoable(
        &self,
        _: &mut Instance,
        _: &mut rand::rngs::StdRng,
    ) -> Option<PerturbUndo> {
        None
    }
}

#[test]
#[should_panic(expected = "perturb_undoable must return Some")]
fn a_perturber_without_an_undo_record_is_refused() {
    let pisa = Pisa {
        target: &saga::schedulers::Heft,
        baseline: &saga::schedulers::Cpop,
        perturber: &NoUndo,
        config: quick(1),
    };
    pisa.run(&|rng| initial_instance(rng));
}
