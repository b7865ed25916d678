//! Integration tests for the future-work extensions: stochastic instances,
//! alternative metrics, the witness library, the ensemble scheduler, and
//! the historical comparator baselines — all exercised across crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use saga::core::stochastic::{simulate_fixed, StochasticInstance};
use saga::core::{metrics, Instance};
use saga::schedulers::Scheduler;

#[test]
fn stochastic_plans_execute_validly_on_all_app_schedulers() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let gen = saga::datasets::by_name("soykb").unwrap();
    let inst = gen.sample(&mut rng);
    let stoch = StochasticInstance::jittered(&inst, 0.25);
    for s in saga::schedulers::app_specific_schedulers() {
        let plan = s.schedule(&stoch.expected_instance());
        for k in 0..5 {
            let reality = stoch.realize(&mut rng);
            let executed = simulate_fixed(&plan, &reality);
            executed
                .verify(&reality)
                .unwrap_or_else(|e| panic!("{} plan invalid under realization {k}: {e}", s.name()));
        }
    }
}

#[test]
fn fixed_plan_regret_is_nonnegative_under_slowdown_only() {
    // if every speed/link can only degrade (jitter clipped below mean),
    // a re-timed plan can never beat its promise
    let mut rng = StdRng::seed_from_u64(0xE2);
    let gen = saga::datasets::by_name("montage").unwrap();
    let base = gen.sample(&mut rng);
    // build a degraded-only stochastic wrapper manually: costs can only grow
    use saga::core::stochastic::Dist;
    let task_costs = base
        .graph
        .tasks()
        .map(|t| Dist::Uniform {
            lo: base.graph.cost(t),
            hi: base.graph.cost(t) * 1.5,
        })
        .collect();
    let dep_costs = base
        .graph
        .dependencies()
        .map(|(a, b, c)| (a, b, Dist::Fixed(c)))
        .collect();
    let speeds = base
        .network
        .nodes()
        .map(|v| Dist::Fixed(base.network.speed(v)))
        .collect();
    let stoch = StochasticInstance::new(base.clone(), task_costs, dep_costs, speeds, vec![]);
    let plan = saga::schedulers::Heft.schedule(&stoch.expected_instance());
    // expected instance has mean costs (1.25x base), but plan promise is on
    // that same instance; realizations in [1, 1.5]x can beat the mean —
    // compare against the *base* instead: every realization >= base costs
    let base_exec = simulate_fixed(&plan, &base).makespan();
    for _ in 0..10 {
        let reality = stoch.realize(&mut rng);
        let executed = simulate_fixed(&plan, &reality);
        assert!(executed.makespan() >= base_exec - 1e-9);
    }
}

#[test]
fn metrics_are_consistent_across_schedulers() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    let gen = saga::datasets::by_name("stats").unwrap();
    let inst = gen.sample(&mut rng);
    for s in saga::schedulers::benchmark_schedulers() {
        let sched = s.schedule(&inst);
        let model = metrics::EnergyModel::speed_proportional(&inst, 0.1, 0.5);
        let e = metrics::energy(&inst, &sched, &model);
        let u = metrics::utilization(&inst, &sched);
        let thr = metrics::throughput(&inst, &sched);
        assert!(e > 0.0, "{} zero energy", s.name());
        assert!(
            (0.0..=1.0 + 1e-9).contains(&u),
            "{} utilization {u}",
            s.name()
        );
        assert!(thr > 0.0, "{} zero throughput", s.name());
        let price = vec![1.0; inst.network.node_count()];
        let cost = metrics::rental_cost(&inst, &sched, &price);
        // occupied spans sum is at most |V| * makespan and at least the
        // total busy time
        assert!(cost <= inst.network.node_count() as f64 * sched.makespan() + 1e-9);
    }
}

#[test]
fn serial_schedule_minimizes_idle_energy_among_singletons() {
    // FastestNode never idles its (single) busy node between tasks when
    // dependencies are local, so its utilization on that node is 1
    let mut rng = StdRng::seed_from_u64(0xE4);
    let gen = saga::datasets::by_name("chains").unwrap();
    let inst = gen.sample(&mut rng);
    let sched = saga::schedulers::FastestNode.schedule(&inst);
    let fast = inst.network.fastest_node();
    let busy: f64 = sched
        .node_tasks(fast)
        .iter()
        .map(|&t| {
            let a = sched.assignment(t);
            a.finish - a.start
        })
        .sum();
    assert!(
        (busy - sched.makespan()).abs() < 1e-9,
        "gaps in serial schedule"
    );
}

#[test]
fn ensemble_beats_members_on_family_instances() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    let e = saga::schedulers::Ensemble::default_portfolio();
    for _ in 0..20 {
        let a = saga::datasets::families::heft_weak_instance(&mut rng);
        let b = saga::datasets::families::cpop_weak_instance(&mut rng);
        for inst in [a, b] {
            let em = e.schedule(&inst).makespan();
            let h = saga::schedulers::Heft.schedule(&inst).makespan();
            let c = saga::schedulers::Cpop.schedule(&inst).makespan();
            assert!(em <= h.min(c) + 1e-9);
            e.schedule(&inst).verify(&inst).unwrap();
        }
    }
}

#[test]
fn historical_baselines_are_valid_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xE6);
    for gen in saga::datasets::all_generators() {
        let inst = gen.sample(&mut rng);
        for s in saga::schedulers::historical_schedulers() {
            s.schedule(&inst)
                .verify(&inst)
                .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", s.name(), gen.name));
        }
    }
}

#[test]
fn witness_library_round_trips_through_disk_format() {
    use saga::pisa::library::WitnessLibrary;
    use saga::pisa::{pairwise_matrix, PisaConfig};
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(saga::schedulers::Heft),
        Box::new(saga::schedulers::Cpop),
        Box::new(saga::schedulers::FastestNode),
    ];
    let m = pairwise_matrix(
        &schedulers,
        PisaConfig {
            i_max: 60,
            restarts: 1,
            seed: 0xE7,
            ..PisaConfig::default()
        },
    );
    let lib = WitnessLibrary::from_matrix(&m);
    assert_eq!(lib.records.len(), 6);
    let back = WitnessLibrary::from_jsonl(&lib.to_jsonl()).unwrap();
    assert_eq!(back.revalidate(), 0);
    // every record stays scorable: its instance decodes and its baseline
    // resolves, so a new scheduler can be run on it
    for r in &back.records {
        let inst = r.instance().unwrap();
        assert!(saga::schedulers::by_name(&r.baseline).is_some());
        saga::schedulers::MinMin
            .schedule(&inst)
            .verify(&inst)
            .unwrap();
    }
}

#[test]
fn metric_objectives_agree_with_direct_computation() {
    use saga::pisa::metric::Objective;
    let mut rng = StdRng::seed_from_u64(0xE8);
    let gen = saga::datasets::by_name("etl").unwrap();
    let inst: Instance = gen.sample(&mut rng);
    let heft = saga::schedulers::Heft.schedule(&inst);
    let obj = Objective::Energy {
        idle_fraction: 0.2,
        comm_energy_per_unit: 1.0,
    };
    let via_obj = obj.evaluate(&inst, &heft);
    let model = metrics::EnergyModel::speed_proportional(&inst, 0.2, 1.0);
    let direct = metrics::energy(&inst, &heft, &model);
    assert_eq!(via_obj, direct);
}
