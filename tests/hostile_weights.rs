//! Hostile weights through every public entry point of the model.
//!
//! Each case draws one small instance, 1–4 tasks on 1–3 nodes (small
//! enough for BruteForce and BnB), whose weights come from the values the
//! weight rules must handle: `0`, `-0.0`, `+∞`, subnormals, `f64::MAX`,
//! task and message sizes that overflow to `+∞` when divided by a slow
//! speed or link, and values that no rule accepts (negative, NaN, `-∞`,
//! and `+∞` as a cost). The same drawn weights then go in three ways:
//!
//! 1. the mutators: `Network::complete` with a placeholder, then
//!    `set_speed` and `set_link`; `try_add_task` with a placeholder cost,
//!    then `set_cost`; `add_dependency` with a placeholder size, then
//!    `set_dependency_cost`. (A second form passes the drawn speeds to
//!    `Network::complete` directly.)
//! 2. the constructors: `Network::try_from_matrix`, `try_add_task` and
//!    `add_dependency` with the drawn values;
//! 3. the decoder: `Instance::from_json` on text that spells each value
//!    the way a hand-written file could (`-0`, `5e-324`, `1e999`, `null`).
//!
//! All three must refuse the instance together (with an error, or with
//! the documented panic of `Network::complete`, `set_speed` and
//! `set_link`), or accept it together with the same weight bits. An
//! accepted instance must then get, from every scheduler in
//! `saga::schedulers::by_name`, a schedule that `Schedule::verify`
//! accepts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, TaskGraph, TaskId};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every name `by_name` resolves: the paper's 15, the two exact solvers
/// and the three historical baselines.
const ROSTER: [&str; 20] = [
    "BIL",
    "CPoP",
    "Duplex",
    "ETF",
    "FCP",
    "FLB",
    "FastestNode",
    "GDL",
    "HEFT",
    "MCT",
    "MET",
    "MaxMin",
    "MinMin",
    "OLB",
    "WBA",
    "BruteForce",
    "BnB",
    "ERT",
    "LMT",
    "MH",
];

/// The smallest subnormal.
const TINY: f64 = 5e-324;

/// Node speeds and link strengths the network rule accepts: zero of both
/// signs, infinity, subnormals, the extremes, and ordinary values.
const NET_OK: [f64; 9] = [
    0.0,
    -0.0,
    f64::INFINITY,
    TINY,
    f64::MIN_POSITIVE,
    f64::MAX,
    1.0,
    0.5,
    1e-300,
];

/// Task costs and message sizes the cost rule accepts: `f64::MAX`
/// divides to `+∞` by a speed or link of `0.5`, `1e300` by one of `TINY`
/// or `1e-300`, and two `f64::MAX` durations in sequence sum to `+∞`.
const COST_OK: [f64; 7] = [0.0, -0.0, TINY, f64::MAX, 1e300, 1.0, 0.5];

/// Values no rule accepts; `+∞` is refused only as a cost.
const BAD: [f64; 4] = [f64::NAN, -1.0, f64::NEG_INFINITY, -TINY];

/// One drawn instance, before any entry point has seen it.
struct Draw {
    speeds: Vec<f64>,
    /// Row-major `n x n`, symmetric, `+∞` on the diagonal.
    links: Vec<f64>,
    costs: Vec<f64>,
    /// `(from, to, size)` with `from < to`, each pair once.
    deps: Vec<(u32, u32, f64)>,
}

/// `ok[..]` mostly, a value from [`BAD`] (or `+∞`, for a cost) now and
/// then.
fn pick(rng: &mut StdRng, ok: &[f64], bad_odds: f64, cost: bool) -> f64 {
    if rng.gen_bool(bad_odds) {
        if cost && rng.gen_bool(0.25) {
            f64::INFINITY
        } else {
            BAD[rng.gen_range(0..BAD.len())]
        }
    } else {
        ok[rng.gen_range(0..ok.len())]
    }
}

fn draw(rng: &mut StdRng) -> Draw {
    let n = rng.gen_range(1..=3usize);
    let tasks = rng.gen_range(1..=4usize);
    // a third of the draws carry no invalid value at all, so most
    // instances get through to the schedulers
    let bad_odds = if rng.gen_bool(0.33) { 0.0 } else { 0.08 };
    let speeds = (0..n)
        .map(|_| pick(rng, &NET_OK, bad_odds, false))
        .collect();
    let mut links = vec![f64::INFINITY; n * n];
    let uniform = rng.gen_bool(0.5);
    let first = pick(rng, &NET_OK, bad_odds, false);
    for u in 0..n {
        for v in (u + 1)..n {
            let s = if uniform {
                first
            } else {
                pick(rng, &NET_OK, bad_odds, false)
            };
            links[u * n + v] = s;
            links[v * n + u] = s;
        }
    }
    let costs = (0..tasks)
        .map(|_| pick(rng, &COST_OK, bad_odds, true))
        .collect();
    let mut deps = Vec::new();
    for a in 0..tasks as u32 {
        for b in (a + 1)..tasks as u32 {
            if rng.gen_bool(0.5) {
                deps.push((a, b, pick(rng, &COST_OK, bad_odds, true)));
            }
        }
    }
    Draw {
        speeds,
        links,
        costs,
        deps,
    }
}

/// The value `x` written as JSON text, in one of the spellings a file
/// could use; NaN, which JSON cannot spell as a number, as a string.
fn spell(x: f64, rng: &mut StdRng) -> String {
    if x.is_nan() {
        // a string where a number belongs: a type error
        return "\"NaN\"".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "1e999" } else { "-1e999" }.to_string();
    }
    if x == 0.0 && x.is_sign_negative() && rng.gen_bool(0.5) {
        return "-0".to_string();
    }
    if x == TINY && rng.gen_bool(0.5) {
        return "4.9406564584124654e-324".to_string();
    }
    format!("{x:?}")
}

fn json(d: &Draw, rng: &mut StdRng) -> String {
    let mut s = String::from("{\"speeds\":[");
    for (i, &x) in d.speeds.iter().enumerate() {
        let _ = write!(s, "{}{}", if i > 0 { "," } else { "" }, spell(x, rng));
    }
    s.push_str("],\"links\":[");
    for (i, &x) in d.links.iter().enumerate() {
        let v = if x == f64::INFINITY && rng.gen_bool(0.8) {
            "null".to_string()
        } else {
            spell(x, rng)
        };
        let _ = write!(s, "{}{v}", if i > 0 { "," } else { "" });
    }
    s.push_str("],\"tasks\":[");
    for (i, &c) in d.costs.iter().enumerate() {
        let _ = write!(
            s,
            "{}[\"t{i}\",{}]",
            if i > 0 { "," } else { "" },
            spell(c, rng)
        );
    }
    s.push_str("],\"deps\":[");
    for (i, &(a, b, c)) in d.deps.iter().enumerate() {
        let _ = write!(
            s,
            "{}[{a},{b},{}]",
            if i > 0 { "," } else { "" },
            spell(c, rng)
        );
    }
    s.push_str("]}");
    s
}

/// Path 1: the mutators, after placeholders. `Err` for a refusal, by
/// error or by the mutators' documented panic on an invalid network
/// weight.
fn through_mutators(d: &Draw, speeds_direct: bool) -> Result<Instance, String> {
    let n = d.speeds.len();
    let network = catch_unwind(AssertUnwindSafe(|| {
        let mut net = if speeds_direct {
            Network::complete(&d.speeds, 1.0)
        } else {
            let mut net = Network::complete(&vec![1.0; n], 1.0);
            for (v, &s) in d.speeds.iter().enumerate() {
                net.set_speed(NodeId(v as u32), s);
            }
            net
        };
        for u in 0..n {
            for v in (u + 1)..n {
                net.set_link(NodeId(u as u32), NodeId(v as u32), d.links[u * n + v]);
            }
        }
        net
    }))
    .map_err(|_| "network mutator panicked".to_string())?;
    let mut g = TaskGraph::new();
    for (i, &c) in d.costs.iter().enumerate() {
        let t = g.try_add_task(format!("t{i}"), 1.0).unwrap();
        g.set_cost(t, c).map_err(|e| e.to_string())?;
    }
    for &(a, b, c) in &d.deps {
        g.add_dependency(TaskId(a), TaskId(b), 1.0).unwrap();
        g.set_dependency_cost(TaskId(a), TaskId(b), c)
            .map_err(|e| e.to_string())?;
    }
    Ok(Instance::new(network, g))
}

/// Path 2: the fallible constructors with the drawn values.
fn through_constructors(d: &Draw) -> Result<Instance, String> {
    let network =
        Network::try_from_matrix(d.speeds.clone(), d.links.clone()).map_err(|e| e.to_string())?;
    let mut g = TaskGraph::new();
    for (i, &c) in d.costs.iter().enumerate() {
        g.try_add_task(format!("t{i}"), c)
            .map_err(|e| e.to_string())?;
    }
    for &(a, b, c) in &d.deps {
        g.add_dependency(TaskId(a), TaskId(b), c)
            .map_err(|e| e.to_string())?;
    }
    Ok(Instance::new(network, g))
}

/// The bits of an instance's speeds, links, task costs and dependencies.
type Bits = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<(u32, u32, u64)>);

/// The weight bits an instance holds, for comparing the three paths.
fn bits(inst: &Instance) -> Bits {
    let g = &inst.graph;
    let mut deps: Vec<_> = g
        .dependencies()
        .map(|(a, b, c)| (a.0, b.0, c.to_bits()))
        .collect();
    deps.sort_unstable();
    (
        inst.network.speeds().iter().map(|x| x.to_bits()).collect(),
        inst.network.links().iter().map(|x| x.to_bits()).collect(),
        g.tasks().map(|t| g.cost(t).to_bits()).collect(),
        deps,
    )
}

#[test]
fn hostile_weights_are_refused_or_schedule_validly() {
    let mut rng = StdRng::seed_from_u64(0x4057);
    let (mut accepted, mut refused, mut infinite) = (0, 0, 0);
    let mut failures = Vec::new();
    for case in 0..600 {
        let d = draw(&mut rng);
        let text = json(&d, &mut rng);
        let paths = [
            through_mutators(&d, case % 2 == 0),
            through_constructors(&d),
            Instance::from_json(&text).map_err(|e| e.to_string()),
        ];
        let label = format!(
            "case {case}: speeds {:?} links {:?} costs {:?} deps {:?}",
            d.speeds, d.links, d.costs, d.deps
        );
        let verdicts: Vec<bool> = paths.iter().map(Result::is_ok).collect();
        assert!(
            verdicts.iter().all(|&ok| ok == verdicts[0]),
            "{label}: the entry points disagree on refusal: {:?}",
            paths.iter().map(|p| p.as_ref().err()).collect::<Vec<_>>()
        );
        let [Ok(inst), Ok(b), Ok(c)] = paths else {
            refused += 1;
            continue;
        };
        assert_eq!(
            bits(&inst),
            bits(&b),
            "{label}: constructors stored other bits"
        );
        assert_eq!(bits(&inst), bits(&c), "{label}: decoder stored other bits");
        // no stored weight is negative, `-0.0` included, so no time can be
        let g = &inst.graph;
        let weights = inst.network.speeds().iter().chain(inst.network.links());
        let costs = g.tasks().map(|t| g.cost(t));
        let sizes = g.dependencies().map(|(_, _, c)| c);
        assert!(
            weights
                .copied()
                .chain(costs)
                .chain(sizes)
                .all(f64::is_sign_positive),
            "{label}: a negative weight was stored"
        );
        accepted += 1;
        for name in ROSTER {
            let scheduler = saga::schedulers::by_name(name).expect("roster name");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let s = scheduler.schedule(&inst);
                s.verify(&inst).map(|()| s.makespan())
            }));
            match outcome {
                Ok(Ok(m)) => infinite += usize::from(m.is_infinite()),
                Ok(Err(e)) => failures.push(format!("{name} on {label}: {e}")),
                Err(_) => failures.push(format!("{name} on {label}: panicked")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failures: {failures:#?}",
        failures.len()
    );
    // the draw keeps every outcome in play
    assert!(
        accepted >= 200 && refused >= 100,
        "{accepted} accepted, {refused} refused"
    );
    assert!(infinite >= 100, "only {infinite} infinite makespans");
}
