//! `pisa_bench diff <parent runs…> -- <change runs…>`: compares two sets of
//! runs metric by metric and workload by workload.
//!
//! Each argument is a file holding one run's standard output (one or more
//! workloads). Run `i` of the parent pairs with run `i` of the change.
//! Bounds and directions come from `BENCHMARK.json` in the working
//! directory. The verdict follows the repository's measurement rule:
//!
//! * `win`: the change is better in at least 9 of every 10 pairs and the
//!   medians differ by more than the parent's interquartile range;
//! * `unresolved`: either side's spread is wider than the bound, unless
//!   every change run is better than every parent run;
//! * `loss`: the change's median is worse than the parent's by more than
//!   the bound;
//! * `parity`: none of these.

use crate::report::{read_runs, ReadBack};
use crate::stats::{iqr, median, quantile};
use serde_json::Value;
use std::collections::BTreeMap;

/// A metric's regression bound and direction.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Whether lower values are better.
    pub lower_is_better: bool,
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Win,
    /// Within the bound.
    Parity,
    /// Worse beyond the bound.
    Loss,
    /// Noisier than the bound.
    Unresolved,
}

/// Applies the verdict rule to paired samples.
pub fn verdict(parent: &[f64], change: &[f64], b: Bound) -> Verdict {
    // positive = the change is better
    let better = |p: f64, c: f64| if b.lower_is_better { p - c } else { c - p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(p, c) > 0.0)
        .count();
    let (pm, cm) = (median(parent), median(change));
    let gap = better(pm, cm);
    if pairs > 0 && wins * 10 >= pairs * 9 && gap > iqr(parent) {
        return Verdict::Win;
    }
    let spread = (iqr(parent) / pm.abs()).max(iqr(change) / cm.abs());
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better(p, c) > 0.0));
    if spread > b.bound && !all_better {
        Verdict::Unresolved
    } else if -gap > b.bound * pm.abs() {
        Verdict::Loss
    } else {
        Verdict::Parity
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            let better = m.get("better").and_then(Value::as_str);
            match (name, bound, better) {
                (Some(n), Some(bound), Some(better)) => Ok((
                    n.to_string(),
                    Bound {
                        bound,
                        lower_is_better: better == "lower",
                    },
                )),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Samples per `(workload, metric)`, in run order, plus failed checks per
/// workload.
type Samples = (BTreeMap<(String, String), Vec<f64>>, BTreeMap<String, u64>);

fn collect(files: &[String]) -> Result<Samples, String> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let runs = read_runs(&text).map_err(|e| format!("{file}: {e}"))?;
        if runs.is_empty() {
            return Err(format!("{file}: no pisa_bench result in it"));
        }
        for ReadBack {
            workload,
            failed: f,
            metrics,
            ..
        } in runs
        {
            *failed.entry(workload.clone()).or_default() += f;
            for (name, value) in metrics {
                samples
                    .entry((workload.clone(), name))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok((samples, failed))
}

/// The `diff` subcommand.
pub fn run(args: &[String]) -> Result<(), String> {
    let usage = "usage: pisa_bench diff <parent run files…> -- <change run files…>";
    let split = args.iter().position(|a| a == "--").ok_or(usage)?;
    let (parent, change) = (&args[..split], &args[split + 1..]);
    if parent.is_empty() || change.is_empty() {
        return Err(usage.into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = read_bounds(&text)?;
    let (p, p_failed) = collect(parent)?;
    let (c, c_failed) = collect(change)?;

    println!(
        "{:<8} {:<36} {:>3} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "n", "parent median [q1, q3]", "change median [q1, q3]", "ratio"
    );
    let summary = |xs: &[f64]| {
        format!(
            "{:.4} [{:.4}, {:.4}]",
            median(xs),
            quantile(xs, 0.25),
            quantile(xs, 0.75)
        )
    };
    for ((workload, metric), ps) in &p {
        let Some(cs) = c.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = match bounds.get(metric) {
            Some(b) => format!("{:?}", verdict(ps, cs, *b)).to_lowercase(),
            None => "-".into(),
        };
        println!(
            "{:<8} {:<36} {:>3} {:>30} {:>30} {:>8.4}  {verdict}",
            workload,
            metric,
            ps.len().min(cs.len()),
            summary(ps),
            summary(cs),
            median(cs) / median(ps),
        );
    }
    for (workload, &f) in &c_failed {
        let before = p_failed.get(workload).copied().unwrap_or(0);
        let verdict = if f > before { "loss" } else { "parity" };
        println!(
            "{workload:<8} {:<36} failed checks {before} -> {f}  {verdict}",
            "checks"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIGHER: Bound = Bound {
        bound: 0.05,
        lower_is_better: false,
    };
    const LOWER: Bound = Bound {
        bound: 0.05,
        lower_is_better: true,
    };

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn same_distribution_is_parity() {
        let p = around(100.0, 1.0);
        let mut c = p.clone();
        c.reverse();
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Parity);
        assert_eq!(verdict(&p, &c, LOWER), Verdict::Parity);
    }

    #[test]
    fn clear_gain_is_a_win_in_the_metrics_direction() {
        let p = around(100.0, 1.0);
        let c = around(110.0, 1.0);
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Win);
        // the same numbers are a 10% loss for a lower-is-better metric
        assert_eq!(verdict(&p, &c, LOWER), Verdict::Loss);
        assert_eq!(verdict(&c, &p, LOWER), Verdict::Win);
    }

    #[test]
    fn a_win_needs_nine_of_ten_pairs() {
        let p = around(100.0, 1.0);
        let mut c: Vec<f64> = p.iter().map(|x| x + 3.0).collect();
        c[0] = p[0] - 1.0;
        c[1] = p[1] - 1.0;
        // 8/10 pairs won: not a win, and within the bound
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Parity);
        c[1] = p[1] + 3.0;
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Win);
    }

    #[test]
    fn a_win_needs_a_gap_wider_than_the_parent_iqr() {
        // every pair won, but by less than the parent's own spread
        let p = around(100.0, 2.0);
        let c: Vec<f64> = p.iter().map(|x| x + 0.5).collect();
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Parity);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let p = around(100.0, 20.0);
        let c = around(99.0, 20.0);
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Unresolved);
        // unless every change run beats every parent run
        let c = around(200.0, 20.0);
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::Win);
    }

    #[test]
    fn bounds_are_read_from_benchmark_json() {
        let text = r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;
        let b = read_bounds(text).unwrap();
        assert_eq!(b["setup_s"].bound, 0.25);
        assert!(b["setup_s"].lower_is_better);
        assert!(read_bounds("{}").is_err());
    }
}
