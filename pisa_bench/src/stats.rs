//! Order statistics, result digests, machine speed and process memory.

use saga_pisa::{PisaResult, SearchCell};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The `q`-quantile of `xs` by the "exclusive" rule of Python's
/// `statistics.quantiles` (position `q * (n + 1)`, linear interpolation,
/// clamped to the sample range), so the benchmark's quartiles read the
/// same as any script that checks them. `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (q * (s.len() + 1) as f64).clamp(1.0, s.len() as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if lo == s.len() {
        return s[lo - 1];
    }
    s[lo - 1] + (s[lo] - s[lo - 1]) * frac
}

/// The sample median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Distance between the first and third quartiles.
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

/// Bytes a result digest covers, hashed once with the repository's
/// FNV-1a (`saga_core::fnv1a`).
#[derive(Default)]
pub struct DigestInput(Vec<u8>);

impl DigestInput {
    /// Adds one annealing cell: key, ratio bits, initial-ratio bits,
    /// evaluation count and the witness instance's JSON.
    pub fn cell(&mut self, cell: &SearchCell, res: &PisaResult) {
        self.0.extend_from_slice(cell.key().as_bytes());
        self.0.extend_from_slice(&res.ratio.to_bits().to_le_bytes());
        self.0
            .extend_from_slice(&res.initial_ratio.to_bits().to_le_bytes());
        self.0
            .extend_from_slice(&(res.evaluations as u64).to_le_bytes());
        self.0.extend_from_slice(res.instance.to_json().as_bytes());
    }

    /// Adds one keyed makespan row.
    pub fn row(&mut self, key: &str, row: &[f64]) {
        self.0.extend_from_slice(key.as_bytes());
        for m in row {
            self.0.extend_from_slice(&m.to_bits().to_le_bytes());
        }
    }

    /// The digest of everything added.
    pub fn finish(&self) -> u64 {
        saga_core::fnv1a(&self.0)
    }
}

/// Wall seconds one reference round takes on the nominal machine.
const REFERENCE_NOMINAL_S: f64 = 0.004;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A task graph of the reference round: successors, predecessors with the
/// cost of the edge from each, and task costs.
struct RefGraph {
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<(usize, f64)>>,
    cost: Vec<f64>,
}

/// 64 random graphs of 4–12 tasks, built once from a fixed seed. Edges
/// run from lower to higher task index, so each graph is acyclic and
/// index order is a topological order.
fn reference_graphs() -> &'static [RefGraph] {
    static GRAPHS: OnceLock<Vec<RefGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        (0..64)
            .map(|_| {
                let n = 4 + (xorshift(&mut x) % 9) as usize;
                let mut g = RefGraph {
                    succ: vec![Vec::new(); n],
                    pred: vec![Vec::new(); n],
                    cost: Vec::new(),
                };
                for (i, j) in (1..n).flat_map(|j| (0..j).map(move |i| (i, j))) {
                    if xorshift(&mut x).is_multiple_of(3) {
                        g.succ[i].push(j);
                        g.pred[j].push((i, (xorshift(&mut x) % 100) as f64 * 0.01));
                    }
                }
                g.cost = (0..n)
                    .map(|_| 0.1 + (xorshift(&mut x) % 100) as f64 * 0.01)
                    .collect();
                g
            })
            .collect()
    })
}

/// Makespan of a list schedule of `g` with task costs `cost` on four
/// nodes of speeds 1, 1.5, 0.7 and 2: tasks by decreasing upward rank,
/// each on the node where it finishes first.
fn reference_schedule(g: &RefGraph, cost: &[f64]) -> f64 {
    const SPEEDS: [f64; 4] = [1.0, 1.5, 0.7, 2.0];
    let n = cost.len();
    let mut rank = vec![0.0f64; n];
    for i in (0..n).rev() {
        let below = g.succ[i].iter().map(|&s| rank[s]).fold(0.0, f64::max);
        rank[i] = cost[i] + below;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].total_cmp(&rank[a]).then(a.cmp(&b)));
    let mut free = [0.0f64; 4];
    let mut finish = vec![0.0f64; n];
    let mut node = vec![0usize; n];
    for &t in &order {
        let mut best = (f64::INFINITY, 0);
        for (v, speed) in SPEEDS.iter().enumerate() {
            let mut ready = free[v];
            for &(p, c) in &g.pred[t] {
                ready = ready.max(finish[p] + if node[p] == v { 0.0 } else { c });
            }
            let f = ready + cost[t] / speed;
            if f < best.0 {
                best = (f, v);
            }
        }
        (finish[t], node[t]) = best;
        free[best.1] = best.0;
    }
    finish.iter().copied().fold(0.0, f64::max)
}

/// A fixed round of work that shares no code with the repository, so no
/// change to the repository can change its speed, but that is made of the
/// same kinds of work: list schedules of small task graphs with one task
/// cost perturbed each time (small allocations, sorting, branchy loops
/// over short vectors), then records formatted as JSON text and parsed
/// back (allocation, formatting, string scanning). Reference rounds of
/// other kinds (an arithmetic loop, pointer chases through level-2 to
/// memory-sized cycles) tracked the workloads' slowdowns less closely.
fn reference_work(seed: u64) -> f64 {
    let mut x = seed | 1;
    let graphs = reference_graphs();
    let mut acc = 0.0;
    for i in 0..3000 {
        let g = &graphs[i % graphs.len()];
        let mut cost = g.cost.clone();
        let t = (xorshift(&mut x) % cost.len() as u64) as usize;
        cost[t] *= 1.0 + (x >> 40) as f64 * 1e-8;
        acc += reference_schedule(g, &cost);
    }
    for _ in 0..150 {
        let mut text = String::new();
        for _ in 0..16 {
            let r = xorshift(&mut x);
            text.push_str(&format!(
                "{{\"key\":\"c{}\",\"ratio\":{}}},",
                r % 1000,
                (r >> 11) as f64 * 1e-12
            ));
        }
        for record in text.split(',') {
            if let Some(v) = record.split("\"ratio\":").nth(1) {
                acc += v.trim_end_matches('}').parse::<f64>().unwrap_or(0.0);
            }
        }
    }
    acc
}

/// Reference rounds per speed reading; the reading is their median, so a
/// round that loses its processor part-way does not skew it.
const REFERENCE_ROUNDS: usize = 3;

/// How fast the machine runs now, relative to the nominal machine: the
/// nominal time of a reference round over its wall time, as the median of
/// [`REFERENCE_ROUNDS`] rounds. A round runs on `threads` threads at once
/// and ends when the last of them is done, as a rep of the engine does. A
/// wall time times this factor is the time the nominal machine would have
/// taken.
///
/// On a shared host, other tenants can slow a machine down by a third or
/// more for seconds to minutes at a time; timing reference rounds right
/// before each measured interval and scaling by them removes most of that
/// from the timed metrics (README.md gives the spreads with and without).
pub fn speed(threads: usize) -> f64 {
    reference_graphs(); // built before the first timed round
    let round = || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 1..threads {
                s.spawn(move || black_box(reference_work(black_box(t as u64))));
            }
            black_box(reference_work(black_box(0)));
        });
        t0.elapsed().as_secs_f64()
    };
    let speeds: Vec<f64> = (0..REFERENCE_ROUNDS)
        .map(|_| REFERENCE_NOMINAL_S / round())
        .collect();
    median(&speeds)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 2.75);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(quantile(&xs, 0.75), 8.25);
        assert_eq!(iqr(&xs), 5.5);
        // order does not matter; positions clamp to the sample range
        let ys = [3.0, 1.0, 2.0];
        assert_eq!(median(&ys), 2.0);
        assert_eq!(quantile(&ys, 0.01), 1.0);
        assert_eq!(quantile(&ys, 0.99), 3.0);
        // statistics.quantiles([1, 2, 3, 4], n=5)[3] == 4.0 (the p80)
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.8), 4.0);
        assert_eq!(quantile(&[7.0], 0.8), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reference_schedules_respect_dependencies() {
        // a chain of three unit tasks with free edges runs back to back on
        // the fastest node
        let g = RefGraph {
            succ: vec![vec![1], vec![2], vec![]],
            pred: vec![vec![], vec![(0, 0.0)], vec![(1, 0.0)]],
            cost: vec![1.0; 3],
        };
        assert_eq!(reference_schedule(&g, &g.cost), 1.5);
        for g in reference_graphs() {
            let total: f64 = g.cost.iter().sum();
            let m = reference_schedule(g, &g.cost);
            // no faster than all four nodes busy all the time
            assert!(m.is_finite() && m >= total / 5.2, "makespan {m}");
        }
        assert_eq!(reference_work(3).to_bits(), reference_work(3).to_bits());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
