//! The compute network `N = (V, E)` of the paper's Section II.
//!
//! A complete undirected graph: every node has a compute speed `s(v)` and
//! every unordered pair a communication strength `s(v, v')`. Under the
//! related-machines model a task `t` runs on `v` in `c(t) / s(v)` and an edge
//! `(t, t')` scheduled across `(v, v')` costs `c(t, t') / s(v, v')`.
//!
//! Self-links have infinite strength (communication on the same node is
//! free), and generators may also use infinite strengths to model shared
//! filesystems (the paper's Chameleon-derived networks).
//!
//! Every speed and link strength, through every constructor and setter,
//! passes one rule, [`weight`]: non-negative and not NaN, with `-0.0`
//! stored as `+0.0`. An explicit link matrix goes through one size and
//! symmetry check, [`Network::try_from_matrix`], whether it comes from a
//! generator ([`Network::from_matrix`], which panics on a bad matrix) or
//! from a decoded file (the [`Instance`](crate::Instance) decoder, which
//! returns the error).

use crate::{NetworkError, NodeId};

/// Side of the square tiles [`Network::try_from_matrix`] checks symmetry
/// in: a tile and its mirror are two 32 × 32 blocks of `f64`, 16 KiB
/// together, which stay in a 32 KiB L1 data cache.
const SYM_TILE: usize = 32;

/// The one rule for a network weight, a node speed or a link strength:
/// the value to store, or `None` for a negative or NaN weight. Zero and
/// infinity are legal. `-0.0` passes `>= 0.0` but divides into `-inf`,
/// which would give a negative execution or communication time, so it is
/// stored as `+0.0`, the zero it means, rather than refused: a file that
/// writes `-0` still decodes, to the instance it describes.
fn weight(x: f64) -> Option<f64> {
    // `-0.0 + 0.0` is `+0.0`; every other accepted value is unchanged
    (x >= 0.0).then_some(x + 0.0)
}

/// [`weight`] over every entry of `xs`, in place. A `+0.0`, positive or
/// `+inf` weight is stored unchanged, and these are exactly the bit
/// patterns up to `+inf`'s, so one integer compare per entry clears a
/// matrix of them in a loop that vectorizes: the IoT generators build a
/// matrix of up to 142² entries per instance, and the per-entry rule
/// alone made `fig2`'s instance generation a third slower.
fn weights(xs: &mut [f64]) -> Result<(), NetworkError> {
    let as_is = f64::INFINITY.to_bits();
    if xs.iter().fold(true, |ok, x| ok & (x.to_bits() <= as_is)) {
        return Ok(());
    }
    for x in xs {
        *x = weight(*x).ok_or(NetworkError::InvalidWeight { value: *x })?;
    }
    Ok(())
}

/// One walk over the off-diagonal entries of the `n x n` row-major link
/// matrix `links`, in row-major order: the mean of `1 / s(u, v)` over
/// ordered pairs `u != v` ([`Network::mean_inverse_link`]; 0 for `n <= 1`)
/// and the one strength every off-diagonal entry holds, if they all have
/// the same bits (`None` otherwise; `+inf` for `n <= 1`, which has no
/// links, so any strength describes it). The diagonal is never read.
///
/// The mean is the plain sequential sum of the per-entry inverses; an
/// entry with the bits of the one before it reuses that entry's inverse
/// instead of dividing again, which gives the same summands. So a run of
/// equal strengths (every row of a CCR-homogenized network, the tiers of
/// an IoT network) costs one division, and the first change of bits is
/// also where uniformity fails.
pub(crate) fn link_pass(links: &[f64], n: usize) -> (f64, Option<f64>) {
    if n <= 1 {
        return (0.0, Some(f64::INFINITY));
    }
    let inverse = |s: f64| {
        if s == 0.0 {
            f64::INFINITY
        } else if s.is_infinite() {
            0.0
        } else {
            1.0 / s
        }
    };
    let first = links[1];
    let (mut bits, mut inv) = (first.to_bits(), inverse(first));
    let mut uniform = true;
    let mut total = 0.0;
    for (i, row) in links[..n * n].chunks_exact(n).enumerate() {
        for &s in row[..i].iter().chain(&row[i + 1..]) {
            if s.to_bits() != bits {
                bits = s.to_bits();
                inv = inverse(s);
                uniform = false;
            }
            total += inv;
        }
    }
    (total / (n * (n - 1)) as f64, uniform.then_some(first))
}

/// A complete weighted network of compute nodes.
///
/// Link strengths are stored as a dense row-major `n x n` symmetric matrix;
/// zero speeds/strengths are legal and yield infinite times (the paper clips
/// perturbed weights at 0, which is how its `>1000` ratios arise).
#[derive(Debug)]
pub struct Network {
    speeds: Vec<f64>,
    links: Vec<f64>,
}

impl Network {
    /// Builds a network with the given node speeds and a uniform strength for
    /// every (non-self) link.
    ///
    /// # Panics
    /// Panics on a negative or NaN speed or strength (see [`weight`]).
    pub fn complete(speeds: &[f64], link_strength: f64) -> Self {
        let n = speeds.len();
        let mut links = vec![link_strength; n * n];
        for i in 0..n {
            links[i * n + i] = f64::INFINITY;
        }
        Self::try_from_matrix(speeds.to_vec(), links).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a network from node speeds and an explicit symmetric link
    /// matrix (row-major, `speeds.len()^2` entries). The diagonal is forced
    /// to infinity.
    ///
    /// # Panics
    /// Panics if the matrix has the wrong size, is not symmetric or holds
    /// an invalid weight (see [`Self::try_from_matrix`]).
    pub fn from_matrix(speeds: Vec<f64>, links: Vec<f64>) -> Self {
        Self::try_from_matrix(speeds, links).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::from_matrix`] for input that may be malformed: an error
    /// instead of a panic when the matrix does not hold `speeds.len()^2`
    /// entries, some off-diagonal entry differs (`!=`) from its mirror, or
    /// a speed or entry breaks the [`weight`] rule. The symmetry check
    /// walks the lower triangle in [`SYM_TILE`]-square tiles, so the
    /// mirrored reads of a tile stay in cache instead of striding down
    /// whole columns.
    pub fn try_from_matrix(
        mut speeds: Vec<f64>,
        mut links: Vec<f64>,
    ) -> Result<Self, NetworkError> {
        weights(&mut speeds)?;
        weights(&mut links)?;
        let n = speeds.len();
        if links.len() != n * n {
            return Err(NetworkError::WrongSize {
                nodes: n,
                entries: links.len(),
            });
        }
        for i0 in (0..n).step_by(SYM_TILE) {
            for j0 in (0..=i0).step_by(SYM_TILE) {
                for i in i0..(i0 + SYM_TILE).min(n) {
                    for j in j0..(j0 + SYM_TILE).min(i) {
                        if links[i * n + j] != links[j * n + i] {
                            return Err(NetworkError::Asymmetric { row: i, col: j });
                        }
                    }
                }
            }
        }
        for i in 0..n {
            links[i * n + i] = f64::INFINITY;
        }
        Ok(Network { speeds, links })
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.speeds.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.speeds.len() as u32).map(NodeId)
    }

    /// Compute speed `s(v)`.
    #[inline]
    pub fn speed(&self, v: NodeId) -> f64 {
        self.speeds[v.index()]
    }

    /// Sets the compute speed `s(v)`.
    ///
    /// # Panics
    /// Panics on a negative or NaN speed (see [`weight`]).
    pub fn set_speed(&mut self, v: NodeId, speed: f64) {
        let Some(speed) = weight(speed) else {
            panic!("speed must be >= 0, got {speed}")
        };
        self.speeds[v.index()] = speed;
    }

    /// Communication strength `s(u, v)`; infinite for `u == v`.
    #[inline]
    pub fn link(&self, u: NodeId, v: NodeId) -> f64 {
        self.links[u.index() * self.speeds.len() + v.index()]
    }

    /// Sets the (symmetric) communication strength between two distinct nodes.
    ///
    /// # Panics
    /// Panics on a self-link or a negative or NaN strength (see [`weight`]).
    pub fn set_link(&mut self, u: NodeId, v: NodeId, strength: f64) {
        assert!(u != v, "self-links are fixed at infinite strength");
        let Some(strength) = weight(strength) else {
            panic!("strength must be >= 0, got {strength}")
        };
        let n = self.speeds.len();
        self.links[u.index() * n + v.index()] = strength;
        self.links[v.index() * n + u.index()] = strength;
    }

    /// Execution time of a task with compute cost `cost` on node `v`:
    /// `c(t) / s(v)`. A zero-cost task takes zero time even on a zero-speed
    /// node (avoids `0/0 = NaN`).
    #[inline]
    pub fn exec_time(&self, cost: f64, v: NodeId) -> f64 {
        if cost == 0.0 {
            0.0
        } else {
            cost / self.speeds[v.index()]
        }
    }

    /// Communication time of `bytes` from node `u` to node `v`:
    /// `c(t, t') / s(u, v)`; zero if the endpoints coincide or no data moves.
    #[inline]
    pub fn comm_time(&self, bytes: f64, u: NodeId, v: NodeId) -> f64 {
        if u == v || bytes == 0.0 {
            0.0
        } else {
            bytes / self.link(u, v)
        }
    }

    /// The node with the greatest compute speed (lowest id on ties).
    pub fn fastest_node(&self) -> NodeId {
        let mut best = NodeId(0);
        for v in self.nodes() {
            if self.speed(v) > self.speed(best) {
                best = v;
            }
        }
        best
    }

    /// Mean of `1 / s(v)` over all nodes — the factor that converts a task
    /// cost into the paper's "average execution time over all nodes".
    pub fn mean_inverse_speed(&self) -> f64 {
        let n = self.speeds.len();
        if n == 0 {
            return 0.0;
        }
        self.speeds
            .iter()
            .map(|&s| if s == 0.0 { f64::INFINITY } else { 1.0 / s })
            .sum::<f64>()
            / n as f64
    }

    /// Mean of `1 / s(u, v)` over ordered pairs `u != v` — converts a data
    /// size into an average communication time. Returns 0 for a single-node
    /// network (all communication is local).
    pub fn mean_inverse_link(&self) -> f64 {
        link_pass(&self.links, self.speeds.len()).0
    }

    /// All node speeds as a slice.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The full link-strength matrix, row-major (`node_count()^2` entries,
    /// infinite diagonal). Used by the scheduling kernel to snapshot
    /// communication rates without per-query indirection.
    pub fn links(&self) -> &[f64] {
        &self.links
    }
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            speeds: self.speeds.clone(),
            links: self.links.clone(),
        }
    }

    /// Reuses the destination's buffers — annealing loops clone candidate
    /// instances every iteration, and this keeps them allocation-free after
    /// warm-up.
    fn clone_from(&mut self, source: &Self) {
        self.speeds.clear();
        self.speeds.extend_from_slice(&source.speeds);
        self.links.clear();
        self.links.extend_from_slice(&source.links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_network_has_infinite_self_links() {
        let n = Network::complete(&[1.0, 2.0, 3.0], 0.5);
        for v in n.nodes() {
            assert!(n.link(v, v).is_infinite());
        }
        assert_eq!(n.link(NodeId(0), NodeId(2)), 0.5);
        assert_eq!(n.node_count(), 3);
    }

    #[test]
    fn exec_and_comm_times_follow_related_machines_model() {
        let n = Network::complete(&[1.0, 2.0], 0.5);
        assert_eq!(n.exec_time(4.0, NodeId(0)), 4.0);
        assert_eq!(n.exec_time(4.0, NodeId(1)), 2.0);
        assert_eq!(n.comm_time(1.0, NodeId(0), NodeId(1)), 2.0);
        assert_eq!(n.comm_time(1.0, NodeId(0), NodeId(0)), 0.0);
        assert_eq!(n.comm_time(0.0, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn zero_speeds_yield_infinite_times_not_nan() {
        let n = Network::complete(&[0.0, 1.0], 0.0);
        assert!(n.exec_time(1.0, NodeId(0)).is_infinite());
        assert_eq!(n.exec_time(0.0, NodeId(0)), 0.0);
        assert!(n.comm_time(1.0, NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    fn set_link_is_symmetric() {
        let mut n = Network::complete(&[1.0, 1.0, 1.0], 1.0);
        n.set_link(NodeId(0), NodeId(2), 7.0);
        assert_eq!(n.link(NodeId(2), NodeId(0)), 7.0);
        assert_eq!(n.link(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn fastest_node_prefers_lowest_id_on_ties() {
        let n = Network::complete(&[2.0, 3.0, 3.0], 1.0);
        assert_eq!(n.fastest_node(), NodeId(1));
        let n = Network::complete(&[5.0, 5.0], 1.0);
        assert_eq!(n.fastest_node(), NodeId(0));
    }

    #[test]
    fn mean_inverse_speed_and_link() {
        let n = Network::complete(&[1.0, 2.0], 0.5);
        assert!((n.mean_inverse_speed() - 0.75).abs() < 1e-12);
        assert!((n.mean_inverse_link() - 2.0).abs() < 1e-12);
        // infinite links count as zero time (shared filesystem model)
        let m = Network::complete(&[1.0, 1.0], f64::INFINITY);
        assert_eq!(m.mean_inverse_link(), 0.0);
        // single-node network has no links
        assert_eq!(Network::complete(&[1.0], 1.0).mean_inverse_link(), 0.0);
    }

    /// The mean inverse link as a per-entry loop computed it before
    /// [`link_pass`]: one division per off-diagonal entry, summed in
    /// row-major order.
    fn mean_inverse_link_per_entry(links: &[f64], n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let s = links[i * n + j];
                    total += if s == 0.0 {
                        f64::INFINITY
                    } else if s.is_infinite() {
                        0.0
                    } else {
                        1.0 / s
                    };
                }
            }
        }
        total / (n * (n - 1)) as f64
    }

    #[test]
    fn link_pass_matches_the_per_entry_loop_on_runs_zeros_and_infinities() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x11AC);
        let palette = [0.0, f64::INFINITY, 0.3, 1.7, 1e-300, 0.1];
        for case in 0..400 {
            let n = 1 + case % 13;
            // runs: each entry repeats the one before it with probability
            // `stay`, else draws from the palette or at random
            let stay = [0.0, 0.5, 0.95][case % 3];
            let mut links = Vec::with_capacity(n * n);
            let mut cur = 1.0;
            for _ in 0..n * n {
                if !rng.gen_bool(stay) {
                    cur = if rng.gen_bool(0.5) {
                        palette[rng.gen_range(0..palette.len())]
                    } else {
                        rng.gen_range(0.0..4.0)
                    };
                }
                links.push(cur);
            }
            let (mean, uniform) = link_pass(&links, n);
            assert_eq!(
                mean.to_bits(),
                mean_inverse_link_per_entry(&links, n).to_bits(),
                "case {case}: {links:?}"
            );
            let off: Vec<u64> = (0..n * n)
                .filter(|k| k / n != k % n)
                .map(|k| links[k].to_bits())
                .collect();
            let all_same = off.windows(2).all(|w| w[0] == w[1]);
            assert_eq!(
                uniform.map(f64::to_bits),
                match off.first() {
                    None => Some(f64::INFINITY.to_bits()),
                    Some(&first) => all_same.then_some(first),
                },
                "case {case}: {links:?}"
            );
        }
    }

    #[test]
    fn link_pass_ignores_the_diagonal_and_sees_one_differing_link() {
        for n in 2..7 {
            for strength in [0.5, 0.0, f64::INFINITY] {
                let mut links = vec![strength; n * n];
                for i in 0..n {
                    // the diagonal holds anything: it is never read
                    links[i * n + i] = [7.0, f64::NAN, 0.0][i % 3];
                }
                let (_, uniform) = link_pass(&links, n);
                assert_eq!(uniform.map(f64::to_bits), Some(strength.to_bits()));
                for (i, j) in [(0, 1), (n - 1, 0), (n / 2, n - 1 - n / 2)] {
                    if i == j {
                        continue;
                    }
                    let mut one_off = links.clone();
                    one_off[i * n + j] = 0.25;
                    assert_eq!(link_pass(&one_off, n).1, None, "n {n}: ({i}, {j})");
                }
            }
        }
        // a single node has no links; two nodes have two, one pair
        assert_eq!(link_pass(&[f64::NAN], 1), (0.0, Some(f64::INFINITY)));
        let net = Network::complete(&[1.0, 2.0], 0.25);
        assert_eq!(link_pass(net.links(), 2), (4.0, Some(0.25)));
    }

    #[test]
    fn every_entry_point_stores_negative_zero_as_positive_zero() {
        let is_pos_zero = |x: f64| x.to_bits() == 0;
        let mut net = Network::complete(&[-0.0, 1.0], -0.0);
        assert!(is_pos_zero(net.speed(NodeId(0))));
        assert!(is_pos_zero(net.link(NodeId(0), NodeId(1))));
        net.set_speed(NodeId(1), -0.0);
        net.set_link(NodeId(1), NodeId(0), -0.0);
        assert!(is_pos_zero(net.speed(NodeId(1))));
        assert!(is_pos_zero(net.link(NodeId(0), NodeId(1))));
        let net = Network::try_from_matrix(vec![-0.0, 2.0], vec![-0.0, -0.0, -0.0, -0.0]).unwrap();
        assert!(is_pos_zero(net.speed(NodeId(0))));
        assert!(is_pos_zero(net.link(NodeId(1), NodeId(0))));
        // so no time comes out negative
        assert_eq!(net.exec_time(1.0, NodeId(0)), f64::INFINITY);
        assert_eq!(net.comm_time(1.0, NodeId(0), NodeId(1)), f64::INFINITY);
    }

    #[test]
    fn every_entry_point_refuses_negative_and_nan_weights() {
        for bad in [-1.0, -f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN] {
            let refused =
                |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
            assert!(refused(&|| drop(Network::complete(&[1.0, bad], 1.0))));
            assert!(refused(&|| drop(Network::complete(&[1.0, 1.0], bad))));
            let net = Network::complete(&[1.0, 1.0], 1.0);
            assert!(refused(&|| net.clone().set_speed(NodeId(0), bad)));
            assert!(refused(&|| net.clone().set_link(NodeId(0), NodeId(1), bad)));
            assert!(matches!(
                Network::try_from_matrix(vec![bad, 1.0], vec![0.0; 4]),
                Err(NetworkError::InvalidWeight { .. })
            ));
            assert!(matches!(
                Network::try_from_matrix(vec![1.0, 1.0], vec![0.0, bad, bad, 0.0]),
                Err(NetworkError::InvalidWeight { .. })
            ));
        }
    }

    #[test]
    fn from_matrix_validates_symmetry() {
        let n = Network::from_matrix(vec![1.0, 2.0], vec![0.0, 3.0, 3.0, 0.0]);
        assert_eq!(n.link(NodeId(0), NodeId(1)), 3.0);
        assert!(n.link(NodeId(0), NodeId(0)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_rejects_asymmetry() {
        Network::from_matrix(vec![1.0, 2.0], vec![0.0, 3.0, 4.0, 0.0]);
    }

    /// A 40-node matrix whose one asymmetric entry, (33, 17), lies just
    /// past the first tile edge of the symmetry check.
    fn asymmetric_past_a_tile_edge() -> (Vec<f64>, Vec<f64>) {
        let n = 40;
        let mut links = vec![1.0; n * n];
        links[33 * n + 17] = 2.0;
        (vec![1.0; n], links)
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_rejects_asymmetry_past_a_tile_edge() {
        let (speeds, links) = asymmetric_past_a_tile_edge();
        Network::from_matrix(speeds, links);
    }

    #[test]
    fn try_from_matrix_names_the_asymmetric_entry_and_the_wrong_size() {
        let (speeds, links) = asymmetric_past_a_tile_edge();
        assert_eq!(
            Network::try_from_matrix(speeds, links).err(),
            Some(NetworkError::Asymmetric { row: 33, col: 17 })
        );
        assert_eq!(
            Network::try_from_matrix(vec![1.0, 2.0], vec![0.0; 3]).err(),
            Some(NetworkError::WrongSize {
                nodes: 2,
                entries: 3
            })
        );
        // a symmetric matrix of several tiles passes, diagonal forced
        let n = 70;
        let mut links = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                links[i * n + j] = (i + j) as f64;
            }
        }
        let net = Network::try_from_matrix(vec![1.0; n], links).unwrap();
        assert!(net.link(NodeId(65), NodeId(65)).is_infinite());
        assert_eq!(net.link(NodeId(65), NodeId(3)), 68.0);
    }
}
