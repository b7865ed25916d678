//! The PISA perturbation operators.
//!
//! Section VI defines six equal-probability perturbations over `(N, G)`:
//! nudge a network node weight, a network edge weight, a task weight, or a
//! dependency weight by `U(-1/10, +1/10)` clipped into `[0, 1]`; add a
//! random acyclic dependency; or remove a random dependency. Section VII
//! re-scales the weight nudges to the ranges observed in real execution
//! traces and removes the structural and network-edge operators so the
//! search stays within rigid, application-shaped instances.

use rand::rngs::StdRng;
use rand::Rng;
use saga_core::{Instance, NodeId, TaskId};

/// A mutation strategy over problem instances.
pub trait Perturber: Send + Sync {
    /// Mutates `inst` in place using `rng` and returns the record
    /// [`PerturbUndo::revert`] restores `inst` from, bitwise: the annealer
    /// mutates its current instance in place and undoes a rejected step.
    /// The result must be `Some`; the annealer and the ablation searches
    /// panic on `None`.
    fn perturb_undoable(&self, inst: &mut Instance, rng: &mut StdRng) -> Option<PerturbUndo>;

    /// Mutates `inst` in place using `rng`, dropping the undo record.
    fn perturb(&self, inst: &mut Instance, rng: &mut StdRng) {
        self.perturb_undoable(inst, rng);
    }
}

/// A reversible record of one applied perturbation (see
/// [`Perturber::perturb_undoable`]). Reverting restores the instance
/// *bitwise*, including adjacency-list order.
#[derive(Debug, Clone, Copy)]
pub enum PerturbUndo {
    /// No operator was applicable; the instance is unchanged.
    Nothing,
    /// A node speed was nudged; holds the node and its previous speed.
    NodeWeight(NodeId, f64),
    /// A link strength was nudged; holds the endpoints and previous value.
    EdgeWeight(NodeId, NodeId, f64),
    /// A task cost was nudged; holds the task and its previous cost.
    TaskWeight(TaskId, f64),
    /// A dependency size was nudged; holds the edge and its previous size.
    DepWeight(TaskId, TaskId, f64),
    /// A dependency was added (it is the newest edge of both lists).
    AddDep(TaskId, TaskId),
    /// A dependency was removed; holds everything needed to restore it at
    /// its exact prior adjacency positions.
    RemoveDep {
        /// Source task of the removed edge.
        from: TaskId,
        /// Destination task of the removed edge.
        to: TaskId,
        /// Data size of the removed edge.
        cost: f64,
        /// Position the edge occupied in `from`'s successor list.
        succ_pos: usize,
        /// Position the edge occupied in `to`'s predecessor list.
        pred_pos: usize,
    },
}

impl PerturbUndo {
    /// The [`DirtyRegion`](saga_core::DirtyRegion) this perturbation, or
    /// its [`revert`](Self::revert), leaves behind: what an incremental
    /// re-evaluation must treat as changed. Task- and dependency-weight
    /// edits are local (a task's execution row, or a dependency's
    /// destination), and a node-weight edit names the one execution column
    /// to refresh. Link-weight and structural edits give a full region:
    /// only searches from 3–5-task starting instances make them, and there
    /// a full rebuild costs no more than a targeted refresh.
    pub fn dirty_region(&self) -> saga_core::DirtyRegion {
        use saga_core::DirtyRegion;
        match *self {
            PerturbUndo::Nothing => DirtyRegion::clean(),
            PerturbUndo::NodeWeight(v, _) => DirtyRegion::node_weight(v),
            PerturbUndo::EdgeWeight(..) => DirtyRegion::full(),
            PerturbUndo::TaskWeight(t, _) => DirtyRegion::task_weight(t),
            PerturbUndo::DepWeight(a, b, _) => DirtyRegion::dep_weight(a, b),
            PerturbUndo::AddDep(..) | PerturbUndo::RemoveDep { .. } => DirtyRegion::structural(),
        }
    }

    /// Restores the perturbed instance to its exact pre-perturbation state.
    pub fn revert(self, inst: &mut Instance) {
        match self {
            PerturbUndo::Nothing => {}
            PerturbUndo::NodeWeight(v, w) => inst.network.set_speed(v, w),
            PerturbUndo::EdgeWeight(u, v, w) => inst.network.set_link(u, v, w),
            PerturbUndo::TaskWeight(t, c) => {
                inst.graph.set_cost(t, c).expect("previous cost was valid")
            }
            PerturbUndo::DepWeight(a, b, c) => inst
                .graph
                .set_dependency_cost(a, b, c)
                .expect("edge still present"),
            PerturbUndo::AddDep(a, b) => inst.graph.pop_dependency(a, b),
            PerturbUndo::RemoveDep {
                from,
                to,
                cost,
                succ_pos,
                pred_pos,
            } => inst
                .graph
                .restore_dependency_at(from, to, cost, succ_pos, pred_pos),
        }
    }
}

/// Inclusive weight bounds plus the nudge magnitude derived from them
/// (one tenth of the range, matching the paper's `±1/10` on `[0, 1]`).
#[derive(Debug, Clone, Copy)]
pub struct WeightRange {
    /// Smallest allowed weight.
    pub lo: f64,
    /// Largest allowed weight.
    pub hi: f64,
}

impl WeightRange {
    /// The paper's default `[0, 1]` range.
    pub const UNIT: WeightRange = WeightRange { lo: 0.0, hi: 1.0 };

    /// Builds a range, normalizing inverted bounds.
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            WeightRange { lo, hi }
        } else {
            WeightRange { lo: hi, hi: lo }
        }
    }

    fn nudge(&self, rng: &mut StdRng, w: f64) -> f64 {
        let delta = (self.hi - self.lo) / 10.0;
        (w + rng.gen_range(-delta..=delta)).clamp(self.lo, self.hi)
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.lo..=self.hi)
    }
}

/// The configurable general perturber of Section VI.
///
/// Each enabled operator is drawn with equal probability; a drawn operator
/// that cannot apply (e.g. *remove dependency* on an edgeless graph) falls
/// through to the next applicable one so a perturbation step never silently
/// no-ops unless *nothing* is applicable.
#[derive(Debug, Clone)]
pub struct GeneralPerturber {
    /// Allow nudging node compute speeds.
    pub node_weights: bool,
    /// Allow nudging network link strengths.
    pub edge_weights: bool,
    /// Allow nudging task compute costs.
    pub task_weights: bool,
    /// Allow nudging dependency data sizes.
    pub dependency_weights: bool,
    /// Allow adding acyclic dependencies.
    pub add_dependency: bool,
    /// Allow removing dependencies.
    pub remove_dependency: bool,
    /// Bounds for node speeds.
    pub node_range: WeightRange,
    /// Bounds for link strengths.
    pub link_range: WeightRange,
    /// Bounds for task costs.
    pub task_range: WeightRange,
    /// Bounds for dependency sizes.
    pub dep_range: WeightRange,
}

impl Default for GeneralPerturber {
    fn default() -> Self {
        GeneralPerturber {
            node_weights: true,
            edge_weights: true,
            task_weights: true,
            dependency_weights: true,
            add_dependency: true,
            remove_dependency: true,
            node_range: WeightRange::UNIT,
            link_range: WeightRange::UNIT,
            task_range: WeightRange::UNIT,
            dep_range: WeightRange::UNIT,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    NodeWeight,
    EdgeWeight,
    TaskWeight,
    DepWeight,
    AddDep,
    RemoveDep,
}

impl GeneralPerturber {
    /// The enabled operators in declaration order, on the stack — the
    /// perturber runs once per annealing iteration and must not allocate.
    fn enabled_ops(&self) -> ([Op; 6], usize) {
        let mut ops = [Op::NodeWeight; 6];
        let mut n = 0;
        let mut push = |op: Op| {
            ops[n] = op;
            n += 1;
        };
        if self.node_weights {
            push(Op::NodeWeight);
        }
        if self.edge_weights {
            push(Op::EdgeWeight);
        }
        if self.task_weights {
            push(Op::TaskWeight);
        }
        if self.dependency_weights {
            push(Op::DepWeight);
        }
        if self.add_dependency {
            push(Op::AddDep);
        }
        if self.remove_dependency {
            push(Op::RemoveDep);
        }
        (ops, n)
    }

    /// Applies `op` if applicable, returning how to revert it (`None` when
    /// the operator cannot apply). The single source of truth for operator
    /// semantics — the plain and undoable perturbation paths both run this,
    /// so their mutations and RNG consumption cannot diverge.
    fn apply_undoable(&self, op: Op, inst: &mut Instance, rng: &mut StdRng) -> Option<PerturbUndo> {
        match op {
            Op::NodeWeight => {
                let n = inst.network.node_count();
                if n == 0 {
                    return None;
                }
                let v = NodeId(rng.gen_range(0..n as u32));
                let old = inst.network.speed(v);
                let w = self.node_range.nudge(rng, old);
                inst.network.set_speed(v, w);
                Some(PerturbUndo::NodeWeight(v, old))
            }
            Op::EdgeWeight => {
                let n = inst.network.node_count();
                if n < 2 {
                    return None;
                }
                let u = rng.gen_range(0..n as u32);
                let mut v = rng.gen_range(0..n as u32 - 1);
                if v >= u {
                    v += 1;
                }
                let (u, v) = (NodeId(u), NodeId(v));
                let cur = inst.network.link(u, v);
                // infinite links (shared filesystems) are a modeling
                // constant, not a weight — leave them alone
                if cur.is_infinite() {
                    return None;
                }
                inst.network.set_link(u, v, self.link_range.nudge(rng, cur));
                Some(PerturbUndo::EdgeWeight(u, v, cur))
            }
            Op::TaskWeight => {
                let n = inst.graph.task_count();
                if n == 0 {
                    return None;
                }
                let t = TaskId(rng.gen_range(0..n as u32));
                let old = inst.graph.cost(t);
                let w = self.task_range.nudge(rng, old);
                inst.graph.set_cost(t, w).expect("in-range cost");
                Some(PerturbUndo::TaskWeight(t, old))
            }
            Op::DepWeight => {
                let n = inst.graph.dependency_count();
                if n == 0 {
                    return None;
                }
                let (a, b, cur) = inst
                    .graph
                    .nth_dependency(rng.gen_range(0..n))
                    .expect("index in range");
                let w = self.dep_range.nudge(rng, cur);
                inst.graph
                    .set_dependency_cost(a, b, w)
                    .expect("in-range cost");
                Some(PerturbUndo::DepWeight(a, b, cur))
            }
            Op::AddDep => {
                let n = inst.graph.task_count();
                if n < 2 {
                    return None;
                }
                // up to a handful of attempts to find an acyclic non-edge
                for _ in 0..8 {
                    let t = TaskId(rng.gen_range(0..n as u32));
                    let mut u = rng.gen_range(0..n as u32 - 1);
                    if u >= t.0 {
                        u += 1;
                    }
                    let u = TaskId(u);
                    if inst.graph.has_dependency(t, u) || inst.graph.reaches(u, t) {
                        continue;
                    }
                    let w = self.dep_range.sample(rng);
                    inst.graph.add_dependency(t, u, w).expect("checked acyclic");
                    return Some(PerturbUndo::AddDep(t, u));
                }
                None
            }
            Op::RemoveDep => {
                let n = inst.graph.dependency_count();
                if n == 0 {
                    return None;
                }
                let (a, b, _) = inst
                    .graph
                    .nth_dependency(rng.gen_range(0..n))
                    .expect("index in range");
                let (cost, succ_pos, pred_pos) = inst
                    .graph
                    .remove_dependency_tracked(a, b)
                    .expect("listed dep");
                Some(PerturbUndo::RemoveDep {
                    from: a,
                    to: b,
                    cost,
                    succ_pos,
                    pred_pos,
                })
            }
        }
    }

    /// The shared operator-selection loop: equal-probability draw, falling
    /// through to the next applicable op.
    fn step(&self, inst: &mut Instance, rng: &mut StdRng) -> PerturbUndo {
        let (ops, n) = self.enabled_ops();
        if n == 0 {
            return PerturbUndo::Nothing;
        }
        let start = rng.gen_range(0..n);
        for k in 0..n {
            if let Some(undo) = self.apply_undoable(ops[(start + k) % n], inst, rng) {
                return undo;
            }
        }
        PerturbUndo::Nothing
    }
}

impl Perturber for GeneralPerturber {
    fn perturb_undoable(&self, inst: &mut Instance, rng: &mut StdRng) -> Option<PerturbUndo> {
        Some(self.step(inst, rng))
    }
}

/// Samples the Section VI initial instance: a complete network of 3–5 nodes
/// with `U(0, 1)` speeds and link strengths, and a chain task graph of 3–5
/// tasks with `U(0, 1)` costs and dependency sizes.
pub fn initial_instance(rng: &mut StdRng) -> Instance {
    use saga_core::{Network, TaskGraph};
    let nodes = rng.gen_range(3..=5usize);
    let speeds: Vec<f64> = (0..nodes).map(|_| rng.gen::<f64>()).collect();
    let mut net = Network::complete(&speeds, 1.0);
    for u in 0..nodes as u32 {
        for v in (u + 1)..nodes as u32 {
            net.set_link(NodeId(u), NodeId(v), rng.gen::<f64>());
        }
    }
    let tasks = rng.gen_range(3..=5usize);
    let costs: Vec<f64> = (0..tasks).map(|_| rng.gen::<f64>()).collect();
    let deps: Vec<f64> = (0..tasks - 1).map(|_| rng.gen::<f64>()).collect();
    let g = TaskGraph::chain(&costs, &deps);
    Instance::new(net, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn initial_instance_matches_section_vi() {
        let mut rng = seeded();
        for _ in 0..20 {
            let inst = initial_instance(&mut rng);
            assert!((3..=5).contains(&inst.network.node_count()));
            assert!((3..=5).contains(&inst.graph.task_count()));
            // chain: exactly n-1 dependencies
            assert_eq!(inst.graph.dependency_count(), inst.graph.task_count() - 1);
            for v in inst.network.nodes() {
                assert!((0.0..=1.0).contains(&inst.network.speed(v)));
            }
        }
    }

    #[test]
    fn only_weight_edits_give_partial_regions() {
        let (a, b) = (TaskId(0), TaskId(2));
        let removed = PerturbUndo::RemoveDep {
            from: a,
            to: b,
            cost: 0.5,
            succ_pos: 0,
            pred_pos: 0,
        };
        let link = PerturbUndo::EdgeWeight(NodeId(0), NodeId(1), 0.5);
        for (undo, structural) in [
            (link, false),
            (PerturbUndo::AddDep(a, b), true),
            (removed, true),
        ] {
            let d = undo.dirty_region();
            assert!(d.is_full() && d.refresh_unknown(), "{undo:?}");
            assert!(d.tasks().is_empty(), "{undo:?}");
            assert_eq!(d.is_structural(), structural, "{undo:?}");
        }
        let node = PerturbUndo::NodeWeight(NodeId(1), 0.5).dirty_region();
        assert!(node.is_full() && !node.refresh_unknown());
        assert_eq!(node.node_touched(), Some(NodeId(1)));
        for undo in [
            PerturbUndo::TaskWeight(b, 0.5),
            PerturbUndo::DepWeight(a, b, 0.5),
        ] {
            let d = undo.dirty_region();
            assert!(!d.is_full() && !d.is_structural(), "{undo:?}");
            assert_eq!(d.tasks(), &[b], "{undo:?}");
        }
        assert!(PerturbUndo::Nothing.dirty_region().is_clean());
    }

    #[test]
    fn perturbations_keep_weights_in_range() {
        let mut rng = seeded();
        let mut inst = initial_instance(&mut rng);
        let p = GeneralPerturber::default();
        for _ in 0..2000 {
            p.perturb(&mut inst, &mut rng);
        }
        for v in inst.network.nodes() {
            assert!((0.0..=1.0).contains(&inst.network.speed(v)));
            for u in inst.network.nodes() {
                if u != v {
                    assert!((0.0..=1.0).contains(&inst.network.link(u, v)));
                }
            }
        }
        for t in inst.graph.tasks() {
            assert!((0.0..=1.0).contains(&inst.graph.cost(t)));
        }
        for (_, _, c) in inst.graph.dependencies() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn perturbations_preserve_acyclicity() {
        let mut rng = seeded();
        let mut inst = initial_instance(&mut rng);
        let p = GeneralPerturber::default();
        for _ in 0..2000 {
            p.perturb(&mut inst, &mut rng);
            assert_eq!(
                inst.graph.topological_order().len(),
                inst.graph.task_count()
            );
        }
    }

    #[test]
    fn structure_preserving_config_never_changes_topology() {
        let mut rng = seeded();
        let mut inst = initial_instance(&mut rng);
        let before: Vec<_> = inst.graph.dependencies().map(|(a, b, _)| (a, b)).collect();
        let p = GeneralPerturber {
            add_dependency: false,
            remove_dependency: false,
            edge_weights: false,
            ..GeneralPerturber::default()
        };
        for _ in 0..500 {
            p.perturb(&mut inst, &mut rng);
        }
        let after: Vec<_> = inst.graph.dependencies().map(|(a, b, _)| (a, b)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn disabled_node_weights_stay_fixed() {
        let mut rng = seeded();
        let mut inst = initial_instance(&mut rng);
        let speeds = inst.network.speeds().to_vec();
        let p = GeneralPerturber {
            node_weights: false,
            ..GeneralPerturber::default()
        };
        for _ in 0..500 {
            p.perturb(&mut inst, &mut rng);
        }
        assert_eq!(inst.network.speeds(), &speeds[..]);
    }

    #[test]
    fn infinite_links_are_never_touched() {
        use saga_core::{Network, TaskGraph};
        let mut rng = seeded();
        let g = TaskGraph::chain(&[0.5, 0.5], &[0.5]);
        let mut inst = Instance::new(Network::complete(&[0.5, 0.5], f64::INFINITY), g);
        let p = GeneralPerturber::default();
        for _ in 0..500 {
            p.perturb(&mut inst, &mut rng);
        }
        for u in inst.network.nodes() {
            for v in inst.network.nodes() {
                assert!(inst.network.link(u, v).is_infinite());
            }
        }
    }

    #[test]
    fn scaled_ranges_clamp_to_trace_bounds() {
        let mut rng = seeded();
        let mut inst = initial_instance(&mut rng);
        // pretend trace bounds: runtimes in [5, 600]
        let task_ids: Vec<_> = inst.graph.tasks().collect();
        for t in task_ids {
            inst.graph.set_cost(t, 300.0).unwrap();
        }
        let p = GeneralPerturber {
            node_weights: false,
            edge_weights: false,
            dependency_weights: false,
            add_dependency: false,
            remove_dependency: false,
            task_range: WeightRange::new(5.0, 600.0),
            ..GeneralPerturber::default()
        };
        for _ in 0..1000 {
            p.perturb(&mut inst, &mut rng);
        }
        for t in inst.graph.tasks() {
            let c = inst.graph.cost(t);
            assert!((5.0..=600.0).contains(&c), "cost {c}");
        }
    }

    #[test]
    fn weight_range_normalizes_inverted_bounds() {
        let r = WeightRange::new(5.0, 1.0);
        assert_eq!((r.lo, r.hi), (1.0, 5.0));
    }
}
