//! A problem instance `(N, G)`: a network paired with a task graph.

use crate::{Network, TaskGraph};

/// A scheduling problem instance: the pair `(N, G)` of Section II.
///
/// Its one JSON form is an object (`speeds`, `links`, `tasks`, `deps`,
/// infinite links as `null`). `Serialize`/`Deserialize` build and read it
/// as a value tree, for records that keep the tree (witness files);
/// [`Instance::read_json`] reads it straight from the text, for records
/// decoded in one pass (checkpoint lines, [`Instance::from_json`]). Both
/// decoders end in one validating constructor.
#[derive(Debug)]
pub struct Instance {
    /// The compute network `N`.
    pub network: Network,
    /// The task graph `G`.
    pub graph: TaskGraph,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            network: self.network.clone(),
            graph: self.graph.clone(),
        }
    }

    /// Buffer-reusing clone (see [`TaskGraph`]'s and [`Network`]'s
    /// `clone_from`): the annealer's per-iteration candidate copies become
    /// allocation-free after warm-up.
    fn clone_from(&mut self, source: &Self) {
        self.network.clone_from(&source.network);
        self.graph.clone_from(&source.graph);
    }
}

impl Instance {
    /// Pairs a network with a task graph.
    pub fn new(network: Network, graph: TaskGraph) -> Self {
        Instance { network, graph }
    }

    /// The communication-to-computation ratio of the instance: average
    /// communication time of a dependency divided by average execution time
    /// of a task (the paper's CCR). Returns 0 when there are no dependencies.
    pub fn ccr(&self) -> f64 {
        let avg_exec = self.graph.mean_task_cost() * self.network.mean_inverse_speed();
        let avg_comm = self.graph.mean_dependency_cost() * self.network.mean_inverse_link();
        if avg_exec == 0.0 {
            0.0
        } else {
            avg_comm / avg_exec
        }
    }

    /// The instance's JSON value form, pretty-printed.
    pub fn to_json(&self) -> String {
        // saga-lint: allow(error-discipline) — the value tree is vectors and tuples of primitives; the vendored serializer has no failure path for it
        serde_json::to_string_pretty(self).expect("instance serialization cannot fail")
    }

    /// Parses an instance previously produced by [`Instance::to_json`].
    /// Fails on malformed JSON *and* on well-formed JSON that encodes an
    /// invalid instance (a dependency cycle, an out-of-range task id, a
    /// negative weight, a ragged or asymmetric link matrix) — a
    /// hand-edited witness file is a parse error, not a panic.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let mut reader = serde_json::Reader::new(s);
        let inst = Instance::read_json(&mut reader)?;
        reader.end()?;
        Ok(inst)
    }

    /// Reads the instance whose JSON form comes next in `reader`, straight
    /// from the text: the decode [`Deserialize`](serde::Deserialize) makes
    /// from a value tree, without the tree. The first occurrence of a
    /// field counts; repeated and unknown fields are skipped but must
    /// still be valid JSON; a missing field or a wrong type is an error.
    pub fn read_json(reader: &mut serde_json::Reader<'_>) -> Result<Self, serde_json::Error> {
        dto::read(reader)
    }
}

mod dto {
    //! The JSON form of [`Instance`]: [`InstanceDto`]'s fields, with
    //! infinite link strengths as `None`, and its two decoders.
    use super::Instance;
    use crate::{Network, TaskGraph};
    use serde::{Deserialize, Serialize, Value};
    use serde_json::{required, Error, Reader};

    fn enc(x: f64) -> Option<f64> {
        x.is_finite().then_some(x)
    }

    fn dec(x: Option<f64>) -> f64 {
        x.unwrap_or(f64::INFINITY)
    }

    #[derive(Serialize, Deserialize)]
    struct InstanceDto {
        speeds: Vec<f64>,
        links: Vec<Option<f64>>,
        tasks: Vec<(String, f64)>,
        deps: Vec<(u32, u32, f64)>,
    }

    impl Serialize for Instance {
        fn to_value(&self) -> Value {
            let g = &self.graph;
            // Canonical dep order: adjacency lists reflect mutation history
            // (perturbation add/remove churn), and the parse side re-inserts
            // in sorted order anyway. Sorting here makes serialization a
            // stable function of the instance's *value*, so an instance and
            // its JSON round-trip print identically (checkpoint replay and
            // resumed runs must emit byte-identical witness files).
            let mut deps: Vec<(u32, u32, f64)> =
                g.dependencies().map(|(a, b, c)| (a.0, b.0, c)).collect();
            deps.sort_unstable_by_key(|&(a, b, _)| (a, b));
            InstanceDto {
                speeds: self.network.speeds().to_vec(),
                links: self.network.links().iter().map(|&x| enc(x)).collect(),
                tasks: g
                    .tasks()
                    .map(|t| (g.name(t).to_string(), g.cost(t)))
                    .collect(),
                deps,
            }
            .to_value()
        }
    }

    /// The one validating constructor behind both decoders, with infinite
    /// link strengths already decoded: it rejects what
    /// [`Network::try_from_matrix`] rejects (a negative weight, a ragged or
    /// asymmetric link matrix), invalid task costs and invalid
    /// dependencies, and inserts dependencies in canonical order.
    fn build(
        speeds: Vec<f64>,
        links: Vec<f64>,
        tasks: Vec<(String, f64)>,
        mut deps: Vec<(u32, u32, f64)>,
    ) -> Result<Instance, serde::Error> {
        let network = Network::try_from_matrix(speeds, links).map_err(serde::Error::custom)?;
        let mut graph = TaskGraph::with_capacity(tasks.len());
        for (name, cost) in tasks {
            graph
                .try_add_task(name, cost)
                .map_err(serde::Error::custom)?;
        }
        deps.sort_unstable_by_key(|&(a, b, _)| (a, b));
        for (a, b, c) in deps {
            graph
                .add_dependency(a.into(), b.into(), c)
                .map_err(serde::Error::custom)?;
        }
        Ok(Instance { network, graph })
    }

    impl Deserialize for Instance {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            let dto = InstanceDto::from_value(v)?;
            let links = dto.links.into_iter().map(dec).collect();
            build(dto.speeds, links, dto.tasks, dto.deps)
        }
    }

    /// [`Instance::read_json`]: [`InstanceDto`]'s fields read from the
    /// text in [`Deserialize`]'s order of precedence, then [`build`].
    pub(super) fn read(r: &mut Reader<'_>) -> Result<Instance, Error> {
        let (mut speeds, mut links, mut tasks, mut deps) = (None, None, None, None);
        r.begin_object()?;
        while let Some(field) = r.next_key()? {
            match &*field {
                "speeds" if speeds.is_none() => speeds = Some(r.array(|r| r.number_as())?),
                // `null` is an infinite link, as `dec` reads it
                "links" if links.is_none() => {
                    links = Some(r.array(|r| {
                        if r.take_null()? {
                            Ok(f64::INFINITY)
                        } else {
                            r.number_as()
                        }
                    })?)
                }
                "tasks" if tasks.is_none() => {
                    tasks = Some(r.array(|r| {
                        r.begin_array()?;
                        let name = element(r, |r| r.string())?.into_owned();
                        let cost = element(r, |r| r.number_as())?;
                        end_tuple(r)?;
                        Ok((name, cost))
                    })?)
                }
                "deps" if deps.is_none() => {
                    deps = Some(r.array(|r| {
                        r.begin_array()?;
                        let from = element(r, |r| r.number_as())?;
                        let to = element(r, |r| r.number_as())?;
                        let cost = element(r, |r| r.number_as())?;
                        end_tuple(r)?;
                        Ok((from, to, cost))
                    })?)
                }
                _ => r.skip()?,
            }
        }
        Ok(build(
            required(speeds, "speeds")?,
            required(links, "links")?,
            required(tasks, "tasks")?,
            required(deps, "deps")?,
        )?)
    }

    /// The next element of an open tuple array, read by `read`.
    fn element<'a, T>(
        r: &mut Reader<'a>,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        if r.next_element()? {
            read(r)
        } else {
            Err(Error::custom("tuple too short"))
        }
    }

    /// Closes an open tuple array that must have no further element.
    fn end_tuple(r: &mut Reader<'_>) -> Result<(), Error> {
        if r.next_element()? {
            Err(Error::custom("tuple too long"))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskId;

    fn sample() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 4.0);
        g.add_dependency(a, b, 3.0).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 1.5), g)
    }

    #[test]
    fn ccr_matches_hand_computation() {
        let inst = sample();
        // avg exec = mean cost 3 * mean inv speed 0.75 = 2.25
        // avg comm = mean dep 3 * mean inv link (1/1.5) = 2
        assert!((inst.ccr() - 2.0 / 2.25).abs() < 1e-12);
    }

    #[test]
    fn ccr_of_graph_without_deps_is_zero() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        assert_eq!(inst.ccr(), 0.0);
    }

    #[test]
    fn json_round_trip_preserves_weights_and_infinities() {
        let inst = sample();
        let json = inst.to_json();
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(back.network.node_count(), 2);
        assert!(back
            .network
            .link(crate::NodeId(0), crate::NodeId(0))
            .is_infinite());
        assert_eq!(back.network.link(crate::NodeId(0), crate::NodeId(1)), 1.5);
        assert_eq!(back.graph.task_count(), 2);
        assert_eq!(back.graph.cost(TaskId(1)), 4.0);
        assert_eq!(back.graph.dependency_cost(TaskId(0), TaskId(1)), Some(3.0));
        assert_eq!(back.graph.name(TaskId(0)), "a");
    }
}
