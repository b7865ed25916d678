//! A problem instance `(N, G)`: a network paired with a task graph.

// a parse path: a malformed instance is an error for the caller, never an abort
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::{Network, TaskGraph};

/// A scheduling problem instance: the pair `(N, G)` of Section II.
///
/// Its one JSON form is an object (`speeds`, `links`, `tasks`, `deps`,
/// infinite links as `null`). [`Instance::write_json`] writes it and
/// [`Instance::read_json`] reads it, each in one pass over the text, for
/// every record that embeds an instance (checkpoint lines, witness files,
/// [`Instance::to_json`] and [`Instance::from_json`]). `Deserialize` reads
/// it from a value tree: the reference decoder the one-pass one is tested
/// against. Both decoders end in one validating constructor.
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

    /// The instance's JSON form, indented two spaces per level.
    pub fn to_json(&self) -> String {
        let mut w = serde_json::Writer::pretty();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the instance's JSON form as the next value of `w`. Its
    /// dependencies go in `(from, to)` order, whatever order mutation left
    /// the adjacency lists in, so the text is a function of the instance's
    /// value: an instance and its round trip print identically (checkpoint
    /// replay and resumed runs must emit byte-identical witness files).
    pub fn write_json(&self, w: &mut serde_json::Writer) {
        let g = &self.graph;
        let mut deps: Vec<(u32, u32, f64)> =
            g.dependencies().map(|(a, b, c)| (a.0, b.0, c)).collect();
        deps.sort_unstable_by_key(|&(a, b, _)| (a, b));
        w.begin_object();
        w.key("speeds");
        w.begin_array();
        for &s in self.network.speeds() {
            w.number(s);
        }
        w.end_array();
        // `number` writes an infinite link as `null`
        w.key("links");
        w.begin_array();
        for &x in self.network.links() {
            w.number(x);
        }
        w.end_array();
        w.key("tasks");
        w.begin_array();
        for t in g.tasks() {
            w.begin_array();
            w.string(g.name(t));
            w.number(g.cost(t));
            w.end_array();
        }
        w.end_array();
        w.key("deps");
        w.begin_array();
        for (a, b, c) in deps {
            w.begin_array();
            w.number(a.into());
            w.number(b.into());
            w.number(c);
            w.end_array();
        }
        w.end_array();
        w.end_object();
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
    //! The decoders of [`Instance`]'s JSON form: [`InstanceDto`]'s fields,
    //! with infinite link strengths as `None`.
    use super::Instance;
    use crate::{Network, TaskGraph};
    use serde::{Deserialize, Value};
    use serde_json::{required, Error, Reader};

    fn dec(x: Option<f64>) -> f64 {
        x.unwrap_or(f64::INFINITY)
    }

    #[derive(Deserialize)]
    struct InstanceDto {
        speeds: Vec<f64>,
        links: Vec<Option<f64>>,
        tasks: Vec<(String, f64)>,
        deps: Vec<(u32, u32, f64)>,
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
                // `null` is an infinite link, as `dec` reads it; a network
                // with one link strength repeats one token, converted once
                "links" if links.is_none() => {
                    let mut last = None;
                    links = Some(r.array(|r| {
                        if r.take_null()? {
                            Ok(f64::INFINITY)
                        } else {
                            r.number_reusing(&mut last)
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

    /// A `links` row whose neighbours are near-identical spellings: each
    /// entry has the bits `str::parse` gives its own text, whether the
    /// token before it is the same value spelled otherwise, a prefix of it,
    /// or a token that differs in its last digit.
    #[test]
    fn link_rows_with_near_identical_neighbours_decode_to_parse_bits() {
        // row-major; entries (i, j) and (j, i) spell one float
        let rows = [
            ["null", "0.1", "0.10", "1e-1"],
            [
                "0.1000000000000000055511151231257827",
                "null",
                "0.24404401143232343",
                "0.24404401143232345",
            ],
            ["0.1", "0.24404401143232343", "null", "0.2440440114323234"],
            ["0.10", "0.24404401143232345", "0.2440440114323234", "null"],
        ];
        let links = rows.concat().join(",");
        let json =
            format!(r#"{{"speeds":[1,1,1,1],"links":[{links}],"tasks":[["a",1]],"deps":[]}}"#);
        let read = Instance::from_json(&json).unwrap();
        let tree: Instance = serde_json::from_str(&json).unwrap();
        for (i, row) in rows.iter().enumerate() {
            for (j, token) in row.iter().enumerate() {
                let want = token.parse().unwrap_or(f64::INFINITY).to_bits();
                let (u, v) = (crate::NodeId(i as u32), crate::NodeId(j as u32));
                assert_eq!(read.network.link(u, v).to_bits(), want, "({i}, {j})");
                assert_eq!(tree.network.link(u, v).to_bits(), want, "({i}, {j})");
            }
        }
        // the row is not one value: the test reads distinct bits
        assert_ne!(
            "0.24404401143232343".parse::<f64>().unwrap(),
            "0.24404401143232345".parse::<f64>().unwrap()
        );
    }
}
