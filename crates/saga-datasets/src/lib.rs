//! # saga-datasets
//!
//! The 16 problem-instance dataset generators of the paper's Table II, plus
//! the two case-study instance families of Section VI-B and a CCR helper for
//! the Section VII application-specific experiments.
//!
//! Three groups:
//!
//! * **Random graph families** (`in_trees`, `out_trees`, `chains`) paired
//!   with small randomly weighted complete networks — the classic synthetic
//!   methodology of Cordeiro et al.
//! * **Scientific workflows** (`blast`, `bwa`, `cycles`, `epigenomics`,
//!   `genome`, `montage`, `seismology`, `soykb`, `srasearch`) paired with
//!   Chameleon-cloud-style networks (shared filesystem — infinite links).
//!   The paper generates these with WfCommons from real execution traces;
//!   those traces are not redistributable, so the topologies here are
//!   structural reproductions of each workflow's published shape and the
//!   weights are clipped gaussians over per-workflow scale constants (see
//!   DESIGN.md, substitutions).
//! * **IoT streaming applications** (`etl`, `predict`, `stats`, `train`)
//!   from RIoTBench, paired with edge/fog/cloud networks per Varshney et al.
//!
//! Every generator is deterministic given an [`StdRng`] seed.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use saga_core::Instance;

pub mod ccr;
pub mod characterize;
pub mod families;
pub mod iot;
pub mod random_graphs;
pub mod workflows;

/// A named, seeded problem-instance generator (one Table II row).
pub struct DatasetGenerator {
    /// Dataset name as it appears in the paper (e.g. `"in_trees"`).
    pub name: &'static str,
    /// Number of instances the paper's dataset contains.
    pub paper_count: usize,
    sample_fn: fn(&mut StdRng) -> Instance,
}

impl DatasetGenerator {
    /// Draws one random instance.
    pub fn sample(&self, rng: &mut StdRng) -> Instance {
        (self.sample_fn)(rng)
    }

    /// Draws `count` instances.
    pub fn sample_many(&self, rng: &mut StdRng, count: usize) -> Vec<Instance> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// All 16 dataset generators, in the row order of the paper's Fig. 2
/// (alphabetical: blast, bwa, chains, cycles, epigenomics, etl, genome,
/// in_trees, montage, out_trees, predict, seismology, soykb, srasearch,
/// stats, train).
pub fn all_generators() -> Vec<DatasetGenerator> {
    vec![
        DatasetGenerator {
            name: "blast",
            paper_count: 100,
            sample_fn: workflows::sample_blast,
        },
        DatasetGenerator {
            name: "bwa",
            paper_count: 100,
            sample_fn: workflows::sample_bwa,
        },
        DatasetGenerator {
            name: "chains",
            paper_count: 1000,
            sample_fn: random_graphs::sample_chains,
        },
        DatasetGenerator {
            name: "cycles",
            paper_count: 100,
            sample_fn: workflows::sample_cycles,
        },
        DatasetGenerator {
            name: "epigenomics",
            paper_count: 100,
            sample_fn: workflows::sample_epigenomics,
        },
        DatasetGenerator {
            name: "etl",
            paper_count: 1000,
            sample_fn: iot::sample_etl,
        },
        DatasetGenerator {
            name: "genome",
            paper_count: 100,
            sample_fn: workflows::sample_genome,
        },
        DatasetGenerator {
            name: "in_trees",
            paper_count: 1000,
            sample_fn: random_graphs::sample_in_trees,
        },
        DatasetGenerator {
            name: "montage",
            paper_count: 100,
            sample_fn: workflows::sample_montage,
        },
        DatasetGenerator {
            name: "out_trees",
            paper_count: 1000,
            sample_fn: random_graphs::sample_out_trees,
        },
        DatasetGenerator {
            name: "predict",
            paper_count: 1000,
            sample_fn: iot::sample_predict,
        },
        DatasetGenerator {
            name: "seismology",
            paper_count: 100,
            sample_fn: workflows::sample_seismology,
        },
        DatasetGenerator {
            name: "soykb",
            paper_count: 100,
            sample_fn: workflows::sample_soykb,
        },
        DatasetGenerator {
            name: "srasearch",
            paper_count: 100,
            sample_fn: workflows::sample_srasearch,
        },
        DatasetGenerator {
            name: "stats",
            paper_count: 1000,
            sample_fn: iot::sample_stats,
        },
        DatasetGenerator {
            name: "train",
            paper_count: 1000,
            sample_fn: iot::sample_train,
        },
    ]
}

/// Looks a generator up by name.
pub fn by_name(name: &str) -> Option<DatasetGenerator> {
    all_generators()
        .into_iter()
        .find(|g| g.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sixteen_generators_in_fig2_order() {
        let names: Vec<&str> = all_generators().iter().map(|g| g.name).collect();
        assert_eq!(names.len(), 16);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "generators must be alphabetical like Fig. 2");
    }

    #[test]
    fn every_generator_yields_valid_dag_instances() {
        let mut rng = StdRng::seed_from_u64(123);
        for g in all_generators() {
            for _ in 0..3 {
                let inst = g.sample(&mut rng);
                assert!(inst.graph.task_count() > 0, "{} empty graph", g.name);
                assert!(inst.network.node_count() > 0, "{} empty network", g.name);
                // acyclicity is by construction; topological order must cover
                assert_eq!(
                    inst.graph.topological_order().len(),
                    inst.graph.task_count(),
                    "{} not a DAG",
                    g.name
                );
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        for g in all_generators() {
            let a = g.sample(&mut StdRng::seed_from_u64(5));
            let b = g.sample(&mut StdRng::seed_from_u64(5));
            assert_eq!(a.to_json(), b.to_json(), "{} not reproducible", g.name);
        }
    }

    #[test]
    fn by_name_finds_all() {
        for g in all_generators() {
            assert!(by_name(g.name).is_some());
        }
        assert!(by_name("not_a_dataset").is_none());
    }

    #[test]
    fn paper_counts_match_table_ii() {
        for g in all_generators() {
            let expect = match g.name {
                "in_trees" | "out_trees" | "chains" | "etl" | "predict" | "stats" | "train" => 1000,
                _ => 100,
            };
            assert_eq!(g.paper_count, expect, "{}", g.name);
        }
    }
}
