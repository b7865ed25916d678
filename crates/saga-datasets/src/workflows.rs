//! Scientific-workflow dataset generators (9 of the 16 Table II rows).
//!
//! The paper builds these with the WfCommons synthetic generator fitted to
//! Pegasus/Makeflow execution traces. Offline we reproduce each workflow's
//! *structure* (the rigid shapes of the paper's Fig. 9 and the published
//! workflow galleries) and model the weights as clipped gaussians around
//! per-stage scale constants, bounded by per-workflow observed ranges — the
//! quantities the application-specific PISA of Section VII needs (it scales
//! its perturbations to the min/max runtime and I/O observed per workflow).
//!
//! Networks are "Chameleon-cloud inspired": a handful of near-homogeneous
//! machines whose speeds are sampled from a fitted distribution, with
//! **infinite** link strength because Chameleon uses a shared filesystem
//! (communication absorbed into computation), exactly as in the paper.

use rand::rngs::StdRng;
use saga_core::dist::{clipped_gaussian, uniform_usize};
use saga_core::{Instance, Network, TaskGraph, TaskId};

/// Observed-range constants for one workflow application (the role played by
/// WfCommons trace data in the paper).
#[derive(Debug, Clone, Copy)]
pub struct WorkflowSpec {
    /// Dataset name.
    pub name: &'static str,
    /// (min, max) task runtime in reference-machine seconds.
    pub runtime_range: (f64, f64),
    /// (min, max) task I/O size in MB.
    pub io_range: (f64, f64),
    /// (min, max) machine speedup factor for the Chameleon-style network.
    pub speed_range: (f64, f64),
}

/// Per-workflow specs. Scale constants are modeled (see module docs), chosen
/// so relative stage weights match the published workflow profiles.
pub fn spec(name: &str) -> Option<WorkflowSpec> {
    let s = match name {
        "blast" => WorkflowSpec {
            name: "blast",
            runtime_range: (5.0, 600.0),
            io_range: (0.1, 200.0),
            speed_range: (0.8, 1.4),
        },
        "bwa" => WorkflowSpec {
            name: "bwa",
            runtime_range: (2.0, 400.0),
            io_range: (0.1, 300.0),
            speed_range: (0.8, 1.4),
        },
        "cycles" => WorkflowSpec {
            name: "cycles",
            runtime_range: (1.0, 300.0),
            io_range: (0.05, 50.0),
            speed_range: (0.8, 1.4),
        },
        "epigenomics" => WorkflowSpec {
            name: "epigenomics",
            runtime_range: (2.0, 800.0),
            io_range: (0.5, 400.0),
            speed_range: (0.8, 1.4),
        },
        "genome" => WorkflowSpec {
            name: "genome",
            runtime_range: (10.0, 1200.0),
            io_range: (1.0, 500.0),
            speed_range: (0.8, 1.4),
        },
        "montage" => WorkflowSpec {
            name: "montage",
            runtime_range: (1.0, 300.0),
            io_range: (0.5, 150.0),
            speed_range: (0.8, 1.4),
        },
        "seismology" => WorkflowSpec {
            name: "seismology",
            runtime_range: (1.0, 120.0),
            io_range: (0.05, 30.0),
            speed_range: (0.8, 1.4),
        },
        "soykb" => WorkflowSpec {
            name: "soykb",
            runtime_range: (5.0, 900.0),
            io_range: (0.5, 350.0),
            speed_range: (0.8, 1.4),
        },
        "srasearch" => WorkflowSpec {
            name: "srasearch",
            runtime_range: (2.0, 500.0),
            io_range: (0.2, 250.0),
            speed_range: (0.8, 1.4),
        },
        _ => return None,
    };
    Some(s)
}

/// Names of the nine scientific workflows, alphabetical.
pub const WORKFLOW_NAMES: [&str; 9] = [
    "blast",
    "bwa",
    "cycles",
    "epigenomics",
    "genome",
    "montage",
    "seismology",
    "soykb",
    "srasearch",
];

fn cost(rng: &mut StdRng, scale: f64, spec: &WorkflowSpec) -> f64 {
    clipped_gaussian(
        rng,
        scale,
        scale / 3.0,
        spec.runtime_range.0,
        spec.runtime_range.1,
    )
}

fn io(rng: &mut StdRng, scale: f64, spec: &WorkflowSpec) -> f64 {
    clipped_gaussian(rng, scale, scale / 3.0, spec.io_range.0, spec.io_range.1)
}

/// Samples a Chameleon-cloud-style network: 4–10 machines, speeds from the
/// fitted (clipped gaussian) distribution, infinite link strength (shared
/// filesystem).
pub fn sample_chameleon_network(rng: &mut StdRng, spec: &WorkflowSpec) -> Network {
    let n = uniform_usize(rng, 4, 10);
    let (lo, hi) = spec.speed_range;
    let mid = 0.5 * (lo + hi);
    let speeds: Vec<f64> = (0..n)
        .map(|_| clipped_gaussian(rng, mid, (hi - lo) / 6.0, lo, hi))
        .collect();
    Network::complete(&speeds, f64::INFINITY)
}

/// blast (the paper's Fig. 9b): `split -> n x blastall -> {cat_blast, cat}`
/// — every search task feeds both merge tasks.
pub fn blast_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("blast").unwrap();
    let mut g = TaskGraph::new();
    let split = g.add_task("split_fasta", cost(rng, 30.0, &sp));
    let mut searches = Vec::with_capacity(n);
    for i in 0..n {
        let t = g.add_task(format!("blastall_{i}"), cost(rng, 300.0, &sp));
        g.add_dependency(split, t, io(rng, 5.0, &sp)).unwrap();
        searches.push(t);
    }
    let cat_blast = g.add_task("cat_blast", cost(rng, 20.0, &sp));
    let cat = g.add_task("cat", cost(rng, 10.0, &sp));
    for &s in &searches {
        g.add_dependency(s, cat_blast, io(rng, 20.0, &sp)).unwrap();
        g.add_dependency(s, cat, io(rng, 2.0, &sp)).unwrap();
    }
    g
}

/// bwa: `fastq_reduce -> n x bwa_align -> cat_bwa -> final sort`.
pub fn bwa_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("bwa").unwrap();
    let mut g = TaskGraph::new();
    let reduce = g.add_task("fastq_reduce", cost(rng, 40.0, &sp));
    let cat = g.add_task("cat_bwa", cost(rng, 30.0, &sp));
    for i in 0..n {
        let t = g.add_task(format!("bwa_{i}"), cost(rng, 150.0, &sp));
        g.add_dependency(reduce, t, io(rng, 10.0, &sp)).unwrap();
        g.add_dependency(t, cat, io(rng, 15.0, &sp)).unwrap();
    }
    let sort = g.add_task("sort_sam", cost(rng, 60.0, &sp));
    g.add_dependency(cat, sort, io(rng, 40.0, &sp)).unwrap();
    g
}

/// cycles (agroecosystem): `n` independent crop simulations, each
/// `cycles -> fpi_summary`, all feeding one `cycles_plots` aggregate.
pub fn cycles_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("cycles").unwrap();
    let mut g = TaskGraph::new();
    let plots = g.add_task("cycles_plots", cost(rng, 45.0, &sp));
    for i in 0..n {
        let sim = g.add_task(format!("cycles_{i}"), cost(rng, 180.0, &sp));
        let sum = g.add_task(format!("fpi_summary_{i}"), cost(rng, 40.0, &sp));
        g.add_dependency(sim, sum, io(rng, 8.0, &sp)).unwrap();
        g.add_dependency(sum, plots, io(rng, 2.0, &sp)).unwrap();
    }
    g
}

/// epigenomics: `m` sequencing lanes, each a rigid 4-stage pipeline
/// (`split -> filter -> map -> merge_lane`), joined by a global
/// `merge -> index` tail.
pub fn epigenomics_graph(rng: &mut StdRng, lanes: usize, fanout: usize) -> TaskGraph {
    let sp = spec("epigenomics").unwrap();
    let mut g = TaskGraph::new();
    let merge = g.add_task("merge_all", cost(rng, 200.0, &sp));
    for l in 0..lanes {
        let split = g.add_task(format!("split_{l}"), cost(rng, 30.0, &sp));
        let lane_merge = g.add_task(format!("merge_lane_{l}"), cost(rng, 60.0, &sp));
        for f in 0..fanout {
            let filt = g.add_task(format!("filter_{l}_{f}"), cost(rng, 90.0, &sp));
            let map = g.add_task(format!("map_{l}_{f}"), cost(rng, 300.0, &sp));
            g.add_dependency(split, filt, io(rng, 20.0, &sp)).unwrap();
            g.add_dependency(filt, map, io(rng, 15.0, &sp)).unwrap();
            g.add_dependency(map, lane_merge, io(rng, 25.0, &sp))
                .unwrap();
        }
        g.add_dependency(lane_merge, merge, io(rng, 50.0, &sp))
            .unwrap();
    }
    let index = g.add_task("index", cost(rng, 80.0, &sp));
    g.add_dependency(merge, index, io(rng, 60.0, &sp)).unwrap();
    g
}

/// 1000genome: `n` per-individual tasks feed two `sifting` reducers, whose
/// outputs drive per-population `merge -> frequency` pairs.
pub fn genome_graph(rng: &mut StdRng, individuals: usize, populations: usize) -> TaskGraph {
    let sp = spec("genome").unwrap();
    let mut g = TaskGraph::new();
    let mut indiv = Vec::with_capacity(individuals);
    for i in 0..individuals {
        indiv.push(g.add_task(format!("individuals_{i}"), cost(rng, 500.0, &sp)));
    }
    let sift_a = g.add_task("sifting_a", cost(rng, 60.0, &sp));
    let sift_b = g.add_task("sifting_b", cost(rng, 60.0, &sp));
    for &t in &indiv {
        g.add_dependency(t, sift_a, io(rng, 30.0, &sp)).unwrap();
        g.add_dependency(t, sift_b, io(rng, 30.0, &sp)).unwrap();
    }
    for p in 0..populations {
        let merge = g.add_task(format!("individuals_merge_{p}"), cost(rng, 150.0, &sp));
        let freq = g.add_task(format!("frequency_{p}"), cost(rng, 90.0, &sp));
        g.add_dependency(sift_a, merge, io(rng, 40.0, &sp)).unwrap();
        g.add_dependency(sift_b, merge, io(rng, 40.0, &sp)).unwrap();
        g.add_dependency(merge, freq, io(rng, 20.0, &sp)).unwrap();
    }
    g
}

/// montage: the classic layered mosaic pipeline —
/// `n x mProject -> ~1.5n x mDiffFit -> mConcatFit -> mBgModel ->
/// n x mBackground -> mImgtbl -> mAdd -> mShrink -> mJPEG`.
pub fn montage_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("montage").unwrap();
    let mut g = TaskGraph::new();
    let projects: Vec<TaskId> = (0..n)
        .map(|i| g.add_task(format!("mProject_{i}"), cost(rng, 60.0, &sp)))
        .collect();
    // overlaps between consecutive projections (ring-ish, ~n pairs)
    let concat = g.add_task("mConcatFit", cost(rng, 30.0, &sp));
    for i in 0..n {
        let d = g.add_task(format!("mDiffFit_{i}"), cost(rng, 10.0, &sp));
        g.add_dependency(projects[i], d, io(rng, 10.0, &sp))
            .unwrap();
        g.add_dependency(projects[(i + 1) % n], d, io(rng, 10.0, &sp))
            .unwrap();
        g.add_dependency(d, concat, io(rng, 1.0, &sp)).unwrap();
    }
    let bgmodel = g.add_task("mBgModel", cost(rng, 60.0, &sp));
    g.add_dependency(concat, bgmodel, io(rng, 1.0, &sp))
        .unwrap();
    let imgtbl = g.add_task("mImgtbl", cost(rng, 20.0, &sp));
    for (i, &p) in projects.iter().enumerate() {
        let b = g.add_task(format!("mBackground_{i}"), cost(rng, 10.0, &sp));
        g.add_dependency(p, b, io(rng, 15.0, &sp)).unwrap();
        g.add_dependency(bgmodel, b, io(rng, 1.0, &sp)).unwrap();
        g.add_dependency(b, imgtbl, io(rng, 15.0, &sp)).unwrap();
    }
    let madd = g.add_task("mAdd", cost(rng, 120.0, &sp));
    g.add_dependency(imgtbl, madd, io(rng, 30.0, &sp)).unwrap();
    let shrink = g.add_task("mShrink", cost(rng, 30.0, &sp));
    g.add_dependency(madd, shrink, io(rng, 40.0, &sp)).unwrap();
    let jpeg = g.add_task("mJPEG", cost(rng, 10.0, &sp));
    g.add_dependency(shrink, jpeg, io(rng, 5.0, &sp)).unwrap();
    g
}

/// seismology: `n` parallel deconvolutions feeding a single wrapper — the
/// widest, shallowest workflow in the set.
pub fn seismology_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("seismology").unwrap();
    let mut g = TaskGraph::new();
    let wrapper = g.add_task("sift_misfit", cost(rng, 20.0, &sp));
    for i in 0..n {
        let t = g.add_task(format!("sG1IterDecon_{i}"), cost(rng, 30.0, &sp));
        g.add_dependency(t, wrapper, io(rng, 1.0, &sp)).unwrap();
    }
    g
}

/// soykb: per-sample `align -> sort -> dedup -> realign` pipelines, a
/// `combine`, then two parallel `select -> filter` chains merged by
/// `merge_gcvf`.
pub fn soykb_graph(rng: &mut StdRng, samples: usize) -> TaskGraph {
    let sp = spec("soykb").unwrap();
    let mut g = TaskGraph::new();
    let combine = g.add_task("combine_variants", cost(rng, 180.0, &sp));
    for s in 0..samples {
        let align = g.add_task(format!("align_{s}"), cost(rng, 240.0, &sp));
        let sort = g.add_task(format!("sort_{s}"), cost(rng, 60.0, &sp));
        let dedup = g.add_task(format!("dedup_{s}"), cost(rng, 45.0, &sp));
        let realign = g.add_task(format!("realign_{s}"), cost(rng, 120.0, &sp));
        g.add_dependency(align, sort, io(rng, 40.0, &sp)).unwrap();
        g.add_dependency(sort, dedup, io(rng, 35.0, &sp)).unwrap();
        g.add_dependency(dedup, realign, io(rng, 30.0, &sp))
            .unwrap();
        g.add_dependency(realign, combine, io(rng, 25.0, &sp))
            .unwrap();
    }
    let merge = g.add_task("merge_gcvf", cost(rng, 60.0, &sp));
    for kind in ["snp", "indel"] {
        let select = g.add_task(format!("select_{kind}"), cost(rng, 60.0, &sp));
        let filter = g.add_task(format!("filter_{kind}"), cost(rng, 30.0, &sp));
        g.add_dependency(combine, select, io(rng, 20.0, &sp))
            .unwrap();
        g.add_dependency(select, filter, io(rng, 10.0, &sp))
            .unwrap();
        g.add_dependency(filter, merge, io(rng, 5.0, &sp)).unwrap();
    }
    g
}

/// srasearch (the paper's Fig. 9a): `n` branches of two parallel prefetch
/// tasks feeding a `fasterq_dump -> srasearch` chain, all collected by two
/// aggregators that join into one final task.
pub fn srasearch_graph(rng: &mut StdRng, n: usize) -> TaskGraph {
    let sp = spec("srasearch").unwrap();
    let mut g = TaskGraph::new();
    let t0 = g.add_task("ref_download", cost(rng, 30.0, &sp));
    let mut tails = Vec::with_capacity(n);
    for i in 0..n {
        let pre_a = g.add_task(format!("prefetch_a_{i}"), cost(rng, 60.0, &sp));
        let pre_b = g.add_task(format!("prefetch_b_{i}"), cost(rng, 60.0, &sp));
        let dump = g.add_task(format!("fasterq_dump_{i}"), cost(rng, 120.0, &sp));
        let search = g.add_task(format!("srasearch_{i}"), cost(rng, 240.0, &sp));
        g.add_dependency(t0, pre_a, io(rng, 2.0, &sp)).unwrap();
        g.add_dependency(t0, pre_b, io(rng, 2.0, &sp)).unwrap();
        g.add_dependency(pre_a, dump, io(rng, 30.0, &sp)).unwrap();
        g.add_dependency(pre_b, dump, io(rng, 30.0, &sp)).unwrap();
        g.add_dependency(dump, search, io(rng, 50.0, &sp)).unwrap();
        tails.push(search);
    }
    let agg_a = g.add_task("merge_hits", cost(rng, 30.0, &sp));
    let agg_b = g.add_task("merge_stats", cost(rng, 20.0, &sp));
    for &t in &tails {
        g.add_dependency(t, agg_a, io(rng, 10.0, &sp)).unwrap();
        g.add_dependency(t, agg_b, io(rng, 3.0, &sp)).unwrap();
    }
    let fin = g.add_task("report", cost(rng, 10.0, &sp));
    g.add_dependency(agg_a, fin, io(rng, 5.0, &sp)).unwrap();
    g.add_dependency(agg_b, fin, io(rng, 2.0, &sp)).unwrap();
    g
}

/// Builds a random-size task graph for the named workflow (the knob the
/// paper's Fig. 9 caption calls "the number of tasks may vary").
pub fn build_graph(name: &str, rng: &mut StdRng) -> TaskGraph {
    match name {
        "blast" => {
            let n = uniform_usize(rng, 8, 24);
            blast_graph(rng, n)
        }
        "bwa" => {
            let n = uniform_usize(rng, 8, 24);
            bwa_graph(rng, n)
        }
        "cycles" => {
            let n = uniform_usize(rng, 6, 16);
            cycles_graph(rng, n)
        }
        "epigenomics" => {
            let lanes = uniform_usize(rng, 2, 4);
            let fanout = uniform_usize(rng, 3, 6);
            epigenomics_graph(rng, lanes, fanout)
        }
        "genome" => {
            let individuals = uniform_usize(rng, 6, 14);
            let populations = uniform_usize(rng, 2, 4);
            genome_graph(rng, individuals, populations)
        }
        "montage" => {
            let n = uniform_usize(rng, 6, 14);
            montage_graph(rng, n)
        }
        "seismology" => {
            let n = uniform_usize(rng, 10, 40);
            seismology_graph(rng, n)
        }
        "soykb" => {
            let n = uniform_usize(rng, 4, 10);
            soykb_graph(rng, n)
        }
        "srasearch" => {
            let n = uniform_usize(rng, 4, 10);
            srasearch_graph(rng, n)
        }
        _ => panic!("unknown workflow {name}"),
    }
}

fn sample(name: &str, rng: &mut StdRng) -> Instance {
    let sp = spec(name).expect("known workflow");
    let g = build_graph(name, rng);
    Instance::new(sample_chameleon_network(rng, &sp), g)
}

/// Table II `blast` row.
pub fn sample_blast(rng: &mut StdRng) -> Instance {
    sample("blast", rng)
}
/// Table II `bwa` row.
pub fn sample_bwa(rng: &mut StdRng) -> Instance {
    sample("bwa", rng)
}
/// Table II `cycles` row.
pub fn sample_cycles(rng: &mut StdRng) -> Instance {
    sample("cycles", rng)
}
/// Table II `epigenomics` row.
pub fn sample_epigenomics(rng: &mut StdRng) -> Instance {
    sample("epigenomics", rng)
}
/// Table II `genome` row.
pub fn sample_genome(rng: &mut StdRng) -> Instance {
    sample("genome", rng)
}
/// Table II `montage` row.
pub fn sample_montage(rng: &mut StdRng) -> Instance {
    sample("montage", rng)
}
/// Table II `seismology` row.
pub fn sample_seismology(rng: &mut StdRng) -> Instance {
    sample("seismology", rng)
}
/// Table II `soykb` row.
pub fn sample_soykb(rng: &mut StdRng) -> Instance {
    sample("soykb", rng)
}
/// Table II `srasearch` row.
pub fn sample_srasearch(rng: &mut StdRng) -> Instance {
    sample("srasearch", rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn blast_matches_fig9b_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = blast_graph(&mut rng, 10);
        assert_eq!(g.task_count(), 13);
        // single source (split) with fan-out 10
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.successors(TaskId(0)).len(), 10);
        // two sinks, each with in-degree 10
        let sinks = g.sinks();
        assert_eq!(sinks.len(), 2);
        for s in sinks {
            assert_eq!(g.predecessors(s).len(), 10);
        }
    }

    #[test]
    fn srasearch_matches_fig9a_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5;
        let g = srasearch_graph(&mut rng, n);
        assert_eq!(g.task_count(), 1 + 4 * n + 3);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        // the final report joins exactly the two aggregators
        let fin = g.sinks()[0];
        assert_eq!(g.predecessors(fin).len(), 2);
    }

    #[test]
    fn seismology_is_a_star() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = seismology_graph(&mut rng, 12);
        assert_eq!(g.task_count(), 13);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.predecessors(TaskId(0)).len(), 12);
        assert_eq!(g.sources().len(), 12);
    }

    #[test]
    fn montage_is_layered_with_single_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = montage_graph(&mut rng, 8);
        assert_eq!(g.sinks().len(), 1, "mJPEG is the only sink");
        // depth: project -> diff -> concat -> bg -> background -> imgtbl ->
        // add -> shrink -> jpeg = 9 levels
        let order = g.topological_order();
        assert_eq!(order.len(), g.task_count());
    }

    #[test]
    fn epigenomics_lane_count_scales_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let small = epigenomics_graph(&mut rng, 2, 3);
        let big = epigenomics_graph(&mut rng, 4, 6);
        assert!(big.task_count() > small.task_count());
        assert_eq!(small.sinks().len(), 1);
    }

    #[test]
    fn chameleon_networks_have_infinite_links() {
        let mut rng = StdRng::seed_from_u64(6);
        let sp = spec("blast").unwrap();
        let n = sample_chameleon_network(&mut rng, &sp);
        assert!((4..=10).contains(&n.node_count()));
        for u in n.nodes() {
            for v in n.nodes() {
                assert!(n.link(u, v).is_infinite());
            }
            let s = n.speed(u);
            assert!(s >= sp.speed_range.0 && s <= sp.speed_range.1);
        }
        // infinite links => zero CCR contribution
        assert_eq!(n.mean_inverse_link(), 0.0);
    }

    #[test]
    fn costs_respect_spec_ranges() {
        let mut rng = StdRng::seed_from_u64(7);
        for name in WORKFLOW_NAMES {
            let sp = spec(name).unwrap();
            let g = build_graph(name, &mut rng);
            for t in g.tasks() {
                let c = g.cost(t);
                assert!(
                    c >= sp.runtime_range.0 && c <= sp.runtime_range.1,
                    "{name} cost {c} outside {:?}",
                    sp.runtime_range
                );
            }
            for (_, _, c) in g.dependencies() {
                assert!(
                    c >= sp.io_range.0 && c <= sp.io_range.1,
                    "{name} io {c} outside {:?}",
                    sp.io_range
                );
            }
        }
    }

    #[test]
    fn all_workflows_have_specs_and_build() {
        let mut rng = StdRng::seed_from_u64(8);
        for name in WORKFLOW_NAMES {
            assert!(spec(name).is_some());
            let g = build_graph(name, &mut rng);
            assert!(g.task_count() >= 5, "{name} too small");
            assert_eq!(g.topological_order().len(), g.task_count());
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn genome_structure() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = genome_graph(&mut rng, 6, 3);
        // 6 individuals + 2 sifting + 3 * (merge + freq)
        assert_eq!(g.task_count(), 6 + 2 + 6);
        assert_eq!(g.sources().len(), 6);
        assert_eq!(g.sinks().len(), 3);
    }

    #[test]
    fn soykb_structure() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = soykb_graph(&mut rng, 4);
        // 4 samples * 4 stages + combine + 2*(select+filter) + merge
        assert_eq!(g.task_count(), 16 + 1 + 4 + 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.sources().len(), 4);
    }
}
