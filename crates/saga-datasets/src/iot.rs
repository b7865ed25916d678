//! IoT data-streaming dataset generators (`etl`, `predict`, `stats`,
//! `train`) and the edge/fog/cloud networks of Varshney et al., per the
//! paper's Table II.
//!
//! Task-graph structure follows the four RIoTBench applications. Node
//! weights come from the paper's clipped gaussian (mean 35, std 25/3, min
//! 10, max 60); the application *input size* comes from the clipped gaussian
//! (mean 1000, std 500/3, min 500, max 1500) and each edge weight is the
//! input size scaled by the known input/output ratio of its producing task
//! (fixed per template, as in the paper).
//!
//! Networks: complete graphs with edge nodes (speed 1), fog nodes (speed 6)
//! and cloud nodes (speed 50); link strengths 60 between edge and fog (and,
//! to complete the graph, edge–edge and edge–cloud), 100 between fog and
//! fog/cloud, and infinite between cloud nodes — the paper's constants.

use rand::rngs::StdRng;
use saga_core::dist::{clipped_gaussian, uniform_usize};
use saga_core::{Instance, Network, TaskGraph, TaskId};

/// Node-weight distribution of the paper: `N(35, 25/3)` clipped to [10, 60].
fn task_cost(rng: &mut StdRng) -> f64 {
    clipped_gaussian(rng, 35.0, 25.0 / 3.0, 10.0, 60.0)
}

/// Input-size distribution of the paper: `N(1000, 500/3)` clipped to
/// [500, 1500].
fn input_size(rng: &mut StdRng) -> f64 {
    clipped_gaussian(rng, 1000.0, 500.0 / 3.0, 500.0, 1500.0)
}

/// One task template: display name plus the output/input ratio of the task
/// (its outgoing edges carry `incoming_size * ratio`).
struct Stage(&'static str, f64);

/// Builds a linear-with-branches pipeline from templates: `stages` is the
/// backbone; `branches` lists (attach_index, stage) side outputs that rejoin
/// at `rejoin_index` (or become sinks if `rejoin_index` is `None`).
fn pipeline(
    rng: &mut StdRng,
    stages: &[Stage],
    branches: &[(usize, Stage, Option<usize>)],
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let input = input_size(rng);
    let mut ids: Vec<TaskId> = Vec::with_capacity(stages.len());
    let mut sizes: Vec<f64> = Vec::with_capacity(stages.len());
    for (i, s) in stages.iter().enumerate() {
        let id = g.add_task(s.0, task_cost(rng));
        let out = if i == 0 {
            input * s.1
        } else {
            sizes[i - 1] * s.1
        };
        if i > 0 {
            g.add_dependency(ids[i - 1], id, sizes[i - 1]).unwrap();
        }
        ids.push(id);
        sizes.push(out);
    }
    for (attach, stage, rejoin) in branches {
        let id = g.add_task(stage.0, task_cost(rng));
        let in_size = sizes[*attach];
        g.add_dependency(ids[*attach], id, in_size).unwrap();
        if let Some(r) = rejoin {
            g.add_dependency(id, ids[*r], in_size * stage.1).unwrap();
        }
    }
    g
}

/// RIoTBench ETL: parse, range & bloom filters, interpolation, join,
/// annotate, CSV-to-SenML, with MQTT-publish and store sinks.
pub fn etl_graph(rng: &mut StdRng) -> TaskGraph {
    pipeline(
        rng,
        &[
            Stage("senml_parse", 1.0),
            Stage("range_filter", 0.95),
            Stage("bloom_filter", 0.9),
            Stage("interpolate", 1.0),
            Stage("join", 1.0),
            Stage("annotate", 1.05),
            Stage("csv_to_senml", 1.0),
        ],
        &[
            // sink branches: publish + archive
            (6, Stage("mqtt_publish", 0.0), None),
            (6, Stage("azure_insert", 0.0), None),
        ],
    )
}

/// RIoTBench STATS: parse fans out to three analytics (average, Kalman +
/// sliding window, distinct count) that rejoin at a group-viz task.
pub fn stats_graph(rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let input = input_size(rng);
    let parse = g.add_task("senml_parse", task_cost(rng));
    let avg = g.add_task("average", task_cost(rng));
    let kalman = g.add_task("kalman", task_cost(rng));
    let window = g.add_task("sliding_window", task_cost(rng));
    let distinct = g.add_task("distinct_count", task_cost(rng));
    let viz = g.add_task("group_viz", task_cost(rng));
    let publish = g.add_task("mqtt_publish", task_cost(rng));
    g.add_dependency(parse, avg, input).unwrap();
    g.add_dependency(parse, kalman, input).unwrap();
    g.add_dependency(parse, distinct, input).unwrap();
    g.add_dependency(kalman, window, input * 0.9).unwrap();
    g.add_dependency(avg, viz, input * 0.1).unwrap();
    g.add_dependency(window, viz, input * 0.2).unwrap();
    g.add_dependency(distinct, viz, input * 0.05).unwrap();
    g.add_dependency(viz, publish, input * 0.3).unwrap();
    g
}

/// RIoTBench PREDICT: parse fans out to a decision tree and a linear
/// regression; both feed error estimation, then publish, with a blob read
/// feeding the model tasks.
pub fn predict_graph(rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let input = input_size(rng);
    let source = g.add_task("mqtt_subscribe", task_cost(rng));
    let blob = g.add_task("blob_read_model", task_cost(rng));
    let parse = g.add_task("senml_parse", task_cost(rng));
    let tree = g.add_task("decision_tree", task_cost(rng));
    let reg = g.add_task("linear_regression", task_cost(rng));
    let avg = g.add_task("average", task_cost(rng));
    let err = g.add_task("error_estimate", task_cost(rng));
    let publish = g.add_task("mqtt_publish", task_cost(rng));
    g.add_dependency(source, parse, input).unwrap();
    g.add_dependency(parse, tree, input).unwrap();
    g.add_dependency(parse, reg, input).unwrap();
    g.add_dependency(parse, avg, input).unwrap();
    g.add_dependency(blob, tree, input * 0.5).unwrap();
    g.add_dependency(blob, reg, input * 0.5).unwrap();
    g.add_dependency(tree, err, input * 0.2).unwrap();
    g.add_dependency(reg, err, input * 0.2).unwrap();
    g.add_dependency(avg, err, input * 0.1).unwrap();
    g.add_dependency(err, publish, input * 0.15).unwrap();
    g
}

/// RIoTBench TRAIN: timer-driven fetch, table read, model training (linear
/// regression + decision tree), blob writes, and an MQTT announce.
pub fn train_graph(rng: &mut StdRng) -> TaskGraph {
    let mut g = TaskGraph::new();
    let input = input_size(rng);
    let timer = g.add_task("timer_source", task_cost(rng));
    let fetch = g.add_task("table_read", task_cost(rng));
    let annotate = g.add_task("annotate", task_cost(rng));
    let reg = g.add_task("linear_regression_train", task_cost(rng));
    let tree = g.add_task("decision_tree_train", task_cost(rng));
    let blob_r = g.add_task("blob_write_model_r", task_cost(rng));
    let blob_t = g.add_task("blob_write_model_t", task_cost(rng));
    let publish = g.add_task("mqtt_publish", task_cost(rng));
    g.add_dependency(timer, fetch, input * 0.01).unwrap();
    g.add_dependency(fetch, annotate, input).unwrap();
    g.add_dependency(annotate, reg, input).unwrap();
    g.add_dependency(annotate, tree, input).unwrap();
    g.add_dependency(reg, blob_r, input * 0.3).unwrap();
    g.add_dependency(tree, blob_t, input * 0.3).unwrap();
    g.add_dependency(blob_r, publish, input * 0.01).unwrap();
    g.add_dependency(blob_t, publish, input * 0.01).unwrap();
    g
}

/// Samples the paper's edge/fog/cloud network: 75–125 edge nodes (speed 1),
/// 3–7 fog nodes (speed 6), 1–10 cloud nodes (speed 50); link strengths
/// edge–{edge,fog,cloud} 60, fog–{fog,cloud} 100, cloud–cloud infinite.
pub fn sample_edge_fog_cloud(rng: &mut StdRng) -> Network {
    let edge = uniform_usize(rng, 75, 125);
    let fog = uniform_usize(rng, 3, 7);
    let cloud = uniform_usize(rng, 1, 10);
    build_edge_fog_cloud(edge, fog, cloud)
}

/// Link strengths between the tiers, indexed `[tier][tier]` in the order
/// edge, fog, cloud (the diagonal of the whole matrix is forced to
/// infinity by [`Network::from_matrix`]).
const TIER_LINKS: [[f64; 3]; 3] = [
    [60.0, 60.0, 60.0],
    [60.0, 100.0, 100.0],
    [60.0, 100.0, f64::INFINITY],
];

/// Deterministic edge/fog/cloud network with explicit tier sizes. Each
/// row of the link matrix is three constant runs, one per tier, so rows
/// are filled a tier block at a time.
pub fn build_edge_fog_cloud(edge: usize, fog: usize, cloud: usize) -> Network {
    let sizes = [edge, fog, cloud];
    let n = edge + fog + cloud;
    let mut speeds = Vec::with_capacity(n);
    let mut links = Vec::with_capacity(n * n);
    for (tier, &size) in sizes.iter().enumerate() {
        speeds.resize(speeds.len() + size, [1.0, 6.0, 50.0][tier]);
        for _ in 0..size {
            for (&strength, &block) in TIER_LINKS[tier].iter().zip(&sizes) {
                links.resize(links.len() + block, strength);
            }
        }
    }
    Network::from_matrix(speeds, links)
}

/// Table II `etl` row.
pub fn sample_etl(rng: &mut StdRng) -> Instance {
    Instance::new(sample_edge_fog_cloud(rng), etl_graph(rng))
}
/// Table II `predict` row.
pub fn sample_predict(rng: &mut StdRng) -> Instance {
    Instance::new(sample_edge_fog_cloud(rng), predict_graph(rng))
}
/// Table II `stats` row.
pub fn sample_stats(rng: &mut StdRng) -> Instance {
    Instance::new(sample_edge_fog_cloud(rng), stats_graph(rng))
}
/// Table II `train` row.
pub fn sample_train(rng: &mut StdRng) -> Instance {
    Instance::new(sample_edge_fog_cloud(rng), train_graph(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn task_costs_follow_paper_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let c = task_cost(&mut rng);
            assert!((10.0..=60.0).contains(&c));
        }
        let mean: f64 = (0..5000).map(|_| task_cost(&mut rng)).sum::<f64>() / 5000.0;
        assert!((mean - 35.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn input_sizes_follow_paper_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = input_size(&mut rng);
            assert!((500.0..=1500.0).contains(&s));
        }
    }

    #[test]
    fn edge_fog_cloud_network_constants() {
        let n = build_edge_fog_cloud(3, 2, 2);
        use saga_core::NodeId;
        assert_eq!(n.node_count(), 7);
        assert_eq!(n.speed(NodeId(0)), 1.0);
        assert_eq!(n.speed(NodeId(3)), 6.0);
        assert_eq!(n.speed(NodeId(5)), 50.0);
        // edge-fog 60
        assert_eq!(n.link(NodeId(0), NodeId(3)), 60.0);
        // edge-edge 60
        assert_eq!(n.link(NodeId(0), NodeId(1)), 60.0);
        // fog-fog and fog-cloud 100
        assert_eq!(n.link(NodeId(3), NodeId(4)), 100.0);
        assert_eq!(n.link(NodeId(3), NodeId(5)), 100.0);
        // edge-cloud 60
        assert_eq!(n.link(NodeId(0), NodeId(5)), 60.0);
        // cloud-cloud infinite
        assert!(n.link(NodeId(5), NodeId(6)).is_infinite());
    }

    #[test]
    fn tier_blocks_match_the_per_entry_tier_rule() {
        use saga_core::NodeId;
        for (edge, fog, cloud) in [(3, 2, 2), (0, 3, 1), (5, 0, 0), (75, 7, 10), (1, 1, 1)] {
            let n = build_edge_fog_cloud(edge, fog, cloud);
            let tier = |v: usize| usize::from(v >= edge) + usize::from(v >= edge + fog);
            for u in 0..n.node_count() {
                assert_eq!(n.speed(NodeId(u as u32)), [1.0, 6.0, 50.0][tier(u)]);
                for v in 0..n.node_count() {
                    let expect = match (tier(u), tier(v)) {
                        _ if u == v => f64::INFINITY,
                        (2, 2) => f64::INFINITY,
                        (1, 1) | (1, 2) | (2, 1) => 100.0,
                        _ => 60.0,
                    };
                    assert_eq!(
                        n.link(NodeId(u as u32), NodeId(v as u32)).to_bits(),
                        expect.to_bits(),
                        "{edge}/{fog}/{cloud}: link {u}-{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_network_sizes_in_paper_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let n = sample_edge_fog_cloud(&mut rng);
            assert!((75 + 3 + 1..=125 + 7 + 10).contains(&n.node_count()));
        }
    }

    #[test]
    fn all_four_apps_are_dags_with_right_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let etl = etl_graph(&mut rng);
        assert_eq!(etl.task_count(), 9);
        assert_eq!(etl.sinks().len(), 2, "publish + archive");
        let stats = stats_graph(&mut rng);
        assert_eq!(stats.task_count(), 7);
        assert_eq!(stats.sinks().len(), 1);
        let predict = predict_graph(&mut rng);
        assert_eq!(predict.task_count(), 8);
        assert_eq!(predict.sources().len(), 2, "subscribe + blob model");
        let train = train_graph(&mut rng);
        assert_eq!(train.task_count(), 8);
        assert_eq!(train.sinks().len(), 1);
        for g in [etl, stats, predict, train] {
            assert_eq!(g.topological_order().len(), g.task_count());
        }
    }

    #[test]
    fn pipeline_branches_can_rejoin() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = pipeline(
            &mut rng,
            &[Stage("a", 1.0), Stage("b", 1.0), Stage("c", 1.0)],
            &[(0, Stage("side", 0.5), Some(2))],
        );
        // backbone a->b->c plus side branch a->side->c
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.dependency_count(), 4);
        let side = TaskId(3);
        assert_eq!(g.predecessors(side).len(), 1);
        assert_eq!(g.successors(side).len(), 1);
        assert_eq!(g.sinks().len(), 1);
    }

    #[test]
    fn edge_weights_scale_with_input_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = stats_graph(&mut rng);
        // every edge weight is within [500*0.05, 1500] by construction
        for (_, _, c) in g.dependencies() {
            assert!(
                (500.0 * 0.05 - 1e-9..=1500.0 + 1e-9).contains(&c),
                "edge {c}"
            );
        }
    }
}
