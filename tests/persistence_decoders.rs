//! The persistence decoders against hostile input, and the record bytes
//! against a pinned format.
//!
//! Four decoders read files a crash, a disk fault or a hand edit can damage:
//! `CellCheckpoint::open` and `RowCheckpoint::open` with resume on,
//! `WitnessLibrary::from_jsonl` (plus `WitnessRecord::instance`), and the
//! `Instance` JSON value/text decoders. Random bytes and mutated valid lines
//! go through each one: nothing may panic, every checkpoint line that does
//! not decode must be counted in `skipped()`, and every encoded record must
//! decode to a bit-identical result. The pin test holds the encoders to
//! lines written by the previous encoder, byte for byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, TaskGraph, TaskId};
use saga::pisa::library::{WitnessLibrary, WitnessRecord};
use saga::pisa::PisaResult;
use saga_experiments::engine::{CellCheckpoint, RowCheckpoint};
use std::path::PathBuf;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "saga_persistence_decoders_{}_{tag}.jsonl",
        std::process::id()
    ))
}

/// Characters of every UTF-8 width, plus the ones JSON must escape.
const NAME_CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\t',
    '\u{1}',
    '\u{7f}',
    'é',
    'α',
    '€',
    'タ',
    '\u{ffff}',
    '🚀',
    '𝄞',
    '\u{10ffff}',
];

/// A weight the model accepts: zero of either sign, the extremes of the
/// finite range, or an arbitrary finite non-negative bit pattern.
fn weight(kind: usize, bits: u64) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1), // smallest subnormal
        3 => f64::MAX,
        _ => Some(f64::from_bits(bits >> 1)) // sign bit cleared
            .filter(|x| x.is_finite())
            .unwrap_or(1.0),
    }
}

fn arb_weights(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0usize..8, any::<u64>()), n)
        .prop_map(|ws| ws.into_iter().map(|(k, b)| weight(k, b)).collect())
}

/// A random DAG instance (up to 6 tasks, 4 nodes) whose weights span the
/// whole valid range, with infinite links and zero-speed nodes, and whose
/// task names mix 1- to 4-byte characters with characters JSON escapes.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        (1usize..=6, 1usize..=4),
        proptest::collection::vec(proptest::collection::vec(0..NAME_CHARS.len(), 0..6), 6),
        arb_weights(6),                               // task costs
        arb_weights(36),                              // dep costs
        proptest::collection::vec(any::<bool>(), 36), // edge mask
        arb_weights(4),                               // speeds
        arb_weights(16),                              // links
        proptest::collection::vec(0usize..4, 16),     // 0 = infinite link
    )
        .prop_map(
            |((nt, nv), names, costs, dep_costs, mask, speeds, links, inf)| {
                let mut g = TaskGraph::new();
                for i in 0..nt {
                    let name: String = names[i].iter().map(|&c| NAME_CHARS[c]).collect();
                    g.add_task(name, costs[i]);
                }
                for i in 0..nt {
                    for j in (i + 1)..nt {
                        if mask[i * 6 + j] {
                            g.add_dependency(
                                TaskId(i as u32),
                                TaskId(j as u32),
                                dep_costs[i * 6 + j],
                            )
                            .unwrap();
                        }
                    }
                }
                let mut net = Network::complete(&speeds[..nv], 1.0);
                for u in 0..nv {
                    for v in (u + 1)..nv {
                        let s = if inf[u * 4 + v] == 0 {
                            f64::INFINITY
                        } else {
                            links[u * 4 + v]
                        };
                        net.set_link(NodeId(u as u32), NodeId(v as u32), s);
                    }
                }
                Instance::new(net, g)
            },
        )
}

/// An instance as exact bit patterns (a zero's sign included): speeds,
/// links, named task costs, and the dependencies in canonical order.
type InstanceBits = (Vec<u64>, Vec<u64>, Vec<(String, u64)>, Vec<(u32, u32, u64)>);

fn instance_bits(inst: &Instance) -> InstanceBits {
    let g = &inst.graph;
    let mut deps: Vec<_> = g
        .dependencies()
        .map(|(a, b, c)| (a.0, b.0, c.to_bits()))
        .collect();
    deps.sort_unstable();
    (
        inst.network.speeds().iter().map(|x| x.to_bits()).collect(),
        inst.network.links().iter().map(|x| x.to_bits()).collect(),
        g.tasks()
            .map(|t| (g.name(t).to_string(), g.cost(t).to_bits()))
            .collect(),
        deps,
    )
}

fn result_bits(r: &PisaResult) -> (InstanceBits, u64, u64, usize) {
    (
        instance_bits(&r.instance),
        r.ratio.to_bits(),
        r.initial_ratio.to_bits(),
        r.evaluations,
    )
}

/// A ratio as the annealer reports it: finite and positive, unbounded,
/// or (for the checkpoint's hex bits) an arbitrary bit pattern.
fn arb_ratio() -> impl Strategy<Value = f64> {
    (0usize..4, 1.0f64..1e6, any::<u64>()).prop_map(|(k, x, b)| match k {
        0 => f64::INFINITY,
        1 => f64::from_bits(b),
        _ => x,
    })
}

/// Evaluation counts up to 2^53: a JSON number holds every integer that
/// far exactly.
fn arb_evaluations() -> impl Strategy<Value = usize> {
    (0usize..3, 0usize..100_000, 0u64..=(1 << 53)).prop_map(|(k, small, big)| match k {
        0 => big as usize,
        _ => small,
    })
}

fn arb_key() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..NAME_CHARS.len(), 0..12)
        .prop_map(|cs| cs.into_iter().map(|c| NAME_CHARS[c]).collect())
}

fn arb_result() -> impl Strategy<Value = PisaResult> {
    (arb_instance(), arb_ratio(), arb_ratio(), arb_evaluations()).prop_map(
        |(instance, ratio, initial_ratio, evaluations)| PisaResult {
            instance,
            ratio,
            initial_ratio,
            evaluations,
        },
    )
}

/// One random edit of a line's bytes: a byte flip, a cut, an insertion, a
/// duplicated span, or (most often, to reach the semantic checks behind a
/// well-formed parse) a number swapped for a hostile token.
fn mutate(line: &mut Vec<u8>, rng: &mut StdRng) {
    const TOKENS: &[&str] = &[
        "-1",
        "-0",
        "0",
        "1e999",
        "-1e999",
        "4294967296",
        "0.5",
        "7",
        "null",
        "true",
        "\"x\"",
        "[]",
        "{}",
        "[0,1]",
        "[1,0,1]",
        "\"\\ud800\"",
    ];
    if line.is_empty() {
        line.push(rng.gen());
        return;
    }
    let at = rng.gen_range(0..line.len());
    match rng.gen_range(0..9) {
        0 => line[at] = rng.gen(),
        1 => line.truncate(at),
        2 => {
            let end = (at + rng.gen_range(1..8)).min(line.len());
            line.drain(at..end);
        }
        3 => {
            let junk: Vec<u8> = (0..rng.gen_range(1..4)).map(|_| rng.gen()).collect();
            line.splice(at..at, junk);
        }
        4 => {
            let end = (at + rng.gen_range(1..16)).min(line.len());
            let span = line[at..end].to_vec();
            line.splice(at..at, span);
        }
        _ => {
            // the first number starting at or after `at`
            let is_num = |b: u8| b.is_ascii_digit() || matches!(b, b'-' | b'.' | b'e' | b'+');
            let Some(start) = (at..line.len())
                .find(|&i| line[i].is_ascii_digit() && (i == 0 || !is_num(line[i - 1])))
            else {
                return;
            };
            let end = (start..line.len())
                .find(|&i| !is_num(line[i]))
                .unwrap_or(line.len());
            let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
            line.splice(start..end, token.iter().copied());
        }
    }
}

/// `count` lines built from `valid` with 0-3 mutations each, joined with
/// `\n` (and sometimes `\r\n`, a blank line or a missing final newline).
fn mutated_file(valid: &[Vec<u8>], seed: u64, count: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..count {
        let mut line = valid[rng.gen_range(0..valid.len())].clone();
        for _ in 0..rng.gen_range(0..4) {
            mutate(&mut line, &mut rng);
        }
        out.extend_from_slice(&line);
        match rng.gen_range(0..8) {
            0 => out.extend_from_slice(b"\r\n"),
            1 => out.extend_from_slice(b"\n\n"),
            _ => out.push(b'\n'),
        }
    }
    if rng.gen_range(0..4) == 0 {
        out.pop();
    }
    out
}

/// Random bytes biased toward JSON structure, so some lines get deep into
/// the parser before failing.
fn random_file(seed: u64, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"{}[]\":,\\n0123456789.-e \nuk";
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                rng.gen()
            } else {
                ALPHABET[rng.gen_range(0..ALPHABET.len())]
            }
        })
        .collect()
}

/// The non-blank lines `open` sees, exactly as its line splitter cuts them.
fn file_lines(bytes: &[u8]) -> Vec<&[u8]> {
    bytes
        .split(|&b| b == b'\n')
        .map(|l| l.strip_suffix(b"\r").unwrap_or(l))
        .filter(|l| std::str::from_utf8(l).map_or(true, |s| !s.trim().is_empty()))
        .collect()
}

/// Opens `bytes` as a checkpoint with resume on; it must succeed, and its
/// skipped count must equal the number of lines that fail to load on their
/// own. Returns the opened checkpoint.
fn open_counts_every_rejected_line<C>(
    tag: &str,
    bytes: &[u8],
    open: impl Fn(&std::path::Path) -> std::io::Result<C>,
    counts: impl Fn(&C) -> (usize, usize),
) -> C {
    let path = tmp_path(tag);
    let single = tmp_path(&format!("{tag}_line"));
    let mut rejected = 0;
    for line in file_lines(bytes) {
        std::fs::write(&single, line).unwrap();
        let (loaded, skipped) = counts(&open(&single).unwrap());
        assert_eq!(loaded + skipped, 1, "one line either loads or is skipped");
        rejected += skipped;
    }
    std::fs::write(&path, bytes).unwrap();
    let ck = open(&path).unwrap();
    assert_eq!(counts(&ck).1, rejected, "every rejected line is counted");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&single);
    ck
}

/// The checkpoint lines `record` writes for `results`.
fn cell_lines(tag: &str, results: &[(String, PisaResult)]) -> Vec<Vec<u8>> {
    let path = tmp_path(tag);
    let ck = CellCheckpoint::open(&path, false).unwrap();
    for (key, r) in results {
        ck.record(key, r).unwrap();
    }
    drop(ck);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect()
}

fn join_lines(lines: &[Vec<u8>]) -> Vec<u8> {
    lines
        .iter()
        .flat_map(|l| l.iter().copied().chain([b'\n']))
        .collect()
}

fn open_cells(bytes: &[u8], tag: &str) -> CellCheckpoint {
    open_counts_every_rejected_line(
        tag,
        bytes,
        |p| CellCheckpoint::open(p, true),
        |ck| (ck.loaded(), ck.skipped()),
    )
}

fn open_rows(bytes: &[u8], tag: &str) -> RowCheckpoint {
    open_counts_every_rejected_line(
        tag,
        bytes,
        |p| RowCheckpoint::open(p, true),
        |ck| (ck.loaded(), ck.skipped()),
    )
}

/// Every decoder an instance-bearing line reaches; none may panic.
fn decode_instance_everywhere(text: &str) {
    let _ = Instance::from_json(text);
    if let Ok(v) = serde_json::from_str::<serde_json::Value>(text) {
        let _ = serde_json::from_value::<Instance>(&v);
        if let Some(inst) = v.get("instance") {
            let _ = serde_json::from_value::<Instance>(inst);
        }
    }
    if let Ok(lib) = WitnessLibrary::from_jsonl(text) {
        for r in &lib.records {
            let _ = r.instance();
            let _ = r.ratio_value();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn instance_value_and_text_round_trip_bit_identically(inst in arb_instance()) {
        let want = instance_bits(&inst);
        let value = serde_json::to_value(&inst).unwrap();
        let via_value: Instance = serde_json::from_value(&value).unwrap();
        prop_assert_eq!(instance_bits(&via_value), want.clone());
        let via_text = Instance::from_json(&inst.to_json()).unwrap();
        prop_assert_eq!(instance_bits(&via_text), want);
        // the pretty text parses back to exactly the value form
        let reparsed: serde_json::Value = serde_json::from_str(&inst.to_json()).unwrap();
        prop_assert_eq!(reparsed, value);
    }

    #[test]
    fn cell_records_round_trip_bit_identically(
        results in proptest::collection::vec((arb_key(), arb_result()), 1..4)
    ) {
        let lines = cell_lines("cell_round_trip_encode", &results);
        prop_assert_eq!(lines.len(), results.len());
        let ck = open_cells(&join_lines(&lines), "cell_round_trip");
        prop_assert_eq!(ck.skipped(), 0);
        // a later record under a repeated key wins, as on replay
        let last: std::collections::BTreeMap<_, _> =
            results.iter().map(|(k, r)| (k.clone(), r)).collect();
        prop_assert_eq!(ck.loaded(), last.len());
        for (key, r) in last {
            prop_assert_eq!(result_bits(&ck.stored(&key).unwrap()), result_bits(r));
        }
    }

    #[test]
    fn witness_lines_round_trip_bit_identically(
        witnesses in proptest::collection::vec((arb_key(), arb_key(), arb_ratio(), arb_instance()), 0..4)
    ) {
        let lib = WitnessLibrary {
            records: witnesses
                .iter()
                .map(|(t, b, ratio, inst)| WitnessRecord::new(t, b, ratio.abs(), inst))
                .collect(),
        };
        let back = WitnessLibrary::from_jsonl(&lib.to_jsonl()).unwrap();
        prop_assert_eq!(back.records.len(), witnesses.len());
        for (r, (t, b, ratio, inst)) in back.records.iter().zip(&witnesses) {
            prop_assert_eq!(&r.target, t);
            prop_assert_eq!(&r.baseline, b);
            let ratio = ratio.abs();
            let want = if ratio.is_finite() { ratio } else { f64::INFINITY };
            prop_assert_eq!(r.ratio_value().to_bits(), want.to_bits());
            prop_assert_eq!(instance_bits(&r.instance().unwrap()), instance_bits(inst));
        }
        prop_assert_eq!(back.to_jsonl(), lib.to_jsonl());
    }

    #[test]
    fn mutated_lines_never_panic_and_every_rejected_line_is_counted(
        results in proptest::collection::vec((arb_key(), arb_result()), 1..4),
        rows in proptest::collection::vec((arb_key(), arb_weights(5)), 1..4),
        seed in any::<u64>(),
    ) {
        let cells = cell_lines("cell_mutated_encode", &results);
        let cell_file = mutated_file(&cells, seed, 12);
        open_cells(&cell_file, "cell_mutated");

        let row_path = tmp_path("row_encode");
        let ck = RowCheckpoint::open(&row_path, false).unwrap();
        for (key, row) in &rows {
            ck.record(key, row).unwrap();
        }
        drop(ck);
        let row_bytes = std::fs::read(&row_path).unwrap();
        let _ = std::fs::remove_file(&row_path);
        let row_lines: Vec<Vec<u8>> = file_lines(&row_bytes).into_iter().map(<[u8]>::to_vec).collect();
        open_rows(&mutated_file(&row_lines, seed ^ 1, 12), "row_mutated");

        // the same mutations through the witness and instance decoders
        let witness_lines: Vec<Vec<u8>> = results
            .iter()
            .map(|(k, r)| {
                let w = WitnessRecord::new(k, k, r.ratio, &r.instance);
                serde_json::to_string(&w).unwrap().into_bytes()
            })
            .collect();
        let pretty: Vec<Vec<u8>> = results.iter().map(|(_, r)| r.instance.to_json().into_bytes()).collect();
        for file in [mutated_file(&witness_lines, seed ^ 2, 8), mutated_file(&pretty, seed ^ 3, 1), cell_file] {
            decode_instance_everywhere(&String::from_utf8_lossy(&file));
            for line in file_lines(&file) {
                decode_instance_everywhere(&String::from_utf8_lossy(line));
            }
        }
    }

    #[test]
    fn random_bytes_never_panic_and_every_line_is_counted(seed in any::<u64>(), len in 0usize..600) {
        let bytes = random_file(seed, len);
        open_cells(&bytes, "cell_random");
        open_rows(&bytes, "row_random");
        let text = String::from_utf8_lossy(&bytes);
        decode_instance_everywhere(&text);
        for line in file_lines(&bytes) {
            decode_instance_everywhere(&String::from_utf8_lossy(line));
        }
    }
}

#[test]
fn well_formed_json_of_invalid_instances_is_an_error() {
    let ok =
        r#"{"speeds":[1,2],"links":[null,1,1,null],"tasks":[["a",1],["b",2]],"deps":[[0,1,3]]}"#;
    assert!(Instance::from_json(ok).is_ok());
    for bad in [
        // ragged, asymmetric or negative network
        r#"{"speeds":[1,2],"links":[null,1,1],"tasks":[],"deps":[]}"#,
        r#"{"speeds":[1,2],"links":[null,1,2,null],"tasks":[],"deps":[]}"#,
        r#"{"speeds":[1,2],"links":[null,1,null,null],"tasks":[],"deps":[]}"#,
        r#"{"speeds":[-1,2],"links":[null,1,1,null],"tasks":[],"deps":[]}"#,
        r#"{"speeds":[1,2],"links":[null,-1,-1,null],"tasks":[],"deps":[]}"#,
        // invalid task costs
        r#"{"speeds":[1],"links":[null],"tasks":[["a",-1]],"deps":[]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1e999]],"deps":[]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",null]],"deps":[]}"#,
        // invalid dependencies
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1],["b",1]],"deps":[[0,1,1],[1,0,1]]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1]],"deps":[[0,0,1]]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1]],"deps":[[0,1,1]]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1]],"deps":[[0,4294967296,1]]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1],["b",1]],"deps":[[0,1,-2]]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[["a",1],["b",1]],"deps":[[0,1,1],[0,1,1]]}"#,
        // wrong shapes
        r#"{"speeds":[1],"links":[null],"tasks":[["a"]],"deps":[]}"#,
        r#"{"speeds":[1],"links":[null],"tasks":[]}"#,
        r#"[]"#,
    ] {
        assert!(Instance::from_json(bad).is_err(), "{bad}");
        let line = format!(r#"{{"target":"HEFT","baseline":"CPoP","ratio":2,"instance":{bad}}}"#);
        let lib = WitnessLibrary::from_jsonl(&line).unwrap();
        assert!(lib.records[0].instance().is_err(), "{bad}");
        assert_eq!(lib.revalidate(), 1, "an undecodable witness is a mismatch");
    }
    // nesting past the parser's limit is an error, not a stack overflow
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(Instance::from_json(&deep).is_err());
    let cells = open_cells(deep.as_bytes(), "cell_deep");
    assert_eq!((cells.loaded(), cells.skipped()), (0, 1));
}

/// A cell-checkpoint line and a witness line written by the encoders
/// before instances had a JSON value form (through a pretty-print and
/// re-parse). They cover an unbounded ratio (`"ratio":null`), infinite
/// self-links and an infinite non-self link, a zero-speed node, task names
/// with 2-, 3- and 4-byte characters next to escapes, and floats that print
/// long (`0.30000000000000004`, `0.0000003`, `602000000000000000000000`).
const PINNED_CELL_LINE: &str = r#"{"key":"app/blast/HEFT-vs-CPoP#ccr0.5#i20#r1#s000000000000a551","ratio_bits":"7ff0000000000000","initial_bits":"3ff4000000000000","evaluations":1234,"ratio":null,"instance":{"speeds":[1.5,0,2],"links":[null,0.25,null,0.25,null,0.001,null,0.001,null],"tasks":[["α-start",1],["タスク\t2",0.30000000000000004],["🚀 \"end\"\\",0.0000003]],"deps":[[0,1,2.5],[0,2,0],[1,2,602000000000000000000000]]}}"#;
const PINNED_WITNESS_LINE: &str = r#"{"target":"HEFT","baseline":"CPoP","ratio":null,"instance":{"speeds":[1.5,0,2],"links":[null,0.25,null,0.25,null,0.001,null,0.001,null],"tasks":[["α-start",1],["タスク\t2",0.30000000000000004],["🚀 \"end\"\\",0.0000003]],"deps":[[0,1,2.5],[0,2,0],[1,2,602000000000000000000000]]}}"#;
const PINNED_KEY: &str = "app/blast/HEFT-vs-CPoP#ccr0.5#i20#r1#s000000000000a551";

fn pinned_result() -> PisaResult {
    let inf = f64::INFINITY;
    #[rustfmt::skip]
    let links = vec![
        inf,  0.25, inf,
        0.25, inf,  1e-3,
        inf,  1e-3, inf,
    ];
    let network = Network::from_matrix(vec![1.5, 0.0, 2.0], links);
    let mut g = TaskGraph::new();
    let a = g.add_task("α-start", 1.0);
    let b = g.add_task("タスク\t2", 0.1 + 0.2);
    let c = g.add_task("🚀 \"end\"\\", 3e-7);
    g.add_dependency(a, b, 2.5).unwrap();
    g.add_dependency(b, c, 6.02e23).unwrap();
    g.add_dependency(a, c, 0.0).unwrap();
    PisaResult {
        instance: Instance::new(network, g),
        ratio: f64::INFINITY,
        initial_ratio: 1.25,
        evaluations: 1234,
    }
}

#[test]
fn encoders_reproduce_the_pinned_record_bytes() {
    let res = pinned_result();
    let cells = cell_lines(
        "cell_pinned_encode",
        &[(PINNED_KEY.to_string(), res.clone())],
    );
    assert_eq!(cells, vec![PINNED_CELL_LINE.as_bytes().to_vec()]);
    let lib = WitnessLibrary {
        records: vec![WitnessRecord::new("HEFT", "CPoP", res.ratio, &res.instance)],
    };
    assert_eq!(lib.to_jsonl(), format!("{PINNED_WITNESS_LINE}\n"));
}

#[test]
fn pinned_lines_decode_with_nothing_skipped() {
    let want = pinned_result();
    let ck = open_cells(format!("{PINNED_CELL_LINE}\n").as_bytes(), "cell_pinned");
    assert_eq!((ck.loaded(), ck.skipped()), (1, 0));
    assert_eq!(
        result_bits(&ck.stored(PINNED_KEY).unwrap()),
        result_bits(&want)
    );
    let lib = WitnessLibrary::from_jsonl(PINNED_WITNESS_LINE).unwrap();
    let r = &lib.records[0];
    assert_eq!(
        (r.target.as_str(), r.baseline.as_str(), r.ratio),
        ("HEFT", "CPoP", None)
    );
    assert_eq!(
        instance_bits(&r.instance().unwrap()),
        instance_bits(&want.instance)
    );
}
