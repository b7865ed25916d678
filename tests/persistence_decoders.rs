//! The persistence decoders against hostile input, the one-pass decoders
//! against the value tree, and the record bytes against a pinned format.
//!
//! Five decoders read files a crash, a disk fault or a hand edit can
//! damage:
//! - `CellCheckpoint::open` and `RowCheckpoint::open` with resume on, which
//!   decode each line in one pass with `serde_json::Reader`
//!   (`Checkpoint::decode_line`);
//! - `Instance::from_json`, which reads an instance's text in one pass too;
//! - the `Instance` value-tree decoder (`Deserialize`);
//! - `WitnessLibrary::from_jsonl` (plus `WitnessRecord::instance`), which
//!   keeps the value tree.
//!
//! Random bytes and mutated valid lines go through each one: nothing may
//! panic, every checkpoint line that does not decode, or that repeats a
//! loaded key with a different record, must be counted in `skipped()`, and
//! every encoded record must decode to a bit-identical result. The
//! one-pass decoders must give what the value tree gives, bit for bit and
//! line by line. The oracle is a derived decode of the record's fields
//! from `serde_json::from_str`, the decoder the one-pass ones replaced. It
//! runs on freshly written `fig4`, `app_pisa blast` and `fig2`
//! checkpoints, on valid rewrites of records (fields shuffled, repeated or
//! unknown, keys and names `\u`-escaped), on lines with an invalid
//! skipped value or trailing bytes, and on every mutated line. The pin
//! test holds the encoders to lines written by the previous encoder, byte
//! for byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saga::core::{Instance, Network, NodeId, TaskGraph, TaskId};
use saga::pisa::library::{WitnessLibrary, WitnessRecord};
use saga::pisa::{PisaConfig, PisaResult, SearchCell, ShardSpec};
use saga_experiments::benchmarking;
use saga_experiments::engine::{BatchEngine, CellCheckpoint, RowCheckpoint};
use saga_experiments::grids::{AppPisa, CellGrid, Fig4};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// A cell result as exact bit patterns.
type ResultBits = (InstanceBits, u64, u64, usize);

fn result_bits(r: &PisaResult) -> ResultBits {
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

/// Opens `bytes` as a checkpoint with resume on; it must succeed. `agree`
/// checks one line against the value-tree oracle and gives its key if it
/// decodes. Each line must load alone exactly when it decodes; the whole
/// file must load one record per key and count in `skipped()` every line
/// that does not decode or repeats a loaded key with different text.
/// Returns the opened checkpoint.
fn open_counts_every_rejected_line<C>(
    tag: &str,
    bytes: &[u8],
    open: impl Fn(&std::path::Path) -> std::io::Result<C>,
    counts: impl Fn(&C) -> (usize, usize),
    agree: impl Fn(&str) -> Option<String>,
) -> C {
    let path = tmp_path(tag);
    let single = tmp_path(&format!("{tag}_line"));
    let mut first_line: BTreeMap<String, &[u8]> = BTreeMap::new();
    let mut rejected = 0;
    for line in file_lines(bytes) {
        std::fs::write(&single, line).unwrap();
        let alone = counts(&open(&single).unwrap());
        match std::str::from_utf8(line).ok().and_then(&agree) {
            Some(key) => {
                assert_eq!(alone, (1, 0), "a line that decodes loads");
                rejected += usize::from(*first_line.entry(key).or_insert(line) != line);
            }
            None => {
                assert_eq!(alone, (0, 1), "a line that does not decode is skipped");
                rejected += 1;
            }
        }
    }
    std::fs::write(&path, bytes).unwrap();
    let ck = open(&path).unwrap();
    assert_eq!(
        counts(&ck),
        (first_line.len(), rejected),
        "one record per key, and every rejected or conflicting line counted"
    );
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
        |line| cell_decoders_agree(line).map(|(key, _)| key),
    )
}

fn open_rows(bytes: &[u8], tag: &str) -> RowCheckpoint {
    open_counts_every_rejected_line(
        tag,
        bytes,
        |p| RowCheckpoint::open(p, true),
        |ck| (ck.loaded(), ck.skipped()),
        |line| row_decoders_agree(line).map(|(key, _)| key),
    )
}

/// The lines of the row checkpoint `record` writes for `rows`.
fn row_lines(tag: &str, rows: &[(String, Vec<f64>)]) -> Vec<Vec<u8>> {
    written_lines(tag, |path| {
        let ck = RowCheckpoint::open(path, false).unwrap();
        for (key, row) in rows {
            ck.record(key, row).unwrap();
        }
    })
    .into_iter()
    .map(String::into_bytes)
    .collect()
}

/// The lines of the checkpoint `write` fills at a fresh path.
fn written_lines(tag: &str, write: impl FnOnce(&std::path::Path)) -> Vec<String> {
    let path = tmp_path(tag);
    let _ = std::fs::remove_file(&path);
    write(&path);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text.lines().map(str::to_string).collect()
}

/// A hex word's `f64`: exactly 16 hex digits, as the encoders write them.
fn from_hex_bits(s: &str) -> Option<f64> {
    let digits = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
    u64::from_str_radix(s, 16)
        .ok()
        .filter(|_| digits)
        .map(f64::from_bits)
}

/// A cell-checkpoint line's fields as the derived value-tree decoder reads
/// them: the oracle of the one-pass decoder.
#[derive(serde::Deserialize)]
struct OracleCell {
    key: String,
    ratio_bits: String,
    initial_bits: String,
    evaluations: usize,
    #[allow(dead_code)] // type-checked, not used
    ratio: Option<f64>,
    instance: Instance,
}

/// A row-checkpoint line's fields as the derived value-tree decoder reads
/// them.
#[derive(serde::Deserialize)]
struct OracleRow {
    key: String,
    bits: String,
}

/// A cell line through both decoders, which must agree bit for bit;
/// returns the key and result they give.
fn cell_decoders_agree(line: &str) -> Option<(String, ResultBits)> {
    let oracle = || {
        let r: OracleCell = serde_json::from_str(line).ok()?;
        let res = PisaResult {
            instance: r.instance,
            ratio: from_hex_bits(&r.ratio_bits)?,
            initial_ratio: from_hex_bits(&r.initial_bits)?,
            evaluations: r.evaluations,
        };
        Some((r.key, result_bits(&res)))
    };
    let want = oracle();
    let got = CellCheckpoint::decode_line(line).map(|(key, r)| (key, result_bits(&r)));
    assert_eq!(
        got, want,
        "one-pass and value-tree decodes differ on {line:?}"
    );
    want
}

/// A row line through both decoders, which must agree bit for bit.
fn row_decoders_agree(line: &str) -> Option<(String, Vec<u64>)> {
    let bits = |row: Vec<f64>| row.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    let oracle = || {
        let r: OracleRow = serde_json::from_str(line).ok()?;
        let row = r
            .bits
            .split_whitespace()
            .map(from_hex_bits)
            .collect::<Option<_>>()?;
        Some((r.key, bits(row)))
    };
    let want = oracle();
    let got = RowCheckpoint::decode_line(line).map(|(key, row)| (key, bits(row)));
    assert_eq!(
        got, want,
        "one-pass and value-tree decodes differ on {line:?}"
    );
    want
}

/// Instance text through `Instance::from_json` and through the value
/// decoder, which must agree bit for bit.
fn instance_decoders_agree(text: &str) -> Option<InstanceBits> {
    let want = serde_json::from_str::<Instance>(text)
        .ok()
        .map(|i| instance_bits(&i));
    let got = Instance::from_json(text).ok().map(|i| instance_bits(&i));
    assert_eq!(
        got, want,
        "one-pass and value-tree decodes differ on {text:?}"
    );
    want
}

/// Keys no record format knows.
const UNKNOWN_KEYS: &[&str] = &[
    "extra",
    "Key",
    "keys",
    "instance_",
    "",
    " ratio",
    "\u{1}",
    "🚀",
];

fn random_name(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6))
        .map(|_| NAME_CHARS[rng.gen_range(0..NAME_CHARS.len())])
        .collect()
}

/// A random valid JSON value at most `depth` containers deep.
fn junk(rng: &mut StdRng, depth: usize) -> Value {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => {
            Value::Number(weight(rng.gen_range(0..8), rng.gen()) * [1.0, -1.0][rng.gen_range(0..2)])
        }
        3 => Value::Number(rng.gen_range(0..5) as f64),
        4 => Value::String(random_name(rng)),
        5 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| junk(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (random_name(rng), junk(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `v` with one change that keeps its JSON type, or random JSON.
fn altered(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Number(x) => Value::Number(if *x == 0.0 { 1.0 } else { 0.0 }),
        Value::String(s) => Value::String(format!("{s}x")),
        Value::Array(items) if !items.is_empty() => Value::Array(items[1..].to_vec()),
        Value::Object(fields) if !fields.is_empty() => Value::Object(fields[1..].to_vec()),
        _ => junk(rng, 2),
    }
}

/// A rewrite of a record's value tree that must decode as the record
/// does: at every level, object fields shuffled, unknown fields inserted
/// anywhere, and fields repeated after their first occurrence with other
/// values.
fn rewrite(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Object(fields) => {
            let mut out: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, x)| (k.clone(), rewrite(x, rng)))
                .collect();
            for i in (1..out.len()).rev() {
                out.swap(i, rng.gen_range(0..=i));
            }
            for _ in 0..rng.gen_range(0..3) {
                let key = UNKNOWN_KEYS[rng.gen_range(0..UNKNOWN_KEYS.len())].to_string();
                out.insert(rng.gen_range(0..=out.len()), (key, junk(rng, 3)));
            }
            for _ in 0..rng.gen_range(1..4) {
                if out.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..out.len());
                let value = if rng.gen() {
                    altered(&out[i].1, rng)
                } else {
                    junk(rng, 2)
                };
                let repeat = (out[i].0.clone(), value);
                out.insert(rng.gen_range(i + 1..=out.len()), repeat);
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(|x| rewrite(x, rng)).collect()),
        other => other.clone(),
    }
}

/// `v` as JSON text with random blanks between tokens, and random
/// characters of every string, keys included, as `\u` escapes (surrogate
/// pairs above the BMP, hex digits of either case).
fn escaped_text(v: &Value, rng: &mut StdRng) -> String {
    fn blank(rng: &mut StdRng, out: &mut String) {
        for _ in 0..rng.gen_range(0..2) {
            out.push([' ', '\t'][rng.gen_range(0..2)]);
        }
    }
    fn string(s: &str, rng: &mut StdRng, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            if matches!(c, '"' | '\\') || c < ' ' || rng.gen_range(0..3) == 0 {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    if rng.gen() {
                        write!(out, "\\u{unit:04x}").unwrap();
                    } else {
                        write!(out, "\\u{unit:04X}").unwrap();
                    }
                }
            } else {
                out.push(c);
            }
        }
        out.push('"');
    }
    fn value(v: &Value, rng: &mut StdRng, out: &mut String) {
        match v {
            Value::String(s) => string(s, rng, out),
            Value::Array(items) => {
                out.push('[');
                for (i, x) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    blank(rng, out);
                    value(x, rng, out);
                    blank(rng, out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, x)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    blank(rng, out);
                    string(k, rng, out);
                    blank(rng, out);
                    out.push(':');
                    blank(rng, out);
                    value(x, rng, out);
                    blank(rng, out);
                }
                out.push('}');
            }
            other => write!(out, "{other}").unwrap(),
        }
    }
    let mut out = String::new();
    value(v, rng, &mut out);
    out
}

/// Values that are not JSON, each for its own reason.
fn invalid_values() -> Vec<String> {
    let mut bad: Vec<String> = [
        "1.2.3",
        "--1",
        "-",
        "1e",
        "1e+",
        "+1",
        ".5",
        "01.e",
        "0x1",
        "\"\\x\"",
        "\"\\ud800\"",
        "\"\\u12\"",
        "\"\\ud800\\u0041\"",
        "\"open",
        "[1,]",
        "[1 2]",
        "[,]",
        "{\"a\"}",
        "{\"a\":1,}",
        "{1:2}",
        "[}",
        "{]",
        "nul",
        "tru",
        "falsy",
        "inf",
        "NaN",
    ]
    .map(str::to_string)
    .to_vec();
    // one container past the nesting limit, counting the record's own
    bad.push(format!("{}{}", "[".repeat(128), "]".repeat(128)));
    bad
}

/// What may not follow a record on its line.
const TRAILING: &[&str] = &[" x", "}", ",", "{}", "0", "]", "\"\"", " null"];

/// `text`, a record that `agree` decodes, checked against the value tree
/// with its variants: `rewrites` valid rewrites must decode to the same
/// record, and an invalid value in an unknown or a repeated field, or
/// trailing bytes, must make both decoders reject it.
fn assert_variants_agree<T: PartialEq + std::fmt::Debug>(
    text: &str,
    agree: impl Fn(&str) -> Option<T>,
    rewrites: usize,
    rng: &mut StdRng,
) {
    let want = agree(text);
    assert!(want.is_some(), "a written record decodes: {text:?}");
    let tree: Value = serde_json::from_str(text).unwrap();
    for _ in 0..rewrites {
        let variant = escaped_text(&rewrite(&tree, rng), rng);
        assert_eq!(
            agree(&variant),
            want,
            "a valid rewrite decodes as the record"
        );
    }
    let (open, body) = text.split_at(1);
    let (body, close) = body.split_at(body.len() - 1);
    let known = &tree.as_object().unwrap()[0].0;
    for bad in invalid_values() {
        for variant in [
            format!("{open}\"extra\":{bad},{body}{close}"),
            format!("{open}{body},\"{known}\":{bad}{close}"),
        ] {
            assert_eq!(agree(&variant), None, "{variant:?}");
        }
    }
    for tail in TRAILING {
        assert_eq!(agree(&format!("{text}{tail}")), None, "{text:?} + {tail:?}");
    }
}

/// Every decoder an instance-bearing line reaches; none may panic, and
/// `Instance::from_json` must agree with the value decoder.
fn decode_instance_everywhere(text: &str) {
    instance_decoders_agree(text);
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
        // the first record under a repeated key is kept, and a later,
        // different one is skipped
        let mut first = BTreeMap::new();
        let mut conflicts = 0;
        for ((key, r), line) in results.iter().zip(&lines) {
            let (_, kept) = first.entry(key).or_insert((r, line));
            conflicts += usize::from(*kept != line);
        }
        prop_assert_eq!(ck.skipped(), conflicts);
        prop_assert_eq!(ck.loaded(), first.len());
        for (key, (r, _)) in first {
            prop_assert_eq!(result_bits(&ck.stored(key).unwrap()), result_bits(r));
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

        let rows = row_lines("row_mutated_encode", &rows);
        open_rows(&mutated_file(&rows, seed ^ 1, 12), "row_mutated");

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
    fn rewritten_records_decode_as_the_value_tree_does(
        results in proptest::collection::vec((arb_key(), arb_result()), 1..4),
        rows in proptest::collection::vec((arb_key(), arb_weights(5)), 1..4),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for line in cell_lines("cell_rewrite_encode", &results) {
            let line = String::from_utf8(line).unwrap();
            assert_variants_agree(&line, cell_decoders_agree, 4, &mut rng);
        }
        for line in row_lines("row_rewrite_encode", &rows) {
            let line = String::from_utf8(line).unwrap();
            assert_variants_agree(&line, row_decoders_agree, 4, &mut rng);
        }
        for (_, r) in &results {
            assert_variants_agree(&r.instance.to_json(), instance_decoders_agree, 4, &mut rng);
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

/// Fresh checkpoints of three paper binaries, written by their grids:
/// every line, and variants of every tenth, decode on the one-pass path
/// exactly as on the value tree. `fig2` runs at its defaults; `fig4` and
/// `app_pisa blast` run their default grids (cells, seeds, keys) on the
/// budgets of CI's quick runs (`fig4 --quick`, `app_pisa blast --imax 20
/// --restarts 1`), which change the instances' weights but not their
/// shapes, and keep the debug build's run short.
#[test]
fn paper_checkpoints_decode_as_the_value_tree_does() {
    let engine = BatchEngine::new();
    let cell_run = |tag: &str, cells: &[SearchCell]| {
        written_lines(tag, |path| {
            let ck = CellCheckpoint::open(path, false).unwrap();
            engine.run_cells(cells, None, Some(&ck)).unwrap();
        })
    };
    let quick = |config: PisaConfig, i_max| PisaConfig {
        i_max,
        restarts: 1,
        ..config
    };
    let fig4 = Fig4 {
        config: quick(Fig4::default().config, 60),
    };
    let fig4 = cell_run("fig4_cells", &fig4.cells());
    let mut blast = AppPisa::new("blast");
    blast.config = quick(blast.config, 20);
    let blast = cell_run("blast_cells", &blast.cells());
    // `fig2`
    let fig2 = written_lines("fig2_rows", |path| {
        let ck = RowCheckpoint::open(path, false).unwrap();
        benchmarking::fig2_rows(
            &engine,
            &saga::schedulers::benchmark_schedulers(),
            &saga::datasets::all_generators(),
            benchmarking::FIG2_INSTANCES,
            benchmarking::FIG2_SEED,
            ShardSpec::FULL,
            None,
            Some(&ck),
        )
        .unwrap();
    });
    assert_eq!((fig4.len(), blast.len(), fig2.len()), (210, 150, 1600));

    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (i, line) in fig4.iter().chain(&blast).enumerate() {
        assert!(cell_decoders_agree(line).is_some(), "{line}");
        if i % 10 == 0 {
            assert_variants_agree(line, cell_decoders_agree, 2, &mut rng);
            let instance = serde_json::from_str::<Value>(line).unwrap();
            let text = serde_json::to_string_pretty(instance.get("instance").unwrap()).unwrap();
            assert_variants_agree(&text, instance_decoders_agree, 2, &mut rng);
        }
    }
    for (i, line) in fig2.iter().enumerate() {
        assert!(row_decoders_agree(line).is_some(), "{line}");
        if i % 10 == 0 {
            assert_variants_agree(line, row_decoders_agree, 2, &mut rng);
        }
    }
}

#[test]
fn well_formed_json_of_invalid_instances_is_an_error() {
    let ok =
        r#"{"speeds":[1,2],"links":[null,1,1,null],"tasks":[["a",1],["b",2]],"deps":[[0,1,3]]}"#;
    assert!(Instance::from_json(ok).is_ok());
    // 40 nodes, asymmetric only at (33, 17): just past the first tile
    // edge of the network's symmetry check
    let forty = |entry_33_17: &str| {
        let n = 40;
        let links: Vec<&str> = (0..n * n)
            .map(|k| match (k / n, k % n) {
                (i, j) if i == j => "null",
                (33, 17) => entry_33_17,
                _ => "1",
            })
            .collect();
        format!(
            r#"{{"speeds":[{}],"links":[{}],"tasks":[],"deps":[]}}"#,
            vec!["1"; n].join(","),
            links.join(",")
        )
    };
    assert!(Instance::from_json(&forty("1")).is_ok());
    let tiled = forty("2");
    for bad in [
        tiled.as_str(),
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

/// The `-0.0` finding's instance: links of `-0` decode, stored as `+0.0`,
/// and every scheduler `by_name` knows gives it a schedule
/// `Schedule::verify` accepts. A `-0.0` link used to divide into `-inf`,
/// and 12 of the 15 benchmark schedulers then started `b` on the other node
/// before `a` finished. The same holds for a `-0` speed.
#[test]
fn negative_zero_weights_decode_as_zero_and_schedule_validly() {
    let found =
        r#"{"speeds":[1,1],"links":[null,-0,-0,null],"tasks":[["a",1],["b",1]],"deps":[[0,1,1]]}"#;
    let speed =
        r#"{"speeds":[-0,1],"links":[null,1,1,null],"tasks":[["a",1],["b",1]],"deps":[[0,1,1]]}"#;
    let roster: Vec<_> = saga::schedulers::benchmark_schedulers()
        .into_iter()
        .chain(saga::schedulers::exact_schedulers())
        .chain(saga::schedulers::historical_schedulers())
        .collect();
    assert_eq!(roster.len(), 20);
    for text in [found, speed] {
        let bits = instance_decoders_agree(text).expect("a `-0` weight decodes");
        assert!(
            bits.0
                .iter()
                .chain(&bits.1)
                .all(|&x| x != (-0.0f64).to_bits()),
            "no `-0.0` weight is stored: {text}"
        );
        let inst = Instance::from_json(text).unwrap();
        for s in &roster {
            assert!(saga::schedulers::by_name(s.name()).is_some());
            let schedule = s.schedule(&inst);
            assert!(
                schedule.verify(&inst).is_ok(),
                "{}: {:?} on {text}",
                s.name(),
                schedule.verify(&inst)
            );
        }
    }
}

/// A hex word is exactly the 16 hex digits the encoders write: a sign or a
/// short word is a malformed line, not a float.
#[test]
fn hex_words_of_other_shapes_are_malformed() {
    let row = |bits: &str| format!(r#"{{"key":"k","bits":"{bits}"}}"#);
    assert_eq!(
        row_decoders_agree(&row("3FF0000000000000 3ff0000000000000")),
        Some(("k".to_string(), vec![1.0f64.to_bits(); 2]))
    );
    let cell = |ratio_bits: &str| {
        PINNED_CELL_LINE.replace(
            r#""ratio_bits":"7ff0000000000000""#,
            &format!(r#""ratio_bits":"{ratio_bits}""#),
        )
    };
    assert!(cell_decoders_agree(&cell("7ff0000000000000")).is_some());
    for bad in [
        "+3ff0000000000000",
        "3ff0",
        "03ff0000000000000",
        "-3ff000000000000",
        "3ff000000000000g",
    ] {
        assert_eq!(row_decoders_agree(&row(bad)), None, "{bad:?}");
        assert_eq!(
            row_decoders_agree(&row(&format!("3ff0000000000000 {bad}"))),
            None,
            "{bad:?}"
        );
        assert_eq!(cell_decoders_agree(&cell(bad)), None, "{bad:?}");
    }
}

/// An evaluation count past `usize::MAX` is malformed, not saturated.
#[test]
fn evaluation_counts_past_usize_max_are_malformed() {
    let line = |evaluations: &str| {
        PINNED_CELL_LINE.replace(
            r#""evaluations":1234"#,
            &format!(r#""evaluations":{evaluations}"#),
        )
    };
    assert!(cell_decoders_agree(&line("4294967295")).is_some());
    for bad in ["18446744073709551616", "1e20", "-1", "1.5"] {
        assert_eq!(cell_decoders_agree(&line(bad)), None, "{bad}");
    }
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
