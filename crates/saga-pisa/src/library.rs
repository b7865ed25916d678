//! A library of published adversarial instances — the paper's future-work
//! plan "to develop a framework for publishing the problem instances
//! identified by PISA so that other researchers can use them to evaluate
//! their own algorithms".
//!
//! Witnesses are stored as JSON lines, `{target, baseline, ratio,
//! instance}`; a new scheduler can be scored against every stored witness
//! without re-running the (comparatively expensive) annealing search.
//! [`WitnessLibrary::to_jsonl`] writes each line in one pass with
//! `serde_json::Writer`, and [`WitnessLibrary::from_jsonl`] reads it in one
//! pass with `serde_json::Reader`, under the derived value-tree decoders'
//! rules: the first occurrence of a field wins, unknown and repeated fields
//! are skipped but must be valid JSON, and a missing field, a wrong type or
//! trailing bytes reject the line. A record keeps its witness as the
//! instance's JSON text, which must be valid JSON but need not be a valid
//! instance: [`WitnessRecord::instance`] decodes it, so a damaged witness
//! fails there, one record at a time, and counts as a mismatch in
//! [`WitnessLibrary::revalidate`].

// a parse path: a damaged record is an error for the caller, never an abort
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::makespan_ratio;
use saga_core::Instance;
use serde_json::{required, Reader, Writer};

/// One published adversarial instance.
#[derive(Debug, Clone)]
pub struct WitnessRecord {
    /// Scheduler whose weakness the instance exhibits.
    pub target: String,
    /// Baseline it was compared against.
    pub baseline: String,
    /// Recorded makespan ratio; `None` encodes an unbounded (`> 1000`) cell.
    pub ratio: Option<f64>,
    /// The instance's JSON text (infinite links as `null`): compact as
    /// [`new`](Self::new) writes it, or the span a file held, which
    /// [`WitnessLibrary::from_jsonl`] checks to be JSON but not to be an
    /// instance.
    pub instance: String,
}

impl WitnessRecord {
    /// Builds a record from a found instance.
    pub fn new(target: &str, baseline: &str, ratio: f64, inst: &Instance) -> Self {
        let mut w = Writer::compact();
        inst.write_json(&mut w);
        WitnessRecord {
            target: target.to_string(),
            baseline: baseline.to_string(),
            ratio: ratio.is_finite().then_some(ratio),
            instance: w.finish(),
        }
    }

    /// Decodes the stored instance. Fails on a hand-edited or corrupted
    /// record — library files come from disk, so the parse is fallible.
    pub fn instance(&self) -> Result<Instance, serde_json::Error> {
        Instance::from_json(&self.instance)
    }

    /// The record's JSON line, without its newline.
    fn to_line(&self) -> String {
        let mut w = Writer::compact();
        w.begin_object();
        w.key("target");
        w.string(&self.target);
        w.key("baseline");
        w.string(&self.baseline);
        // `number` writes an unbounded ratio (`None`, stored as `inf`) as `null`
        w.key("ratio");
        w.number(self.ratio_value());
        w.key("instance");
        w.raw(&self.instance);
        w.end_object();
        w.finish()
    }

    /// Reads one record's JSON line.
    fn from_line(line: &str) -> Result<Self, serde_json::Error> {
        let mut r = Reader::new(line);
        let (mut target, mut baseline, mut ratio, mut instance) = (None, None, None, None);
        r.begin_object()?;
        while let Some(field) = r.next_key()? {
            match &*field {
                "target" if target.is_none() => target = Some(r.string()?.into_owned()),
                "baseline" if baseline.is_none() => baseline = Some(r.string()?.into_owned()),
                "ratio" if ratio.is_none() => {
                    ratio = Some(if r.take_null()? {
                        None
                    } else {
                        Some(r.number()?)
                    })
                }
                "instance" if instance.is_none() => instance = Some(r.raw()?.to_string()),
                _ => r.skip()?,
            }
        }
        r.end()?;
        Ok(WitnessRecord {
            target: required(target, "target")?,
            baseline: required(baseline, "baseline")?,
            ratio: required(ratio, "ratio")?,
            instance: required(instance, "instance")?,
        })
    }

    /// The recorded ratio as an `f64` (`inf` for unbounded).
    pub fn ratio_value(&self) -> f64 {
        self.ratio.unwrap_or(f64::INFINITY)
    }
}

/// A collection of witnesses with JSONL persistence.
#[derive(Debug, Clone, Default)]
pub struct WitnessLibrary {
    /// The stored records.
    pub records: Vec<WitnessRecord>,
}

impl WitnessLibrary {
    /// Collects every off-diagonal witness of a pairwise matrix.
    pub fn from_matrix(m: &crate::PairwiseMatrix) -> Self {
        let n = m.names.len();
        let mut records = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if let Some(inst) = &m.witnesses[i][j] {
                    records.push(WitnessRecord::new(
                        &m.names[j],
                        &m.names[i],
                        m.ratios[i][j],
                        inst,
                    ));
                }
            }
        }
        WitnessLibrary { records }
    }

    /// Writes one JSON line per record.
    pub fn to_jsonl(&self) -> String {
        self.records.iter().map(|r| r.to_line() + "\n").collect()
    }

    /// Parses JSON lines (blank lines ignored).
    pub fn from_jsonl(s: &str) -> Result<Self, serde_json::Error> {
        let mut records = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            records.push(WitnessRecord::from_line(line)?);
        }
        Ok(WitnessLibrary { records })
    }

    /// Re-checks every stored ratio by re-running both schedulers; returns
    /// the number of mismatches (0 for a healthy library). One pooled
    /// scheduling context serves every witness (cost tables pinned per
    /// instance, shared by the two runs) instead of each `schedule()` call
    /// allocating its own.
    pub fn revalidate(&self) -> usize {
        let pool = saga_core::ContextPool::new();
        let mut ctx = pool.take();
        let mut bad = 0;
        for r in &self.records {
            let (Some(t), Some(b)) = (
                saga_schedulers::by_name(&r.target),
                saga_schedulers::by_name(&r.baseline),
            ) else {
                bad += 1;
                continue;
            };
            // an undecodable instance is a mismatch by definition
            let Ok(inst) = r.instance() else {
                bad += 1;
                continue;
            };
            let ratio = ctx.with_pinned(&inst, |ctx| {
                makespan_ratio(t.makespan_into(&inst, ctx), b.makespan_into(&inst, ctx))
            });
            if !ratio_matches(ratio, r.ratio_value()) {
                bad += 1;
            }
        }
        bad
    }
}

/// Whether a recomputed ratio `live` reproduces a `stored` one: both
/// unbounded, or within `1e-6` relative (absolute below 1).
pub fn ratio_matches(live: f64, stored: f64) -> bool {
    (live.is_infinite() && stored.is_infinite())
        || (live - stored).abs() <= 1e-6 * stored.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annealer::PisaConfig;
    use crate::pairwise_matrix;
    use saga_schedulers::Scheduler;

    fn small_library() -> WitnessLibrary {
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(saga_schedulers::Heft),
            Box::new(saga_schedulers::FastestNode),
        ];
        let m = pairwise_matrix(
            &schedulers,
            PisaConfig {
                i_max: 80,
                restarts: 1,
                seed: 77,
                ..PisaConfig::default()
            },
        );
        WitnessLibrary::from_matrix(&m)
    }

    #[test]
    fn jsonl_round_trip() {
        let lib = small_library();
        assert_eq!(lib.records.len(), 2);
        let text = lib.to_jsonl();
        let back = WitnessLibrary::from_jsonl(&text).unwrap();
        assert_eq!(back.records.len(), 2);
        for (a, b) in lib.records.iter().zip(&back.records) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.ratio, b.ratio);
            assert_eq!(
                a.instance().unwrap().to_json(),
                b.instance().unwrap().to_json()
            );
        }
    }

    #[test]
    fn revalidation_passes_for_fresh_library() {
        let lib = small_library();
        assert_eq!(lib.revalidate(), 0);
    }

    #[test]
    fn unbounded_ratio_round_trips_as_none() {
        let mut g = saga_core::TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = saga_core::Instance::new(saga_core::Network::complete(&[1.0], 1.0), g);
        let r = WitnessRecord::new("HEFT", "CPoP", f64::INFINITY, &inst);
        assert!(r.ratio.is_none());
        let line = r.to_line();
        assert!(line.contains(r#""ratio":null"#), "{line}");
        let back = WitnessRecord::from_line(&line).unwrap();
        assert!(back.ratio.is_none());
        assert!(back.ratio_value().is_infinite());
    }
}
