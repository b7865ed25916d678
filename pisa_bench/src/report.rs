//! The benchmark's output: per workload, one manifest line and one result
//! line of JSON on standard output, and a reader for both.
//!
//! The result line is always the last line a workload prints and has
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

use serde_json::Value;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`items_per_s`, `kernel.share`, ...).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Run facts: seed, threads, reps, digest, ...
    pub manifest: Vec<(String, Value)>,
    /// Checks and operations attempted.
    pub attempted: u64,
    /// Checks and operations that failed.
    pub failed: u64,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// The manifest line and the result line.
    pub fn lines(&self) -> [String; 2] {
        let manifest = Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            (
                "trace".into(),
                Value::Number(f64::from(u8::from(self.trace))),
            ),
            ("manifest".into(), Value::Object(self.manifest.clone())),
        ]);
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Number(m.value)),
                    ("unit".into(), Value::String(m.unit.into())),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        [manifest.to_string(), result.to_string()]
    }
}

/// A result line read back, labelled with the workload of the manifest
/// line before it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadBack {
    /// Workload name.
    pub workload: String,
    /// Checks that failed.
    pub failed: u64,
    /// Metric name and value.
    pub metrics: Vec<(String, f64)>,
}

/// Reads every workload result from one run's standard output. Lines that
/// are not the benchmark's JSON (a build's or a wrapper's chatter) are
/// skipped; a result line with no manifest line before it is an error.
pub fn read_runs(text: &str) -> Result<Vec<ReadBack>, String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line.trim()) else {
            continue;
        };
        if let Some(w) = v.get("workload").and_then(Value::as_str) {
            current = Some(w.to_string());
        } else if let Some(fields) = v.get("metrics").and_then(Value::as_object) {
            let workload = current
                .take()
                .ok_or("a result line without a manifest line before it")?;
            let metrics = fields
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64);
                    value
                        .map(|x| (name.clone(), x))
                        .ok_or(format!("metric {name} has no numeric value"))
                })
                .collect::<Result<_, _>>()?;
            let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            out.push(ReadBack {
                workload,
                failed,
                metrics,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_reader() {
        let rec = Record {
            workload: "fig4".into(),
            trace: false,
            manifest: vec![("seed".into(), Value::String("0xf164".into()))],
            attempted: 73,
            failed: 1,
            metrics: vec![
                Metric {
                    name: "items_per_s".into(),
                    value: 975.123_456_789_012_3,
                    unit: "1/s",
                },
                Metric {
                    name: "rep_ms_p50".into(),
                    value: 0.1 + 0.2,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 3.0,
                    unit: "s",
                },
            ],
        };
        let [manifest, result] = rec.lines();
        // the result line carries exactly the four contract keys
        let v: Value = serde_json::from_str(&result).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));

        let text = format!("   Compiling noise\n{manifest}\n{result}\n");
        let back = read_runs(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].workload, "fig4");
        assert_eq!(back[0].failed, 1);
        for (m, (name, value)) in rec.metrics.iter().zip(&back[0].metrics) {
            assert_eq!(&m.name, name);
            assert_eq!(
                m.value.to_bits(),
                value.to_bits(),
                "{name} must round-trip exactly"
            );
        }
        assert!(read_runs(&result).is_err(), "a result needs its manifest");
    }
}
