//! One workload run's outcome: the checks it counted, its metrics, and
//! the two ways it is written out — the human lines plus the final JSON
//! line on stdout, and the provenance-carrying record of `--out`.

use serde::Value;
use std::path::Path;

/// At most this many failure messages are kept per run (all are counted).
const KEPT_FAILURES: usize = 20;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An end-to-end metric of `BENCHMARK.json`.
    EndToEnd,
    /// A per-layer metric of `BENCHMARK.json` (traced runs).
    Layer,
    /// Measured on this workload only; in `--out` and the human lines.
    Extra,
}

/// A metric as its JSON entry: `name: {"value": …, "unit": …}`.
fn entry(m: &Metric) -> (String, Value) {
    let fields = vec![
        ("value".into(), Value::Num(m.value)),
        ("unit".into(), Value::Str(m.unit.clone())),
    ];
    (m.name.clone(), Value::Obj(fields))
}

pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(Kind, Metric)>,
    /// Raw samples behind the reported statistics.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Counts `n` attempted operations (requests, rounds, checks).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation or check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg.into());
        }
    }

    /// One attempted check: counts it, and its failure if it has one.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempt(1);
        if let Err(e) = r {
            self.fail(e);
        }
    }

    pub fn e2e(&mut self, name: &str, unit: &str, value: f64) {
        self.add(Kind::EndToEnd, name, unit, value);
    }

    pub fn layer(&mut self, name: &str, unit: &str, value: f64) {
        self.add(Kind::Layer, name, unit, value);
    }

    pub fn extra(&mut self, name: &str, unit: &str, value: f64) {
        self.add(Kind::Extra, name, unit, value);
    }

    fn add(&mut self, kind: Kind, name: &str, unit: &str, value: f64) {
        self.metrics.push((
            kind,
            Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value,
            },
        ));
    }

    pub fn sample(&mut self, name: &str, values: Vec<f64>) {
        self.samples.push((name.to_string(), values));
    }

    fn find(&self, kind: Kind, name: &str) -> Option<&Metric> {
        self.metrics
            .iter()
            .find(|(k, m)| *k == kind && m.name == name)
            .map(|(_, m)| m)
    }

    /// Prints every metric by name and unit, then the run's final result
    /// line: `wanted` (the end-to-end or per-layer list of
    /// `BENCHMARK.json`, as `(name, unit)`) and the check counts. A wanted
    /// metric that is missing, non-finite or in another unit makes the run
    /// incorrect.
    pub fn print(&mut self, kind: Kind, wanted: &[(String, String)]) {
        for (k, m) in &self.metrics {
            let tag = match k {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
                Kind::Extra => "extra",
            };
            println!(
                "{:<17} {:<5} {:<34} {:>16} {}",
                self.workload, tag, m.name, m.value, m.unit
            );
        }
        for f in &self.failures {
            println!("{} FAILED: {f}", self.workload);
        }
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in wanted {
            match self.find(kind, name) {
                Some(m) if m.value.is_finite() && &m.unit == unit => out.push(entry(m)),
                _ => missing.push(name.clone()),
            }
        }
        if !missing.is_empty() {
            self.fail(format!("metrics not measured: {}", missing.join(", ")));
            println!(
                "{} FAILED: metrics not measured: {}",
                self.workload,
                missing.join(", ")
            );
        }
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(out)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("render result line")
        );
    }

    /// The `--out` record: provenance, every metric, and the raw samples.
    pub fn record(&self, provenance: Vec<(String, Value)>) -> String {
        let group = |kind: Kind| {
            Value::Obj(
                self.metrics
                    .iter()
                    .filter(|(k, m)| *k == kind && m.value.is_finite())
                    .map(|(_, m)| entry(m))
                    .collect(),
            )
        };
        let mut fields = vec![("workload".to_string(), Value::Str(self.workload.into()))];
        fields.extend(provenance);
        fields.extend([
            ("correct".into(), Value::Bool(self.failed == 0)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "failures".into(),
                Value::Arr(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), group(Kind::EndToEnd)),
            ("layers".into(), group(Kind::Layer)),
            ("extras".into(), group(Kind::Extra)),
            (
                "samples".into(),
                Value::Obj(
                    self.samples
                        .iter()
                        .map(|(n, v)| {
                            let vals = v.iter().filter(|x| x.is_finite()).map(|&x| Value::Num(x));
                            (n.clone(), Value::Arr(vals.collect()))
                        })
                        .collect(),
                ),
            ),
        ]);
        serde_json::to_string(&Value::Obj(fields)).expect("render record")
    }
}

/// Reads the metric lists of `BENCHMARK.json`: `(name, unit)` per entry of
/// `key` (`end_to_end` or `per_layer`), plus the whole document.
pub fn benchmark_spec(path: &Path, key: &str) -> Result<(Vec<(String, String)>, Value), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = match doc.field(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(format!("BENCHMARK.json: no {key} list")),
    };
    Ok((list, doc))
}
