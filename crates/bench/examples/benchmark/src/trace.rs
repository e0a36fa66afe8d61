//! The benchmark's own spans, and folding trace files with the
//! repository's `trace-summary` / `trace-query` tools.
//!
//! Spans are kept in memory (name, start, end, parent) and written once,
//! at the end of a traced run, as `cdcl-telemetry` `phase` events — the
//! format both tools already read, so the benchmark adds no trace parser.

use crate::daemon::Bins;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    start_ms: f64,
    end_ms: f64,
    parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    done: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.done.len();
        self.done.push(SpanRec {
            name,
            start_ms: self.now_ms(),
            end_ms: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ms();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.retain(|&o| o != id);
        self.done[id].end_ms = now;
    }

    /// Times `f` in a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Writes every closed span as one JSONL `phase` event.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self
            .done
            .iter()
            .enumerate()
            .filter(|(_, s)| s.end_ms.is_finite())
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"seq\":{i},\"ms\":{},\"ev\":\"phase\",\"name\":\"{}\",\"span\":{i},\"parent\":{parent},\"start_ms\":{},\"dur_ms\":{}}}",
                s.end_ms, s.name, s.start_ms, s.end_ms - s.start_ms
            );
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn run_tool(bins: &Bins, tool: &str, files: &[&Path], out: &Path) -> Result<Value, String> {
    let status = Command::new(bins.path(tool))
        .args(files)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {tool}: {e}"))?;
    if !status.success() {
        return Err(format!("{tool} failed on {files:?}: {status}"));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{tool} output: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{tool} output: {e}"))
}

fn num(v: &Value, name: &str) -> Option<f64> {
    match v.field(name) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// `trace-summary` over one trace: phase name → (spans, total ms).
pub fn phase_totals(
    bins: &Bins,
    trace: &Path,
    out: &Path,
) -> Result<BTreeMap<String, (f64, f64)>, String> {
    let summary = run_tool(bins, "trace-summary", &[trace], out)?;
    let Some(Value::Arr(phases)) = summary.field("phases") else {
        return Err("trace-summary: no phases".into());
    };
    Ok(phases
        .iter()
        .filter_map(|p| match p.field("phase") {
            Some(Value::Str(name)) => Some((name.clone(), (num(p, "spans")?, num(p, "total_ms")?))),
            _ => None,
        })
        .collect())
}

/// Mean duration (ms) of the spans named `name`; NaN when there are none.
pub fn mean_ms(totals: &BTreeMap<String, (f64, f64)>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(f64::NAN, |&(spans, total)| total / spans)
}

/// `trace-query` over the daemons' traces: stage → median ms, for every
/// `*_stage_ms` block and `e2e_ms`.
pub fn stage_medians(
    bins: &Bins,
    traces: &[&Path],
    out: &Path,
) -> Result<BTreeMap<String, f64>, String> {
    let report = run_tool(bins, "trace-query", traces, out)?;
    let Value::Obj(fields) = report else {
        return Err("trace-query: not an object".into());
    };
    Ok(fields
        .iter()
        .filter_map(|(k, v)| {
            let stage = k
                .strip_suffix("_stage_ms")
                .or((k == "e2e_ms").then_some("e2e"))?;
            Some((stage.to_string(), num(v, "p50")?))
        })
        .collect())
}
