//! Merges distributed `CDCL_TRACE` span files into per-trace trees and a
//! critical-path report (DESIGN.md §16).
//!
//! Each process in the training/serving loop (cdcl-traind, cdcl-serve)
//! writes its own JSONL trace. Phase events carry `trace`/`span`/`parent`
//! ids plus `wall_ms` (UNIX-epoch milliseconds at span close) and
//! `dur_ms`, so spans from different processes on the same host merge onto
//! one absolute time axis: a span's start is `wall_ms - dur_ms`. The tool
//! groups spans by 128-bit trace id, rebuilds each span tree (the
//! `publish → reload` edge crosses the process boundary via the wire
//! `trace=` field), computes the critical path of the slowest complete
//! trace, and folds per-stage durations into the `--out` JSON report,
//! whose `e2e_ms` / `*_stage_ms` blocks the repository benchmark reads.
//!
//! ```text
//! trace-query traind-trace.jsonl serve-trace.jsonl \
//!     --out trace-stages.json [--require-complete]
//! ```
//!
//! A trace is **complete** when it contains the full cross-process chain:
//! a `window_commit` root, a `publish` span, and a `reload` span observed
//! by the serve process. `first_serve` (the first batch executed on the
//! reloaded version) additionally closes the publish-to-visible loop.

use cdcl_bench::trace::LineCounts;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One span parsed from a trace file, on the absolute wall-clock axis.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    span_id: u64,
    parent: Option<u64>,
    /// UNIX-epoch milliseconds (`wall_ms - dur_ms`).
    start_ms: f64,
    /// UNIX-epoch milliseconds (`wall_ms`).
    end_ms: f64,
    dur_ms: f64,
    /// Index into the input file list (provenance for the report).
    src: usize,
}

/// All spans of one trace id, with derived structure.
#[derive(Debug, Default)]
struct Trace {
    spans: Vec<SpanRec>,
    /// Fan-in links observed on batch events of this trace (requests
    /// absorbed by a batch that served the trace's `first_serve`).
    linked_requests: usize,
}

impl Trace {
    /// Spans named `name`, in file order.
    fn named<'t>(&'t self, name: &'t str) -> impl Iterator<Item = &'t SpanRec> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Sum of durations across all spans named `name`.
    fn stage_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ms).sum()
    }

    /// The root: a `window_commit` span when present, else the span whose
    /// parent is absent from the trace with the earliest start.
    fn root(&self) -> Option<&SpanRec> {
        if let Some(r) = self.named("window_commit").next() {
            return Some(r);
        }
        let ids: Vec<u64> = self.spans.iter().map(|s| s.span_id).collect();
        self.spans
            .iter()
            .filter(|s| match s.parent {
                None => true,
                Some(p) => !ids.contains(&p),
            })
            .min_by(|a, b| a.start_ms.total_cmp(&b.start_ms))
    }

    /// Contains the full traind → wire → serve chain.
    fn is_complete(&self) -> bool {
        ["window_commit", "publish", "reload"]
            .iter()
            .all(|n| self.named(n).next().is_some())
    }

    /// Root start → latest span end, the end-to-end trace extent.
    fn e2e_ms(&self) -> Option<f64> {
        let root = self.root()?;
        let last_end = self
            .spans
            .iter()
            .map(|s| s.end_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        Some((last_end - root.start_ms).max(0.0))
    }

    /// `publish` start → `first_serve` end: how long a committed window
    /// takes to become visible to request traffic.
    fn publish_to_visible_ms(&self) -> Option<f64> {
        let publish = self.named("publish").next()?;
        let first = self.named("first_serve").next()?;
        Some((first.end_ms - publish.start_ms).max(0.0))
    }

    /// The critical path: from the root, repeatedly descend into the
    /// child whose end time is latest. Cross-process children (`reload`
    /// under `publish`, `first_serve` under `reload`) may end after their
    /// parent closed — exactly why the path follows ends, not durations.
    fn critical_path(&self) -> Vec<&SpanRec> {
        let Some(root) = self.root() else {
            return Vec::new();
        };
        let mut path = vec![root];
        let mut cur = root;
        loop {
            let next = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(cur.span_id))
                .max_by(|a, b| a.end_ms.total_cmp(&b.end_ms));
            match next {
                Some(child) => {
                    path.push(child);
                    cur = child;
                }
                None => break,
            }
        }
        path
    }
}

/// Exact percentiles over raw per-trace samples (trace counts are small —
/// tens per smoke run — so the log-bucket grid would only blur them).
#[derive(Debug, Default, Clone, Serialize)]
struct Pctl {
    n: usize,
    mean: f64,
    p50: f64,
    p99: f64,
    max: f64,
}

impl Pctl {
    fn from_samples(mut v: Vec<f64>) -> Self {
        if v.is_empty() {
            return Self::default();
        }
        v.sort_by(|a, b| a.total_cmp(b));
        let pct = |q: f64| v[((v.len() as f64 - 1.0) * q).round() as usize];
        Self {
            n: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p50: pct(0.50),
            p99: pct(0.99),
            max: *v.last().unwrap_or(&0.0),
        }
    }
}

/// The `--out` payload. Key names are load-bearing: the repository
/// benchmark (`crates/bench/examples/benchmark`, `trace.rs`) takes the
/// `p50` of `e2e_ms` and of every `*_stage_ms` block as its per-stage
/// adaptation latencies.
#[derive(Debug, Default, Serialize)]
struct TraceBench {
    files: usize,
    events: usize,
    malformed: usize,
    spans: usize,
    traces: usize,
    complete_traces: usize,
    linked_requests: usize,
    e2e_ms: Pctl,
    publish_to_visible_ms: Pctl,
    ingest_stage_ms: Pctl,
    drift_detect_stage_ms: Pctl,
    online_round_stage_ms: Pctl,
    publish_stage_ms: Pctl,
    reload_stage_ms: Pctl,
    first_serve_stage_ms: Pctl,
}

/// Merged view of every input file, keyed by trace id.
#[derive(Debug, Default)]
struct Merged {
    traces: BTreeMap<u128, Trace>,
    counts: LineCounts,
}

/// Folds one file's lines into the merge. `src` indexes the file list.
fn fold_file<'l>(merged: &mut Merged, src: usize, lines: impl IntoIterator<Item = &'l str>) {
    for v in lines
        .into_iter()
        .filter_map(|line| merged.counts.event(line))
    {
        let Some(trace_id) = v
            .str_field("trace")
            .and_then(|s| u128::from_str_radix(s, 16).ok())
        else {
            continue; // untraced event
        };
        let trace = merged.traces.entry(trace_id).or_default();
        if let Some(Value::Arr(links)) = v.field("links") {
            trace.linked_requests += links.len();
        }
        if v.str_field("ev") != Some("phase") {
            continue;
        }
        let (Some(name), Some(span_hex), Some(wall_ms), Some(dur_ms)) = (
            v.str_field("name"),
            v.str_field("span"),
            v.f64_field("wall_ms"),
            v.f64_field("dur_ms"),
        ) else {
            continue;
        };
        let Ok(span_id) = u64::from_str_radix(span_hex, 16) else {
            continue;
        };
        let parent = v
            .str_field("parent")
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        trace.spans.push(SpanRec {
            name: name.to_string(),
            span_id,
            parent,
            start_ms: wall_ms - dur_ms,
            end_ms: wall_ms,
            dur_ms,
            src,
        });
    }
}

/// Folds the merge into the benchmark aggregates.
fn bench(merged: &Merged, files: usize) -> TraceBench {
    let complete: Vec<&Trace> = merged.traces.values().filter(|t| t.is_complete()).collect();
    let stage = |name: &str| -> Pctl {
        Pctl::from_samples(
            complete
                .iter()
                .map(|t| t.stage_ms(name))
                .filter(|ms| *ms > 0.0)
                .collect(),
        )
    };
    TraceBench {
        files,
        events: merged.counts.events,
        malformed: merged.counts.malformed,
        spans: merged.traces.values().map(|t| t.spans.len()).sum(),
        traces: merged.traces.len(),
        complete_traces: complete.len(),
        linked_requests: merged.traces.values().map(|t| t.linked_requests).sum(),
        e2e_ms: Pctl::from_samples(complete.iter().filter_map(|t| t.e2e_ms()).collect()),
        publish_to_visible_ms: Pctl::from_samples(
            complete
                .iter()
                .filter_map(|t| t.publish_to_visible_ms())
                .collect(),
        ),
        ingest_stage_ms: stage("ingest"),
        drift_detect_stage_ms: stage("drift_detect"),
        online_round_stage_ms: stage("online_round"),
        publish_stage_ms: stage("publish"),
        reload_stage_ms: stage("reload"),
        first_serve_stage_ms: stage("first_serve"),
    }
}

/// Renders the Markdown report: totals, the per-stage latency table, and
/// the critical path of the slowest complete trace.
fn render_markdown(merged: &Merged, b: &TraceBench, files: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# Distributed trace report\n\n");
    out.push_str(&format!(
        "{} events across {} file(s) ({} malformed), {} spans in {} traces \
         ({} complete cross-process), {} fan-in request links\n\n",
        b.events, b.files, b.malformed, b.spans, b.traces, b.complete_traces, b.linked_requests
    ));
    out.push_str("## Per-stage latency over complete traces (ms)\n\n");
    out.push_str("| stage | traces | mean | p50 | p99 | max |\n");
    out.push_str("|-------|-------:|-----:|----:|----:|----:|\n");
    let rows: [(&str, &Pctl); 8] = [
        ("ingest", &b.ingest_stage_ms),
        ("drift_detect", &b.drift_detect_stage_ms),
        ("online_round", &b.online_round_stage_ms),
        ("publish", &b.publish_stage_ms),
        ("reload", &b.reload_stage_ms),
        ("first_serve", &b.first_serve_stage_ms),
        ("publish→visible", &b.publish_to_visible_ms),
        ("end-to-end", &b.e2e_ms),
    ];
    for (name, p) in rows {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            name, p.n, p.mean, p.p50, p.p99, p.max
        ));
    }
    // Critical path of the slowest complete trace: the one worth staring
    // at when the publish-to-visible latency regresses.
    let slowest = merged
        .traces
        .iter()
        .filter(|(_, t)| t.is_complete())
        .max_by(|a, b| {
            a.1.e2e_ms()
                .unwrap_or(0.0)
                .total_cmp(&b.1.e2e_ms().unwrap_or(0.0))
        });
    if let Some((id, trace)) = slowest {
        let path = trace.critical_path();
        if let Some(root) = path.first() {
            out.push_str(&format!(
                "\n## Critical path of slowest complete trace `{id:032x}` \
                 ({:.2} ms end-to-end)\n\n",
                trace.e2e_ms().unwrap_or(0.0)
            ));
            out.push_str("| span | source | start offset (ms) | duration (ms) |\n");
            out.push_str("|------|--------|------------------:|--------------:|\n");
            for s in &path {
                let src = files.get(s.src).map_or("?", |f| f.as_str());
                out.push_str(&format!(
                    "| {} | {} | {:.2} | {:.2} |\n",
                    s.name,
                    src,
                    s.start_ms - root.start_ms,
                    s.dur_ms
                ));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut out_json: Option<String> = None;
    let mut require_complete = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_json = args.get(i + 1).cloned();
                i += 2;
            }
            "--require-complete" => {
                require_complete = true;
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: trace-query <trace.jsonl>... [--out trace-stages.json] [--require-complete]"
                );
                return;
            }
            a => {
                files.push(a.to_string());
                i += 1;
            }
        }
    }
    if files.is_empty() {
        eprintln!(
            "usage: trace-query <trace.jsonl>... [--out trace-stages.json] [--require-complete]"
        );
        std::process::exit(2);
    }
    let mut merged = Merged::default();
    for (src, path) in files.iter().enumerate() {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
        fold_file(&mut merged, src, text.lines());
    }
    let b = bench(&merged, files.len());
    print!("{}", render_markdown(&merged, &b, &files));
    if let Some(path) = out_json {
        let json = serde_json::to_string_pretty(&b).expect("bench serializes");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if require_complete && b.complete_traces == 0 {
        eprintln!(
            "error: no complete cross-process trace (need window_commit + publish + reload \
             sharing one trace id)"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-process trace: traind emits window_commit (span 1, root) with
    /// children ingest/drift_detect/online_round/publish (spans 2-5);
    /// serve emits reload (span 6, parent 5 = publish) and first_serve
    /// (span 7, parent 6). wall_ms is the span END on the shared axis.
    const TRACE: &str = "0000000000000000000000000000abcd";
    fn traind_lines() -> Vec<&'static str> {
        vec![
            r#"{"seq":1,"ms":1.0,"wall_ms":1010.0,"ev":"phase","name":"ingest","trace":"0000000000000000000000000000abcd","span":"0000000000000002","parent":"0000000000000001","start_ms":0.0,"dur_ms":10.0}"#,
            r#"{"seq":2,"ms":2.0,"wall_ms":1030.0,"ev":"phase","name":"drift_detect","trace":"0000000000000000000000000000abcd","span":"0000000000000003","parent":"0000000000000001","start_ms":0.0,"dur_ms":20.0}"#,
            r#"{"seq":3,"ms":3.0,"wall_ms":1130.0,"ev":"phase","name":"online_round","trace":"0000000000000000000000000000abcd","span":"0000000000000004","parent":"0000000000000001","start_ms":0.0,"dur_ms":100.0}"#,
            r#"{"seq":4,"ms":4.0,"wall_ms":1190.0,"ev":"phase","name":"publish","trace":"0000000000000000000000000000abcd","span":"0000000000000005","parent":"0000000000000001","start_ms":0.0,"dur_ms":60.0}"#,
            r#"{"seq":5,"ms":5.0,"wall_ms":1195.0,"ev":"phase","name":"window_commit","trace":"0000000000000000000000000000abcd","span":"0000000000000001","start_ms":0.0,"dur_ms":195.0}"#,
        ]
    }
    fn serve_lines() -> Vec<&'static str> {
        vec![
            r#"{"seq":1,"ms":1.0,"wall_ms":1180.0,"ev":"phase","name":"reload","trace":"0000000000000000000000000000abcd","span":"0000000000000006","parent":"0000000000000005","start_ms":0.0,"dur_ms":40.0}"#,
            r#"{"seq":2,"ms":2.0,"wall_ms":1250.0,"ev":"serve_batch","name":"cil","trace":"0000000000000000000000000000abcd","span":"0000000000000007","parent":"0000000000000006","links":["00-000000000000000000000000000000aa-00000000000000aa-01"],"batch":2}"#,
            r#"{"seq":3,"ms":3.0,"wall_ms":1250.0,"ev":"phase","name":"first_serve","trace":"0000000000000000000000000000abcd","span":"0000000000000007","parent":"0000000000000006","start_ms":0.0,"dur_ms":5.0}"#,
        ]
    }

    fn merged_fixture() -> Merged {
        let mut m = Merged::default();
        fold_file(&mut m, 0, traind_lines());
        fold_file(&mut m, 1, serve_lines());
        m
    }

    #[test]
    fn merges_files_into_one_complete_trace() {
        let m = merged_fixture();
        assert_eq!(m.traces.len(), 1);
        assert_eq!(m.counts.malformed, 0);
        let t = m.traces.values().next().expect("one trace");
        assert_eq!(t.spans.len(), 7);
        assert!(t.is_complete());
        assert_eq!(t.linked_requests, 1);
        let root = t.root().expect("root");
        assert_eq!(root.name, "window_commit");
        assert_eq!(root.span_id, 1);
        // window_commit runs 1000 → 1195; first_serve ends at 1250 on the
        // serve side, so the trace extends past its root.
        assert!((t.e2e_ms().expect("e2e") - 250.0).abs() < 1e-9);
        assert!((t.publish_to_visible_ms().expect("ptv") - 120.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_follows_latest_ends_across_processes() {
        let m = merged_fixture();
        let t = m.traces.values().next().expect("one trace");
        let names: Vec<&str> = t.critical_path().iter().map(|s| s.name.as_str()).collect();
        // publish (ends 1190) beats online_round (ends 1130) among the
        // root's children; then the cross-process reload → first_serve.
        assert_eq!(
            names,
            vec!["window_commit", "publish", "reload", "first_serve"]
        );
        let path = t.critical_path();
        assert_eq!(path[2].src, 1, "reload comes from the serve file");
    }

    #[test]
    fn bench_aggregates_have_the_gated_keys() {
        let m = merged_fixture();
        let b = bench(&m, 2);
        assert_eq!(b.traces, 1);
        assert_eq!(b.complete_traces, 1);
        assert_eq!(b.spans, 7);
        assert!((b.publish_stage_ms.p50 - 60.0).abs() < 1e-9);
        assert!((b.reload_stage_ms.p50 - 40.0).abs() < 1e-9);
        assert!((b.first_serve_stage_ms.p99 - 5.0).abs() < 1e-9);
        let json = serde_json::to_string(&b).expect("serializes");
        for key in [
            "\"e2e_ms\"",
            "\"publish_to_visible_ms\"",
            "\"ingest_stage_ms\"",
            "\"drift_detect_stage_ms\"",
            "\"online_round_stage_ms\"",
            "\"publish_stage_ms\"",
            "\"reload_stage_ms\"",
            "\"first_serve_stage_ms\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn incomplete_traces_are_counted_but_not_aggregated() {
        let mut m = Merged::default();
        // traind-only trace: no reload ever observed.
        fold_file(&mut m, 0, traind_lines());
        let b = bench(&m, 1);
        assert_eq!(b.traces, 1);
        assert_eq!(b.complete_traces, 0);
        assert_eq!(b.e2e_ms.n, 0);
        let md = render_markdown(&m, &b, &["traind.jsonl".to_string()]);
        assert!(md.contains("0 complete"), "{md}");
        assert!(!md.contains("Critical path"), "{md}");
    }

    #[test]
    fn markdown_reports_stages_and_critical_path() {
        let m = merged_fixture();
        let b = bench(&m, 2);
        let files = ["traind.jsonl".to_string(), "serve.jsonl".to_string()];
        let md = render_markdown(&m, &b, &files);
        assert!(md.contains("1 complete"), "{md}");
        assert!(md.contains(&format!(
            "Critical path of slowest complete trace `{TRACE}`"
        )));
        assert!(md.contains("| reload | serve.jsonl |"), "{md}");
        assert!(md.contains("| end-to-end | 1 | 250.00 |"), "{md}");
    }

    #[test]
    fn garbage_and_untraced_lines_are_tolerated() {
        let mut m = Merged::default();
        fold_file(
            &mut m,
            0,
            [
                "not json",
                r#"{"seq":1,"ms":1.0,"ev":"scalar","name":"loss_total","task":0,"value":1.0}"#,
                r#"{"seq":2,"ms":2.0,"wall_ms":9.0,"ev":"phase","name":"warmup","task":0,"dur_ms":3.0}"#,
            ],
        );
        assert_eq!(m.counts.malformed, 1);
        assert_eq!(m.counts.events, 2);
        assert!(m.traces.is_empty());
    }
}
