//! Folds a `CDCL_TRACE` JSONL trace into a per-task summary table.
//!
//! Reads the event stream produced by `cdcl-telemetry` (one JSON object per
//! line), aggregates it per task — phase wall-clock, step counts, first/last
//! losses, pair agreement, pseudo-label flip rate, memory occupancy, and
//! kernel counters — and prints a Markdown table. Span durations are also
//! folded onto the shared `cdcl-obs` histogram grid, yielding per-phase
//! p50/p95/p99 columns alongside the wall-clock totals. `--out <path>` also
//! dumps the full aggregates as JSON.
//!
//! ```text
//! CDCL_TRACE=trace.jsonl cargo run --release -p cdcl-bench --bin table1 -- --scale smoke
//! cargo run --release -p cdcl-bench --bin trace-summary -- trace.jsonl --out summary.json
//! ```

use std::collections::BTreeMap;

use cdcl_bench::trace::LineCounts;
use cdcl_obs::hist;
use serde::Serialize;

/// Aggregated view of one task's events.
#[derive(Debug, Default, Clone, Serialize)]
struct TaskAgg {
    task: usize,
    /// Wall-clock per phase name, summed over all spans (milliseconds).
    phase_ms: Vec<(String, f64)>,
    /// Number of optimizer steps observed (`loss_warmup` + `loss_total`).
    steps: usize,
    /// First and last observed training loss (`loss_warmup`, then
    /// `loss_total` once adaptation starts). `None` when the trace has no
    /// loss scalars for the task.
    loss_first: Option<f64>,
    loss_last: Option<f64>,
    /// Last Eq. 19 pair-agreement rate.
    pair_agreement: Option<f64>,
    /// Last pseudo-label flip rate between the two centroid rounds.
    pseudo_flip_rate: Option<f64>,
    /// Memory records held by this task after the latest rebalance.
    memory_occupancy: Option<f64>,
    /// Kernel counters attributed to learning this task.
    gemm_calls: u64,
    gemm_fmas: u64,
    /// Watchdog trips and warnings recorded against this task.
    watchdogs: usize,
    warnings: usize,
}

/// Distribution of one phase's span durations across all tasks, estimated
/// from the shared `cdcl-obs` log-bucket grid (`hist::BUCKET_BOUNDS`).
#[derive(Debug, Clone, Serialize)]
struct PhaseDist {
    phase: String,
    spans: u64,
    total_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// The whole summary: tasks in order plus trace-level tallies.
#[derive(Debug, Serialize)]
struct Summary {
    tasks: Vec<TaskAgg>,
    /// Per-phase span-duration percentiles (trace-wide, sorted by name).
    phases: Vec<PhaseDist>,
    events: usize,
    /// Lines that failed to parse as JSON (a healthy trace has zero).
    malformed: usize,
}

/// Folds trace lines into the per-task summary.
fn fold<'l>(lines: impl IntoIterator<Item = &'l str>) -> Summary {
    let mut by_task: BTreeMap<usize, TaskAgg> = BTreeMap::new();
    let mut phase_ms: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
    // Trace-wide span distributions on the shared log-bucket grid, keyed by
    // phase name. Durations are bucketed in microseconds — the same unit the
    // live `cdcl_train_*_step_us` histograms use — so the grid's nine
    // decades leave headroom on both ends.
    let mut dist: BTreeMap<String, ([u64; hist::BUCKET_COUNT], f64)> = BTreeMap::new();
    let mut counts = LineCounts::default();
    for v in lines.into_iter().filter_map(|line| counts.event(line)) {
        if v.str_field("ev") == Some("phase") {
            if let (Some(name), Some(ms)) = (v.str_field("name"), v.f64_field("dur_ms")) {
                let (buckets, total) = dist
                    .entry(name.to_string())
                    .or_insert(([0u64; hist::BUCKET_COUNT], 0.0));
                buckets[hist::bucket_index(ms * 1000.0)] += 1;
                *total += ms;
            }
        }
        let Some(task) = v.u64_field("task").map(|t| t as usize) else {
            continue; // task-less events don't join the per-task table
        };
        let agg = by_task.entry(task).or_insert_with(|| TaskAgg {
            task,
            ..TaskAgg::default()
        });
        match v.str_field("ev") {
            Some("phase") => {
                if let (Some(name), Some(ms)) = (v.str_field("name"), v.f64_field("dur_ms")) {
                    *phase_ms
                        .entry(task)
                        .or_default()
                        .entry(name.to_string())
                        .or_insert(0.0) += ms;
                }
            }
            Some("scalar") => {
                let value = v.f64_field("value");
                match v.str_field("name") {
                    Some("loss_warmup" | "loss_total") => {
                        agg.steps += 1;
                        if agg.loss_first.is_none() {
                            agg.loss_first = value;
                        }
                        agg.loss_last = value;
                    }
                    Some("pair_agreement") => agg.pair_agreement = value,
                    Some("pseudo_flip_rate") => agg.pseudo_flip_rate = value,
                    Some("memory_occupancy") => agg.memory_occupancy = value,
                    _ => {}
                }
            }
            Some("counters") => {
                agg.gemm_calls += v.u64_field("gemm_calls").unwrap_or(0);
                agg.gemm_fmas += v.u64_field("gemm_fmas").unwrap_or(0);
            }
            Some("watchdog") => agg.watchdogs += 1,
            Some("warn") => agg.warnings += 1,
            _ => {}
        }
    }
    for (task, phases) in phase_ms {
        if let Some(agg) = by_task.get_mut(&task) {
            agg.phase_ms = phases.into_iter().collect();
        }
    }
    Summary {
        tasks: by_task.into_values().collect(),
        phases: dist
            .into_iter()
            .map(|(phase, (buckets, total_ms))| PhaseDist {
                spans: buckets.iter().sum(),
                total_ms,
                p50_ms: hist::percentile(&buckets, 0.50) / 1000.0,
                p95_ms: hist::percentile(&buckets, 0.95) / 1000.0,
                p99_ms: hist::percentile(&buckets, 0.99) / 1000.0,
                phase,
            })
            .collect(),
        events: counts.events,
        malformed: counts.malformed,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "—".to_string(),
    }
}

/// Renders the per-task Markdown table plus a per-phase breakdown.
fn render_markdown(s: &Summary) -> String {
    let mut out = String::new();
    out.push_str("# CDCL trace summary\n\n");
    out.push_str(&format!(
        "{} events ({} malformed lines), {} tasks\n\n",
        s.events,
        s.malformed,
        s.tasks.len()
    ));
    out.push_str(
        "| task | steps | loss first | loss last | pair agree | flip rate \
         | mem occ | GEMM calls | GEMM FMAs | watchdog | warn |\n",
    );
    out.push_str(
        "|-----:|------:|-----------:|----------:|-----------:|----------:\
         |--------:|-----------:|----------:|---------:|-----:|\n",
    );
    for t in &s.tasks {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            t.task,
            t.steps,
            fmt_opt(t.loss_first),
            fmt_opt(t.loss_last),
            fmt_opt(t.pair_agreement),
            fmt_opt(t.pseudo_flip_rate),
            t.memory_occupancy.map_or(0, |v| v as usize),
            t.gemm_calls,
            t.gemm_fmas,
            t.watchdogs,
            t.warnings,
        ));
    }
    out.push_str("\n## Phase wall-clock (ms)\n\n");
    let mut names: Vec<&str> = Vec::new();
    for t in &s.tasks {
        for (n, _) in &t.phase_ms {
            if !names.contains(&n.as_str()) {
                names.push(n);
            }
        }
    }
    names.sort_unstable();
    out.push_str(&format!("| task | {} |\n", names.join(" | ")));
    out.push_str(&format!("|-----:|{}\n", "------:|".repeat(names.len())));
    for t in &s.tasks {
        let cells: Vec<String> = names
            .iter()
            .map(|n| {
                t.phase_ms
                    .iter()
                    .find(|(pn, _)| pn == n)
                    .map_or("—".to_string(), |(_, ms)| format!("{ms:.1}"))
            })
            .collect();
        out.push_str(&format!("| {} | {} |\n", t.task, cells.join(" | ")));
    }
    if !s.phases.is_empty() {
        out.push_str("\n## Phase duration percentiles (ms)\n\n");
        out.push_str("| phase | spans | total | p50 | p95 | p99 |\n");
        out.push_str("|-------|------:|------:|----:|----:|----:|\n");
        for p in &s.phases {
            out.push_str(&format!(
                "| {} | {} | {:.1} | {:.2} | {:.2} | {:.2} |\n",
                p.phase, p.spans, p.total_ms, p.p50_ms, p.p95_ms, p.p99_ms
            ));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace: Option<String> = None;
    let mut out_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_json = args.get(i + 1).cloned();
                i += 2;
            }
            "--help" | "-h" => {
                eprintln!("usage: trace-summary <trace.jsonl> [--out summary.json]");
                return;
            }
            a => {
                trace = Some(a.to_string());
                i += 1;
            }
        }
    }
    let Some(trace) = trace else {
        eprintln!("usage: trace-summary <trace.jsonl> [--out summary.json]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("cannot read trace {trace}: {e}"));
    let summary = fold(text.lines());
    print!("{}", render_markdown(&summary));
    if let Some(path) = out_json {
        let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if summary.malformed > 0 {
        eprintln!("warning: {} malformed trace lines", summary.malformed);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_phases_scalars_and_counters_per_task() {
        let s = fold([
            r#"{"seq":0,"ms":0.1,"ev":"phase","name":"warmup","task":0,"epoch":0,"dur_ms":10.0}"#,
            r#"{"seq":1,"ms":1.0,"ev":"phase","name":"warmup","task":0,"epoch":1,"dur_ms":5.0}"#,
            r#"{"seq":2,"ms":2.0,"ev":"scalar","name":"loss_warmup","task":0,"epoch":0,"step":0,"value":2.5}"#,
            r#"{"seq":3,"ms":3.0,"ev":"scalar","name":"loss_total","task":0,"epoch":2,"step":0,"value":1.25}"#,
            r#"{"seq":4,"ms":4.0,"ev":"scalar","name":"pair_agreement","task":0,"epoch":2,"value":0.75}"#,
            r#"{"seq":5,"ms":5.0,"ev":"counters","task":0,"gemm_calls":10,"gemm_fmas":1000}"#,
            r#"{"seq":6,"ms":6.0,"ev":"scalar","name":"memory_occupancy","task":1,"value":30}"#,
        ]);
        assert_eq!(s.events, 7);
        assert_eq!(s.malformed, 0);
        assert_eq!(s.tasks.len(), 2);
        let t0 = &s.tasks[0];
        assert_eq!(t0.task, 0);
        assert_eq!(t0.steps, 2);
        assert_eq!(t0.loss_first, Some(2.5));
        assert_eq!(t0.loss_last, Some(1.25));
        assert_eq!(t0.pair_agreement, Some(0.75));
        assert_eq!(t0.gemm_calls, 10);
        assert_eq!(t0.gemm_fmas, 1000);
        assert_eq!(t0.phase_ms, vec![("warmup".to_string(), 15.0)]);
        assert_eq!(s.tasks[1].memory_occupancy, Some(30.0));
        // The two warmup spans (10 ms, 5 ms → 10000 µs, 5000 µs) land in the
        // (2e3, 5e3] and (5e3, 1e4] buckets; interpolation puts p50 at the
        // 5 ms bound and p95/p99 at 90%/98% through the upper bucket.
        assert_eq!(s.phases.len(), 1);
        let p = &s.phases[0];
        assert_eq!(p.phase, "warmup");
        assert_eq!(p.spans, 2);
        assert!((p.total_ms - 15.0).abs() < 1e-9);
        assert!((p.p50_ms - 5.0).abs() < 1e-9, "p50 = {}", p.p50_ms);
        assert!((p.p95_ms - 9.5).abs() < 1e-9, "p95 = {}", p.p95_ms);
        assert!((p.p99_ms - 9.9).abs() < 1e-9, "p99 = {}", p.p99_ms);
    }

    #[test]
    fn non_finite_strings_and_garbage_lines_are_handled() {
        let s = fold([
            r#"{"seq":0,"ms":0.1,"ev":"watchdog","name":"loss_total","phase":"adaptation","task":0,"epoch":1,"step":2,"value":"NaN"}"#,
            "not json at all",
        ]);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.tasks[0].watchdogs, 1);
    }

    #[test]
    fn markdown_has_a_row_per_task() {
        let s = fold([
            r#"{"seq":0,"ms":0.1,"ev":"scalar","name":"loss_total","task":0,"value":1.0}"#,
            r#"{"seq":1,"ms":0.2,"ev":"scalar","name":"loss_total","task":1,"value":2.0}"#,
        ]);
        let md = render_markdown(&s);
        assert!(md.contains("| 0 | 1 | 1.0000 |"), "{md}");
        assert!(md.contains("| 1 | 1 | 2.0000 |"), "{md}");
    }

    #[test]
    fn percentile_section_renders_and_skips_empty_traces() {
        let with_spans = fold([
            r#"{"seq":0,"ms":0.1,"ev":"phase","name":"adaptation","task":0,"epoch":0,"dur_ms":3.0}"#,
        ]);
        let md = render_markdown(&with_spans);
        assert!(md.contains("## Phase duration percentiles (ms)"), "{md}");
        assert!(md.contains("| adaptation | 1 | 3.0 |"), "{md}");
        let no_spans =
            fold([r#"{"seq":0,"ms":0.1,"ev":"scalar","name":"loss_total","task":0,"value":1.0}"#]);
        let md = render_markdown(&no_spans);
        assert!(!md.contains("percentiles"), "{md}");
    }
}
