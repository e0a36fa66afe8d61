//! The `cdcl-serve` engine: multi-tenant batched TIL/CIL inference over a
//! registry of snapshots (DESIGN.md §13).
//!
//! This module tree is the whole server minus `main` — the `cdcl-serve`
//! bin is a thin wrapper, and the integration tests drive [`run_tcp`] /
//! [`serve_stream`] in-process. The pieces:
//!
//! * [`registry`] — the [`SnapshotRegistry`]: many `.cdclsnap` models
//!   keyed by model-id, each behind an `RwLock<Arc<LoadedModel>>` so the
//!   `RELOAD` verb swaps versions atomically while in-flight requests
//!   finish on the version they started with;
//! * [`admission`] — per-model in-flight quotas: beyond `--max-inflight`
//!   admitted requests a model sheds load with `ok:false` / `busy: …`
//!   instead of queueing unboundedly (plus the `--max-queue` cap on any
//!   one connection's pending queue);
//! * [`metrics`] — the `cdcl_serve_*` registry series, including the
//!   per-model `cdcl_serve_model_*{model="…"}` families.
//!
//! Transport is the shared line server ([`crate::net`]): `--threads`
//! workers behind one acceptor, `TCP_NODELAY`, bounded lines, and a failed
//! `accept()`/`try_clone()` logged and counted
//! (`cdcl_serve_accept_errors_total`), never fatal. Each connection worker
//! stages its batches and runs their forward passes on its own thread; the
//! workers are where serving's parallelism comes from. Observability
//! (DESIGN.md §11): every micro-batch feeds the global and per-model
//! histograms/counters, `GET /metrics` on the listener answers the
//! Prometheus exposition, the bare line `METRICS` returns the registry as
//! one JSON object, and `MODELS` lists the loaded models/versions.
//! Output probabilities are screened per batch: a row containing NaN/Inf
//! becomes an error response and bumps `cdcl_serve_nonfinite_total`.

pub mod admission;
pub mod metrics;
pub mod registry;

use crate::net::{self, json_str, registry_json};
use crate::{flag_usize, flag_value};
use cdcl_core::CdclTrainer;
use cdcl_obs::HistogramCore;
use cdcl_telemetry as telemetry;
use cdcl_tensor::{PooledBuf, Tensor};
use metrics::{
    ACCEPT_ERRORS_TOTAL, BATCHES_TOTAL, BATCH_LATENCY_US, BATCH_SIZE, BUSY_TOTAL, FAILED_TOTAL,
    NONFINITE_TOTAL, OVERSIZE_LINES_TOTAL, QUEUE_DEPTH, REQUESTS_TOTAL,
};
use registry::{LoadedModel, ModelSlot, SnapshotRegistry, DEFAULT_MODEL};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One JSON-lines prediction request.
#[derive(Debug, Deserialize)]
pub struct Request {
    /// Client-chosen id, echoed in the response (0 when omitted).
    pub id: Option<u64>,
    /// Registry model id; may be omitted when exactly one model is loaded.
    pub model: Option<String>,
    /// `"til"` or `"cil"`.
    pub mode: Option<String>,
    /// Task id (TIL only).
    pub task: Option<usize>,
    /// Flattened `c*h*w` image.
    pub image: Option<Vec<f32>>,
    /// Optional traceparent (`00-<trace>-<span>-01`) of the caller's span:
    /// echoed in the response and recorded as a fan-in link on the batch
    /// span that absorbs this request (DESIGN.md §16).
    pub trace: Option<String>,
}

/// One JSON-lines prediction response.
#[derive(Debug, Serialize)]
pub struct Response {
    pub id: u64,
    pub ok: bool,
    /// Registry id of the model that answered.
    pub model: Option<String>,
    /// Snapshot version that answered (bumped by every `RELOAD`).
    pub version: Option<u64>,
    pub mode: Option<String>,
    pub task: Option<usize>,
    /// Argmax class: task-local for TIL, global for CIL.
    pub pred: Option<usize>,
    /// Full probability row (softmax).
    pub probs: Option<Vec<f32>>,
    pub error: Option<String>,
    /// The request's `trace` field, echoed verbatim (`null` when absent —
    /// the vendored serde has no skip-if-none, see DESIGN.md §16).
    pub trace: Option<String>,
}

impl Response {
    fn failure(id: u64, error: String) -> Self {
        Self {
            id,
            ok: false,
            model: None,
            version: None,
            mode: None,
            task: None,
            pred: None,
            probs: None,
            error: Some(error),
            trace: None,
        }
    }
}

/// Per-forward-micro-batch latency summary written to `--bench-out`
/// (`BENCH_serve.json`), in microseconds. Percentiles are interpolated on
/// the fixed log-bucket grid ([`cdcl_obs::hist`]) and clamped to the
/// observed range.
#[derive(Debug, Default, Serialize)]
pub struct LatencySummary {
    pub mean: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

/// The `BENCH_serve.json` payload.
#[derive(Debug, Serialize)]
pub struct ServeReport {
    pub snapshot: String,
    pub models: usize,
    pub tasks: usize,
    pub total_classes: usize,
    pub max_batch: usize,
    pub requests: u64,
    pub failed_requests: u64,
    pub busy_requests: u64,
    pub batches: u64,
    pub mean_batch_size: f64,
    pub latency_us: LatencySummary,
    /// Wall-clock serving duration (listener open → loop exit).
    pub wall_secs: f64,
    /// Served requests over **wall-clock** serving time — not summed
    /// per-batch forward latency, which ignores queueing/IO time and
    /// double-counts once batches run concurrently on the threaded loop.
    pub throughput_rps: f64,
}

/// Running serve statistics, shared by every connection worker. Fixed
/// size and lock-free however long the server runs: counters, a latency
/// histogram, and the latency range as `f64` bits (non-negative floats
/// order like their bit patterns).
#[derive(Debug)]
pub struct ServeStats {
    requests: AtomicU64,
    failed: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    served: AtomicU64,
    latency_us: HistogramCore,
    min_latency_bits: AtomicU64,
    max_latency_bits: AtomicU64,
}

impl Default for ServeStats {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            served: AtomicU64::new(0),
            latency_us: HistogramCore::default(),
            min_latency_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_latency_bits: AtomicU64::new(0),
        }
    }
}

impl ServeStats {
    /// Requests seen (including malformed and shed ones).
    pub fn requests(&self) -> u64 {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered with a non-busy error response.
    pub fn failed(&self) -> u64 {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.failed.load(Ordering::Relaxed)
    }

    /// Requests shed by admission control (`busy: …` responses).
    pub fn busy(&self) -> u64 {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.busy.load(Ordering::Relaxed)
    }

    fn inc_requests(&self) {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn inc_failed(&self) {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn inc_busy(&self) {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed forward pass; `latency_us` is a measured,
    /// non-negative duration.
    pub fn add_batch(&self, batch_size: usize, latency_us: f64) {
        // ordering: stat — report-only aggregates; no memory is published
        // through them.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.served.fetch_add(batch_size as u64, Ordering::Relaxed);
        self.min_latency_bits
            .fetch_min(latency_us.to_bits(), Ordering::Relaxed);
        self.max_latency_bits
            .fetch_max(latency_us.to_bits(), Ordering::Relaxed);
        self.latency_us.observe(latency_us);
    }

    /// Forward passes executed so far.
    pub fn batch_count(&self) -> u64 {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.batches.load(Ordering::Relaxed)
    }

    /// Requests that went through a forward pass.
    pub fn served(&self) -> u64 {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.served.load(Ordering::Relaxed)
    }

    /// The forward-latency summary; all zero before the first batch.
    fn latency_summary(&self) -> LatencySummary {
        let count = self.latency_us.count();
        if count == 0 {
            return LatencySummary::default();
        }
        // ordering: stat — report-time reads of the latency range.
        let min = f64::from_bits(self.min_latency_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_latency_bits.load(Ordering::Relaxed));
        let pct = |q: f64| self.latency_us.percentile(q).max(min).min(max);
        LatencySummary {
            mean: self.latency_us.sum() / count as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max,
        }
    }

    /// Folds the run into the `--bench-out` report. `wall_secs` is the
    /// wall-clock duration of the serving loop — the denominator of the
    /// throughput claim.
    pub fn report(
        &self,
        snapshot: &str,
        trainer: &CdclTrainer,
        max_batch: usize,
        models: usize,
        wall_secs: f64,
    ) -> ServeReport {
        let (batches, served) = (self.batch_count(), self.served());
        ServeReport {
            snapshot: snapshot.to_string(),
            models,
            tasks: trainer.model().num_tasks(),
            total_classes: trainer.model().total_classes(),
            max_batch,
            requests: self.requests(),
            failed_requests: self.failed(),
            busy_requests: self.busy(),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
            latency_us: self.latency_summary(),
            wall_secs,
            throughput_rps: if wall_secs > 0.0 {
                served as f64 / wall_secs
            } else {
                0.0
            },
        }
    }
}

/// Parsed `cdcl-serve` command line.
#[derive(Debug)]
pub struct ServeArgs {
    /// `(model_id, snapshot_path)` pairs, registration order preserved;
    /// `--snapshot P` is shorthand for `--model default=P`.
    pub models: Vec<(String, PathBuf)>,
    pub tcp: Option<String>,
    pub max_batch: usize,
    pub bench_out: Option<String>,
    /// TCP mode: exit after this many connections (0 = forever).
    pub conns: usize,
    /// TCP accept-loop workers.
    pub threads: usize,
    /// Per-model admitted-request quota (0 = unlimited).
    pub max_inflight: usize,
    /// Per-connection pending-queue cap; beyond it requests are shed busy.
    pub max_queue: usize,
    /// Allow starting with zero models: the registry is then populated
    /// entirely through `RELOAD` (the `cdcl-traind` publish loop).
    pub empty_ok: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            models: Vec::new(),
            tcp: None,
            max_batch: 32,
            bench_out: Some("BENCH_serve.json".to_string()),
            conns: 1,
            threads: 4,
            max_inflight: 0,
            max_queue: 256,
            empty_ok: false,
        }
    }
}

/// The `cdcl-serve` usage text printed on any CLI error.
pub fn serve_usage() -> String {
    "usage: cdcl-serve --snapshot <path.cdclsnap> | --model <id>=<path.cdclsnap> ... | --empty-ok\n\
     \x20   [--tcp <addr>] [--threads <n>] [--conns <n>]\n\
     \x20   [--max-batch <n>] [--max-inflight <n>] [--max-queue <n>]\n\
     \x20   [--bench-out <path|none>]"
        .to_string()
}

/// Parses a `cdcl-serve` argument vector. All CLI mistakes — a flag
/// missing its value, a malformed number, an unknown flag, no model —
/// come back as a usage error, never a panic.
pub fn parse_args_from(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--snapshot" => {
                let path = flag_value(argv, i, serve_usage)?;
                args.models
                    .push((DEFAULT_MODEL.to_string(), PathBuf::from(path)));
            }
            "--model" => {
                let spec = flag_value(argv, i, serve_usage)?;
                let (id, path) = spec.split_once('=').ok_or_else(|| {
                    format!(
                        "--model expects <id>=<path>, got {spec:?}\n{}",
                        serve_usage()
                    )
                })?;
                if !registry::valid_model_id(id) {
                    return Err(format!(
                        "invalid model id {id:?} (1-64 chars of [A-Za-z0-9._-])\n{}",
                        serve_usage()
                    ));
                }
                args.models.push((id.to_string(), PathBuf::from(path)));
            }
            "--tcp" => args.tcp = Some(flag_value(argv, i, serve_usage)?.to_string()),
            "--max-batch" => {
                args.max_batch = flag_usize(argv, i, serve_usage)?;
                if args.max_batch == 0 {
                    return Err(format!("--max-batch must be positive\n{}", serve_usage()));
                }
            }
            "--bench-out" => {
                args.bench_out = match flag_value(argv, i, serve_usage)? {
                    "none" => None,
                    path => Some(path.to_string()),
                };
            }
            "--conns" => args.conns = flag_usize(argv, i, serve_usage)?,
            "--threads" => {
                args.threads = flag_usize(argv, i, serve_usage)?;
                if args.threads == 0 {
                    return Err(format!("--threads must be positive\n{}", serve_usage()));
                }
            }
            "--empty-ok" => {
                args.empty_ok = true;
                i += 1;
                continue;
            }
            "--max-inflight" => args.max_inflight = flag_usize(argv, i, serve_usage)?,
            "--max-queue" => {
                args.max_queue = flag_usize(argv, i, serve_usage)?;
                if args.max_queue == 0 {
                    return Err(format!("--max-queue must be positive\n{}", serve_usage()));
                }
            }
            other => {
                return Err(format!("unknown argument {other}\n{}", serve_usage()));
            }
        }
        i += 2;
    }
    if args.models.is_empty() && !args.empty_ok {
        return Err(format!(
            "--snapshot <path.cdclsnap> (or --model <id>=<path>) is required\n{}",
            serve_usage()
        ));
    }
    let mut seen: Vec<&str> = Vec::new();
    for (id, _) in &args.models {
        if seen.contains(&id.as_str()) {
            return Err(format!("model id {id:?} given twice\n{}", serve_usage()));
        }
        seen.push(id);
    }
    Ok(args)
}

/// Parses `std::env::args`, exiting with the usage text on any CLI error
/// (bench binaries fail fast, but with a diagnosis — not an out-of-bounds
/// panic).
pub fn parse_args() -> ServeArgs {
    crate::parse_cli("cdcl-serve", parse_args_from)
}

/// Validates one parsed request against the model version that will serve
/// it. Returns the batching key `(is_til, task)` on success.
fn validate(trainer: &CdclTrainer, req: &Request) -> Result<(bool, usize), String> {
    let model = trainer.model();
    let (c, h, w) = trainer.input_dims();
    let image = req.image.as_ref().ok_or("missing `image`")?;
    if image.len() != c * h * w {
        return Err(format!(
            "image has {} floats, model expects {} (c={c}, h={h}, w={w})",
            image.len(),
            c * h * w
        ));
    }
    if !image.iter().all(|v| v.is_finite()) {
        return Err("image contains non-finite values".to_string());
    }
    match req.mode.as_deref() {
        Some("til") => {
            let task = req.task.ok_or("`til` requests need `task`")?;
            if task >= model.num_tasks() {
                return Err(format!(
                    "task {task} out of range (snapshot has {} tasks)",
                    model.num_tasks()
                ));
            }
            Ok((true, task))
        }
        Some("cil") => Ok((false, 0)),
        other => Err(format!(
            "unknown mode {other:?} (expected \"til\" or \"cil\")"
        )),
    }
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// One queued request: either admitted (holding its model slot and
/// admission ticket until the response is computed) or already rejected
/// (unknown model, quota, queue cap) and awaiting its in-order response.
enum Pending {
    Admitted {
        id: u64,
        req: Request,
        slot: Arc<ModelSlot>,
        /// Held for its `Drop`: releases the admission slot when the flush
        /// clears this entry (or the connection is torn down).
        _ticket: admission::Ticket,
    },
    Rejected {
        id: u64,
        error: String,
        /// True for load-shedding rejections (counted busy, not failed).
        busy: bool,
        /// The slot the request routed to, when it resolved that far.
        slot: Option<Arc<ModelSlot>>,
        /// The request's traceparent, echoed on the rejection response.
        trace: Option<String>,
    },
}

/// One `(model version, mode, task)` micro-batch within a flush.
struct Group {
    model: Arc<LoadedModel>,
    slot: Arc<ModelSlot>,
    is_til: bool,
    task: usize,
    members: Vec<usize>,
}

/// Runs the accumulated queue: answers rejected entries in place, groups
/// admitted ones by `(model version, mode, task)`, executes one forward
/// pass per group against the version captured at flush time (a concurrent
/// `RELOAD` cannot tear a batch), screens outputs for NaN/Inf, and writes
/// responses in arrival order.
fn flush_batch(
    pending: &mut Vec<Pending>,
    out: &mut dyn Write,
    stats: &ServeStats,
) -> std::io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    QUEUE_DEPTH.observe(pending.len() as f64);
    // Drain in place at the end (not `mem::take`) so the connection's
    // request-staging Vec keeps its capacity across flushes.
    let queue: &[Pending] = pending;
    let mut responses: Vec<Option<Response>> = (0..queue.len()).map(|_| None).collect();
    // Model versions captured once per slot per flush, so every member of
    // a group validates and executes against the same immutable snapshot.
    let mut captured: Vec<(*const ModelSlot, Arc<LoadedModel>)> = Vec::new();
    let mut groups: Vec<Group> = Vec::new();
    for (i, entry) in queue.iter().enumerate() {
        stats.inc_requests();
        REQUESTS_TOTAL.inc();
        match entry {
            Pending::Rejected {
                id,
                error,
                busy,
                slot,
                trace,
            } => {
                if *busy {
                    stats.inc_busy();
                    BUSY_TOTAL.inc();
                    if let Some(slot) = slot {
                        slot.metrics.requests.add(1);
                        slot.metrics.busy.add(1);
                    }
                } else {
                    stats.inc_failed();
                    FAILED_TOTAL.inc();
                    if let Some(slot) = slot {
                        slot.metrics.requests.add(1);
                        slot.metrics.failed.add(1);
                    }
                }
                let mut resp = Response::failure(*id, error.clone());
                resp.trace = trace.clone();
                responses[i] = Some(resp);
            }
            Pending::Admitted { id, req, slot, .. } => {
                slot.metrics.requests.add(1);
                let key = Arc::as_ptr(slot);
                let model = match captured.iter().find(|(p, _)| *p == key) {
                    Some((_, m)) => m.clone(),
                    None => {
                        let m = slot.current();
                        captured.push((key, m.clone()));
                        m
                    }
                };
                match validate(&model.trainer, req) {
                    Ok((is_til, task)) => {
                        match groups.iter_mut().find(|g| {
                            Arc::ptr_eq(&g.model, &model) && g.is_til == is_til && g.task == task
                        }) {
                            Some(g) => g.members.push(i),
                            None => groups.push(Group {
                                model,
                                slot: slot.clone(),
                                is_til,
                                task,
                                members: vec![i],
                            }),
                        }
                    }
                    Err(e) => {
                        stats.inc_failed();
                        FAILED_TOTAL.inc();
                        slot.metrics.failed.add(1);
                        let mut resp = Response::failure(*id, e);
                        resp.model = Some(model.id.clone());
                        resp.version = Some(model.version);
                        resp.trace = req.trace.clone();
                        responses[i] = Some(resp);
                    }
                }
            }
        }
    }

    for g in &groups {
        let trainer = &g.model.trainer;
        let (c, h, w) = trainer.input_dims();
        let n = g.members.len();
        // Batch staging comes from the tensor pool; after warm-up the same
        // batch shapes recur, so this is a recycled buffer. `validate`
        // guaranteed every member image is exactly `c*h*w` long.
        let mut data = PooledBuf::take_uninit(n * c * h * w);
        for (row, &i) in g.members.iter().enumerate() {
            let img = match &queue[i] {
                Pending::Admitted { req, .. } => req.image.as_deref().unwrap_or(&[]),
                Pending::Rejected { .. } => &[],
            };
            data[row * c * h * w..row * c * h * w + img.len()].copy_from_slice(img);
        }
        let images = Tensor::from_buf(data, &[n, c, h, w]);
        // Requests that carried a traceparent become fan-in links on the
        // batch event: a batch serves many traces, so they are links, not
        // parents. If this version was armed by a traced RELOAD and this is
        // its first batch, a `first_serve` marker span (child of the reload
        // span) brackets the forward pass — the trace's terminal stage.
        let mut links: Vec<telemetry::ctx::TraceContext> = Vec::new();
        let first_serve = if telemetry::enabled() {
            for &i in &g.members {
                if let Pending::Admitted { req, .. } = &queue[i] {
                    if let Some(c) = req
                        .trace
                        .as_deref()
                        .and_then(|tp| telemetry::ctx::TraceContext::parse(tp).ok())
                    {
                        links.push(c);
                    }
                }
            }
            g.slot.take_pending_first_serve(g.model.version)
        } else {
            None
        };
        // Tuple fields drop in declaration order: the span pops before the
        // remote-parent guard detaches, keeping the stack LIFO.
        let _first_serve = first_serve.map(|c| {
            let guard = telemetry::ctx::attach(c);
            let span = telemetry::span("first_serve").task(g.task);
            (span, guard)
        });
        let started = Instant::now();
        let probs = if g.is_til {
            trainer.model().predict_til(&images, g.task)
        } else {
            trainer.model().predict_cil(&images)
        };
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        stats.add_batch(n, latency_us);
        BATCHES_TOTAL.inc();
        BATCH_SIZE.observe(n as f64);
        BATCH_LATENCY_US.observe(latency_us);
        g.slot.metrics.latency_us.observe(latency_us);
        if telemetry::enabled() {
            let mut ev = telemetry::Event::new("serve_batch")
                .name(if g.is_til { "til" } else { "cil" })
                .task(g.task)
                .str_field("model", &g.model.id)
                .u64_field("version", g.model.version)
                .u64_field("batch", n as u64)
                .f64_field("latency_us", latency_us)
                .links("links", &links);
            if let Some(c) = telemetry::ctx::active() {
                ev = ev.trace_fields(c, None);
            }
            ev.emit();
        }
        let classes = probs.shape()[1];
        for (row, &i) in g.members.iter().enumerate() {
            let (id, trace) = match &queue[i] {
                Pending::Admitted { id, req, .. } => (*id, req.trace.clone()),
                Pending::Rejected { id, trace, .. } => (*id, trace.clone()),
            };
            let p = &probs.data()[row * classes..(row + 1) * classes];
            let mut resp = row_response(id, g.is_til, g.task, p, stats);
            if !resp.ok {
                g.slot.metrics.failed.add(1);
            }
            resp.model = Some(g.model.id.clone());
            resp.version = Some(g.model.version);
            resp.trace = trace;
            responses[i] = Some(resp);
        }
    }

    // Dropping the entries releases every admission ticket; refresh the
    // per-model in-flight gauges afterwards.
    let mut touched: Vec<Arc<ModelSlot>> = Vec::new();
    for entry in queue.iter() {
        let slot = match entry {
            Pending::Admitted { slot, .. } => Some(slot),
            Pending::Rejected { slot, .. } => slot.as_ref(),
        };
        if let Some(slot) = slot {
            if !touched.iter().any(|s| Arc::ptr_eq(s, slot)) {
                touched.push(slot.clone());
            }
        }
    }
    pending.clear();
    for slot in &touched {
        slot.metrics.inflight.set(slot.admission.inflight() as f64);
    }
    for resp in responses.into_iter().flatten() {
        let line = serde_json::to_string(&resp).expect("serialize response");
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Builds the response for one probability row, running the NaN/Inf
/// watchdog: a corrupted snapshot or numeric blow-up must surface as an
/// error response (and bump `cdcl_serve_nonfinite_total`), not a
/// confidently-wrong argmax. Public so the integration test can exercise
/// the screening directly — in debug builds the autograd graph asserts
/// finiteness on every node, so non-finite probabilities cannot be
/// produced through a real forward pass there; this path is the
/// release-mode guard.
#[doc(hidden)]
pub fn row_response(id: u64, is_til: bool, task: usize, p: &[f32], stats: &ServeStats) -> Response {
    if !p.iter().all(|v| v.is_finite()) {
        stats.inc_failed();
        FAILED_TOTAL.inc();
        NONFINITE_TOTAL.inc();
        if telemetry::enabled() {
            telemetry::Event::new("serve")
                .name("nonfinite_output")
                .task(task)
                .u64_field("request_id", id)
                .emit();
        }
        return Response::failure(
            id,
            "model produced non-finite output probabilities".to_string(),
        );
    }
    Response {
        id,
        ok: true,
        model: None,
        version: None,
        mode: Some(if is_til { "til" } else { "cil" }.to_string()),
        task: is_til.then_some(task),
        pred: Some(argmax(p)),
        probs: Some(p.to_vec()),
        error: None,
        trace: None,
    }
}

/// The daemon identity the shared line server records into.
static NET: net::Daemon = net::Daemon {
    name: "cdcl-serve",
    accept_errors: &ACCEPT_ERRORS_TOTAL,
    oversize_lines: &OVERSIZE_LINES_TOTAL,
};

/// The serve protocol on one stream: queue request lines, flush at
/// `max_batch`, on a blank line, and at end-of-stream. Verbs on any
/// stream: `METRICS` (registry as one JSON object), `MODELS` (loaded
/// models/versions), and `RELOAD <model> <path>` (atomic hot-swap: the
/// snapshot is loaded and fully verified before the swap, so failure
/// leaves the serving version untouched).
struct ServeSession<'a> {
    srv: &'a SnapshotRegistry,
    args: &'a ServeArgs,
    stats: &'a ServeStats,
    pending: Vec<Pending>,
}

impl<'a> ServeSession<'a> {
    fn new(srv: &'a SnapshotRegistry, args: &'a ServeArgs, stats: &'a ServeStats) -> Self {
        Self {
            srv,
            args,
            stats,
            pending: Vec::new(),
        }
    }
}

impl net::Session for ServeSession<'_> {
    fn line(&mut self, trimmed: &str, writer: &mut dyn Write) -> std::io::Result<()> {
        let (srv, args, stats) = (self.srv, self.args, self.stats);
        let pending = &mut self.pending;
        if trimmed.is_empty() {
            flush_batch(pending, writer, stats)?;
        } else if trimmed == "METRICS" {
            // Flush first so the answer reflects every request seen so far.
            flush_batch(pending, writer, stats)?;
            writeln!(writer, "{{\"ok\":true,\"metrics\":{}}}", registry_json())?;
            writer.flush()?;
        } else if trimmed == "MODELS" || trimmed.starts_with("MODELS ") {
            // `MODELS trace=<traceparent>` is the publisher's traced
            // read-back verification; the suffix (malformed or not) is
            // accepted and otherwise ignored so pre-tracing peers and
            // hand-typed verbs behave identically.
            flush_batch(pending, writer, stats)?;
            writeln!(writer, "{{\"ok\":true,\"models\":{}}}", srv.models_json())?;
            writer.flush()?;
        } else if let Some(rest) = trimmed.strip_prefix("RELOAD") {
            // In-flight requests must complete on the version they were
            // admitted against: flush before swapping.
            flush_batch(pending, writer, stats)?;
            writeln!(writer, "{}", reload(srv, rest))?;
            writer.flush()?;
        } else {
            match serde_json::from_str::<Request>(trimmed) {
                Ok(req) => {
                    pending.push(admit(srv, args, pending.len(), req));
                    if pending.len() >= args.max_batch {
                        flush_batch(pending, writer, stats)?;
                    }
                }
                Err(e) => {
                    stats.inc_requests();
                    stats.inc_failed();
                    REQUESTS_TOTAL.inc();
                    FAILED_TOTAL.inc();
                    let resp = Response::failure(0, format!("bad request line: {e}"));
                    let out = serde_json::to_string(&resp).expect("serialize response");
                    writeln!(writer, "{out}")?;
                    writer.flush()?;
                }
            }
        }
        Ok(())
    }

    fn end(&mut self, writer: &mut dyn Write) -> std::io::Result<()> {
        flush_batch(&mut self.pending, writer, self.stats)
    }
}

/// Queues one parsed request behind `queued` others: admitted against its
/// model's in-flight quota, or rejected (queue cap, quota, unknown model)
/// to be answered in order at the next flush.
fn admit(srv: &SnapshotRegistry, args: &ServeArgs, queued: usize, req: Request) -> Pending {
    let id = req.id.unwrap_or(0);
    if queued >= args.max_queue {
        return Pending::Rejected {
            id,
            error: format!("busy: queue full ({} pending)", args.max_queue),
            busy: true,
            slot: None,
            trace: req.trace,
        };
    }
    match srv.get(req.model.as_deref()) {
        Ok(slot) => match slot.admission.try_acquire() {
            Some(ticket) => {
                slot.metrics.inflight.set(slot.admission.inflight() as f64);
                Pending::Admitted {
                    id,
                    req,
                    slot,
                    _ticket: ticket,
                }
            }
            None => Pending::Rejected {
                id,
                error: format!(
                    "busy: model {} at in-flight quota ({})",
                    slot.id(),
                    slot.admission.max_inflight()
                ),
                busy: true,
                slot: Some(slot),
                trace: req.trace,
            },
        },
        Err(e) => Pending::Rejected {
            id,
            error: e,
            busy: false,
            slot: None,
            trace: req.trace,
        },
    }
}

/// Runs one `RELOAD <model> <path> [trace=<traceparent>]` verb (`rest` is
/// the text after `RELOAD`) and returns the reply line.
fn reload(srv: &SnapshotRegistry, rest: &str) -> String {
    let mut parts: Vec<&str> = rest.split_whitespace().collect();
    // An optional trailing `trace=<traceparent>` joins the publisher's
    // trace; malformed values are dropped (never an error) so the verb
    // grammar stays compatible both ways.
    let remote = if parts.len() == 3 && parts[2].starts_with("trace=") {
        let c = telemetry::ctx::TraceContext::parse(&parts[2]["trace=".len()..]).ok();
        parts.pop();
        c
    } else {
        None
    };
    if parts.len() != 2 {
        return format!(
            "{{\"ok\":false,\"verb\":\"reload\",\"error\":{}}}",
            json_str("RELOAD expects: RELOAD <model> <path.cdclsnap>")
        );
    }
    // Locals drop in reverse order: the `reload` span pops before the
    // remote-parent guard detaches.
    let _remote_guard = remote.map(telemetry::ctx::attach);
    let reload_span = telemetry::span("reload");
    match srv.load(parts[0], Path::new(parts[1])) {
        Ok((slot, version)) => {
            // Arm the first-serve marker: the next batch on this version
            // completes the publish→visible trace.
            if let Some(c) = reload_span.context() {
                slot.set_pending_first_serve(version, c);
            }
            let m = slot.current();
            format!(
                "{{\"ok\":true,\"verb\":\"reload\",\"model\":\"{}\",\"version\":{},\"tasks\":{},\"centroid_tasks\":{}}}",
                slot.id(),
                version,
                m.trainer.model().num_tasks(),
                m.trainer
                    .task_centroids()
                    .iter()
                    .filter(|c| c.shape()[0] > 0)
                    .count()
            )
        }
        Err(e) => format!(
            "{{\"ok\":false,\"verb\":\"reload\",\"error\":{}}}",
            json_str(&e)
        ),
    }
}

/// The serve loop over one already-open stream (stdio mode, tests).
pub fn serve_stream(
    srv: &SnapshotRegistry,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
    args: &ServeArgs,
    stats: &ServeStats,
) -> std::io::Result<()> {
    let mut session = ServeSession::new(srv, args, stats);
    net::serve_lines(&NET, reader, writer, &mut session)
}

/// The TCP server ([`net::run_tcp`]): `args.threads` workers, each
/// connection its own request queue, exiting after `args.conns`
/// connections in total (0 = run forever). A connection opening with
/// `GET /metrics` is answered with the Prometheus exposition.
pub fn run_tcp(
    srv: &SnapshotRegistry,
    listener: TcpListener,
    args: &ServeArgs,
    stats: &ServeStats,
) {
    net::run_tcp(&NET, listener, args.threads, args.conns, || {
        ServeSession::new(srv, args, stats)
    });
}

/// The full `cdcl-serve` entry point: load + re-verify every model of the
/// registry, serve stdio or TCP, then write the bench report.
pub fn run(args: &ServeArgs) {
    cdcl_obs::set_enabled(true);
    let srv = SnapshotRegistry::new(args.max_inflight);
    for (id, path) in &args.models {
        match srv.load(id, path) {
            Ok((slot, version)) => {
                let m = slot.current();
                eprintln!(
                    "cdcl-serve: loaded model {id} v{version} from {} ({} tasks, {} classes), frozen params re-verified",
                    path.display(),
                    m.trainer.model().num_tasks(),
                    m.trainer.model().total_classes()
                );
            }
            Err(e) => {
                eprintln!("cdcl-serve: model {id}: {e}");
                std::process::exit(2);
            }
        }
    }

    let stats = ServeStats::default();
    let serving = Instant::now();
    match &args.tcp {
        None => net::run_stdio(&NET, &mut ServeSession::new(&srv, args, &stats)),
        Some(addr) => {
            let listener = net::listen(&NET, addr);
            eprintln!(
                "cdcl-serve: listening on {addr} ({} workers, {} models)",
                args.threads,
                srv.len()
            );
            run_tcp(&srv, listener, args, &stats);
        }
    }
    let wall_secs = serving.elapsed().as_secs_f64();

    let Some(primary) = srv.primary() else {
        // `--empty-ok` server that exited before any RELOAD populated it:
        // there is no model to describe, so there is no report to write.
        telemetry::flush();
        eprintln!(
            "cdcl-serve: exiting with no models loaded ({} requests seen)",
            stats.requests()
        );
        return;
    };
    let m = primary.current();
    let snapshot_label = m
        .path
        .as_ref()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| primary.id().to_string());
    let report = stats.report(
        &snapshot_label,
        &m.trainer,
        args.max_batch,
        srv.len(),
        wall_secs,
    );
    crate::maybe_write_json(&args.bench_out, &report);
    telemetry::flush();
    eprintln!(
        "cdcl-serve: {} requests ({} failed, {} busy) in {} batches, mean batch {:.2}, p50 {:.0}us, {:.1} rps over {:.2}s wall",
        report.requests,
        report.failed_requests,
        report.busy_requests,
        report.batches,
        report.mean_batch_size,
        report.latency_us.p50,
        report.throughput_rps,
        report.wall_secs,
    );
}
