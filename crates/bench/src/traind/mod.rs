//! The `cdcl-traind` engine: an online trainer daemon with task-free
//! drift detection, closing the train→serve loop (DESIGN.md §15).
//!
//! This module tree is the whole daemon minus `main` — the `cdcl-traind`
//! bin is a thin wrapper and the integration tests drive [`run_tcp`] /
//! [`ingest_stream`] in-process, mirroring the `cdcl-serve` layout. The
//! pieces:
//!
//! * the **ingest protocol**: line-delimited JSON samples
//!   (`{"role":"source","label":l,"image":[…]}` /
//!   `{"role":"target","image":[…]}`) accumulate into the current window;
//!   a **blank line commits the window** — it is drift-scored, staged, and
//!   answered with one JSON ack describing the detector state (and, when a
//!   round ran, the publish outcome). `STATUS` and `METRICS` verbs and
//!   `GET /metrics` HTTP scrapes work on any connection; transport is the
//!   line server shared with serve ([`crate::net`]);
//! * the **drift loop**: each committed window's target samples are scored
//!   against the archived per-task Eq.-17 centroids
//!   ([`cdcl_core::CdclTrainer::drift_score`]) and fed to the
//!   CUSUM/EWMA [`DriftDetector`]; a sustained excursion declares a new
//!   task at the window where the statistic left zero;
//! * the **online round**: on detection (or, with an empty model, after
//!   `--bootstrap-windows` committed windows), the staged windows from the
//!   boundary onward become a [`TaskData`] and run through the existing
//!   [`CdclTrainer`] — fresh `(K_i, b_i)`, warm-up, adaptation,
//!   pseudo-labeling, rehearsal, with per-task checkpoints via
//!   `CDCL_CKPT_DIR` — inside the window-commit call, so the committing
//!   client's ack observes the finished round (deterministic driving);
//! * the **publish loop** ([`publish`]): the post-round snapshot is
//!   atomically written to `--publish-dir` and `RELOAD`ed into every
//!   `--notify` serve instance, verified through `MODELS`.
//!
//! Locking: all mutable state lives in one `Mutex<TraindState>` behind the
//! witnessed [`lock_traind`] wrapper. The lock is never held across
//! socket or filesystem I/O — ingest parsing, acks, and the entire publish
//! exchange happen outside it (enforced by the `cdcl-analyze` blocking
//! scope on `crates/bench/src/traind/`).

pub mod metrics;
pub mod publish;

use crate::net::{self, json_str, registry_json};
use crate::{flag_usize, flag_value};
use cdcl_core::{
    CdclConfig, CdclTrainer, ContinualLearner, DriftConfig, DriftDecision, DriftDetector,
    DriftScore,
};
use cdcl_data::{Sample, TaskData};
use cdcl_telemetry as telemetry;
use cdcl_tensor::Tensor;
use publish::{PublishOutcome, RoundArtifact};
use serde::Deserialize;
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Labels above this are rejected as malformed (they would grow the CIL
/// head unboundedly from one bad line).
const MAX_LABEL: usize = 4096;

/// Parsed `cdcl-traind` command line.
#[derive(Debug, Clone)]
pub struct TraindArgs {
    /// TCP listen address (`None` = stdio mode).
    pub listen: Option<String>,
    /// Model id used for `RELOAD` against the notify targets.
    pub model: String,
    /// Directory the post-round snapshots are published into.
    pub publish_dir: PathBuf,
    /// `cdcl-serve` addresses to `RELOAD` after every publish.
    pub notify: Vec<String>,
    /// Warm-start snapshot (otherwise the daemon starts with zero tasks
    /// and bootstraps its first task from the stream).
    pub snapshot: Option<PathBuf>,
    /// Input image layout for a fresh (non-warm-start) trainer.
    pub in_channels: usize,
    pub in_hw: (usize, usize),
    /// Online-round epoch budget (total / warm-up).
    pub epochs: usize,
    pub warmup_epochs: usize,
    pub seed: u64,
    /// TCP accept-loop workers.
    pub threads: usize,
    /// TCP mode: exit after this many connections (0 = forever).
    pub conns: usize,
    /// Committed windows required before the bootstrap round (task 0).
    pub bootstrap_windows: usize,
    /// Staging-ring capacity in windows; older windows are evicted (and
    /// counted in `cdcl_traind_dropped_windows_total`).
    pub max_stage: usize,
    /// Checkpoint directory exported as `CDCL_CKPT_DIR` for the trainer's
    /// per-task checkpoint hook.
    pub ckpt_dir: Option<String>,
}

impl Default for TraindArgs {
    fn default() -> Self {
        Self {
            listen: None,
            model: "default".to_string(),
            publish_dir: PathBuf::from("publish"),
            notify: Vec::new(),
            snapshot: None,
            in_channels: 1,
            in_hw: (8, 8),
            epochs: 2,
            warmup_epochs: 1,
            seed: 7,
            threads: 2,
            conns: 1,
            bootstrap_windows: 2,
            max_stage: 64,
            ckpt_dir: None,
        }
    }
}

/// The `cdcl-traind` usage text printed on any CLI error.
pub fn traind_usage() -> String {
    "usage: cdcl-traind [--listen <addr>] [--model <id>] [--publish-dir <dir>]\n\
     \x20   [--notify <addr>]... [--snapshot <path.cdclsnap>] [--ckpt-dir <dir>]\n\
     \x20   [--in-channels <n>] [--in-hw <h>x<w>] [--epochs <n>] [--warmup <n>]\n\
     \x20   [--seed <n>] [--threads <n>] [--conns <n>]\n\
     \x20   [--bootstrap-windows <n>] [--max-stage <n>]"
        .to_string()
}

/// Parses a `cdcl-traind` argument vector; every CLI mistake is a usage
/// error, never a panic.
pub fn parse_args_from(argv: &[String]) -> Result<TraindArgs, String> {
    let mut args = TraindArgs::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => args.listen = Some(flag_value(argv, i, traind_usage)?.to_string()),
            "--model" => {
                let id = flag_value(argv, i, traind_usage)?;
                if !crate::serve::registry::valid_model_id(id) {
                    return Err(format!(
                        "invalid model id {id:?} (1-64 chars of [A-Za-z0-9._-])\n{}",
                        traind_usage()
                    ));
                }
                args.model = id.to_string();
            }
            "--publish-dir" => args.publish_dir = PathBuf::from(flag_value(argv, i, traind_usage)?),
            "--notify" => args
                .notify
                .push(flag_value(argv, i, traind_usage)?.to_string()),
            "--snapshot" => args.snapshot = Some(PathBuf::from(flag_value(argv, i, traind_usage)?)),
            "--ckpt-dir" => args.ckpt_dir = Some(flag_value(argv, i, traind_usage)?.to_string()),
            "--in-channels" => args.in_channels = flag_usize(argv, i, traind_usage)?,
            "--in-hw" => {
                let v = flag_value(argv, i, traind_usage)?;
                let (h, w) = v
                    .split_once('x')
                    .and_then(|(h, w)| Some((h.parse().ok()?, w.parse().ok()?)))
                    .ok_or_else(|| {
                        format!("--in-hw expects <h>x<w>, got {v:?}\n{}", traind_usage())
                    })?;
                args.in_hw = (h, w);
            }
            "--epochs" => args.epochs = flag_usize(argv, i, traind_usage)?,
            "--warmup" => args.warmup_epochs = flag_usize(argv, i, traind_usage)?,
            "--seed" => args.seed = flag_usize(argv, i, traind_usage)? as u64,
            "--threads" => {
                args.threads = flag_usize(argv, i, traind_usage)?;
                if args.threads == 0 {
                    return Err(format!("--threads must be positive\n{}", traind_usage()));
                }
            }
            "--conns" => args.conns = flag_usize(argv, i, traind_usage)?,
            "--bootstrap-windows" => {
                args.bootstrap_windows = flag_usize(argv, i, traind_usage)?.max(1)
            }
            "--max-stage" => args.max_stage = flag_usize(argv, i, traind_usage)?.max(1),
            other => return Err(format!("unknown argument {other}\n{}", traind_usage())),
        }
        i += 2;
    }
    if args.epochs == 0 || args.epochs < args.warmup_epochs {
        return Err(format!(
            "--epochs must be positive and >= --warmup\n{}",
            traind_usage()
        ));
    }
    Ok(args)
}

/// Parses the process argument vector, exiting with usage on any error.
pub fn parse_args() -> TraindArgs {
    crate::parse_cli("cdcl-traind", parse_args_from)
}

/// One ingest line.
#[derive(Debug, Deserialize)]
struct Ingest {
    /// `"source"` (labeled) or `"target"` (unlabeled, the default).
    role: Option<String>,
    /// Task-local label; required for source samples.
    label: Option<usize>,
    /// Flattened `c*h*w` image.
    image: Option<Vec<f32>>,
}

/// One not-yet-consumed ingest window.
struct WindowStage {
    /// 0-based commit index (the boundary/ground-truth coordinate space).
    index: usize,
    source: Vec<Sample>,
    target: Vec<Sample>,
}

impl WindowStage {
    fn new(index: usize) -> Self {
        Self {
            index,
            source: Vec::new(),
            target: Vec::new(),
        }
    }
}

/// Everything the daemon mutates, behind one mutex.
pub struct TraindState {
    trainer: CdclTrainer,
    detector: DriftDetector,
    /// Committed windows not yet consumed by a round, oldest first.
    staged: VecDeque<WindowStage>,
    /// The window currently accumulating ingest lines.
    current: WindowStage,
    /// Maps detector observation index → stage window index (the detector
    /// only sees windows with target samples once a task exists).
    scored: Vec<usize>,
    /// Stage window index a latched detection claims as the new task's
    /// first window; cleared by the round that consumes it.
    pending_boundary: Option<usize>,
    last_boundary: Option<usize>,
    last_score: Option<DriftScore>,
    last_state: &'static str,
    last_publish_us: Option<f64>,
    detections: u64,
    rounds: u64,
    published: u64,
    publish_failed: u64,
    dropped_windows: u64,
}

/// Fields of one committed window's ack, captured under the lock.
struct WindowOutcome {
    window: usize,
    sources: usize,
    targets: usize,
    score: Option<DriftScore>,
    state: &'static str,
    statistic: f64,
    baseline: f64,
    streak: usize,
    boundary: Option<usize>,
    tasks: usize,
    detections: u64,
    rounds: u64,
}

impl TraindState {
    fn new(trainer: CdclTrainer, detector: DriftDetector) -> Self {
        Self {
            trainer,
            detector,
            staged: VecDeque::new(),
            current: WindowStage::new(0),
            scored: Vec::new(),
            pending_boundary: None,
            last_boundary: None,
            last_score: None,
            last_state: "bootstrap",
            last_publish_us: None,
            detections: 0,
            rounds: 0,
            published: 0,
            publish_failed: 0,
            dropped_windows: 0,
        }
    }

    /// Validates and stages one ingest line into the current window.
    fn ingest(&mut self, req: Ingest) -> Result<(), String> {
        let (c, h, w) = self.trainer.input_dims();
        let image = req.image.ok_or("missing `image`")?;
        if image.len() != c * h * w {
            return Err(format!("image length {} != {c}*{h}*{w}", image.len()));
        }
        let tensor = Tensor::from_vec(image, &[c, h, w]);
        match req.role.as_deref().unwrap_or("target") {
            "source" => {
                let label = req.label.ok_or("source sample needs `label`")?;
                if label >= MAX_LABEL {
                    return Err(format!("label {label} out of range (< {MAX_LABEL})"));
                }
                self.current.source.push(Sample {
                    image: tensor,
                    label,
                });
            }
            "target" => self.current.target.push(Sample {
                image: tensor,
                // Target labels are unknown by definition; training only
                // ever pseudo-labels these.
                label: 0,
            }),
            other => return Err(format!("unknown role {other:?} (source|target)")),
        }
        metrics::SAMPLES_TOTAL.inc();
        Ok(())
    }

    /// True when the staged windows from `from` onward can train a task:
    /// at least one labeled source and one target sample.
    fn trainable_from(&self, from: usize) -> bool {
        let has = |f: fn(&WindowStage) -> bool| self.staged.iter().any(|w| w.index >= from && f(w));
        has(|w| !w.source.is_empty()) && has(|w| !w.target.is_empty())
    }

    /// Commits the current window: stage it, drift-score it, and — on a
    /// sustained detection (or bootstrap readiness) — run the online round.
    /// Returns the ack fields and, when a round ran, the publish artifact.
    fn commit_window(&mut self, args: &TraindArgs) -> (WindowOutcome, Option<RoundArtifact>) {
        let (index, sources, targets) = {
            let _s = telemetry::span("ingest");
            let next = WindowStage::new(self.current.index + 1);
            let stage = std::mem::replace(&mut self.current, next);
            let index = stage.index;
            let (sources, targets) = (stage.source.len(), stage.target.len());
            metrics::WINDOWS_TOTAL.inc();
            self.staged.push_back(stage);
            while self.staged.len() > args.max_stage {
                self.staged.pop_front();
                self.dropped_windows += 1;
                metrics::DROPPED_WINDOWS_TOTAL.inc();
            }
            (index, sources, targets)
        };

        let mut score = None;
        let mut artifact = None;
        if self.trainer.model().num_tasks() == 0 {
            self.last_state = "bootstrap";
            if index + 1 >= args.bootstrap_windows && self.trainable_from(0) {
                artifact = Some(self.run_round(0, None));
            }
        } else {
            score = self
                .staged
                .back()
                .filter(|wdw| !wdw.target.is_empty())
                .and_then(|wdw| self.trainer.drift_score(&wdw.target));
            match score {
                None => self.last_state = "idle",
                Some(s) => {
                    self.scored.push(index);
                    metrics::DRIFT_SCORE.set(s.distance);
                    let decision = self.detector.observe(s.distance);
                    metrics::DRIFT_STATISTIC.set(self.detector.statistic());
                    metrics::DRIFT_BASELINE.set(self.detector.baseline());
                    self.last_state = decision.label();
                    if let DriftDecision::Detected { boundary } = decision {
                        // Map the detector's observation index back to the
                        // stage-window coordinate space.
                        let at = self.scored.get(boundary).copied().unwrap_or(index);
                        if self.pending_boundary.is_none() {
                            self.detections += 1;
                            metrics::DETECTIONS_TOTAL.inc();
                            if telemetry::enabled() {
                                telemetry::Event::new("traind")
                                    .name("drift_detected")
                                    .task(self.trainer.model().num_tasks())
                                    .u64_field("window", index as u64)
                                    .u64_field("boundary", at as u64)
                                    .f64_field("score", s.distance)
                                    .emit();
                            }
                        }
                        self.pending_boundary = Some(at);
                        self.last_boundary = Some(at);
                    }
                }
            }
            // A latched detection trains as soon as labeled source data
            // for the new task has arrived (possibly windows later).
            if let Some(b) = self.pending_boundary {
                if self.trainable_from(b) {
                    artifact = Some(self.run_round(b, Some(b)));
                }
            }
        }
        self.last_score = score;
        let outcome = WindowOutcome {
            window: index,
            sources,
            targets,
            score,
            state: self.last_state,
            statistic: self.detector.statistic(),
            baseline: self.detector.baseline(),
            streak: self.detector.streak(),
            boundary: self.last_boundary,
            tasks: self.trainer.model().num_tasks(),
            detections: self.detections,
            rounds: self.rounds,
        };
        (outcome, artifact)
    }

    /// One online training round over the staged windows from
    /// `from_window` onward: grows a fresh task through
    /// [`CdclTrainer::learn_task`] (warm-up, adaptation, pseudo-labeling,
    /// rehearsal, `CDCL_CKPT_DIR` checkpoint) and resets the detector to
    /// recalibrate against the enlarged centroid archive.
    fn run_round(&mut self, from_window: usize, boundary: Option<usize>) -> RoundArtifact {
        let mut source = Vec::new();
        let mut target = Vec::new();
        while let Some(wdw) = self.staged.pop_front() {
            if wdw.index >= from_window {
                source.extend(wdw.source);
                target.extend(wdw.target);
            }
        }
        let num_classes = source.iter().map(|s| s.label).max().map_or(1, |m| m + 1);
        let task_id = self.trainer.model().num_tasks();
        let total = self.trainer.model().total_classes();
        let task = TaskData {
            task_id,
            global_classes: (total..total + num_classes).collect(),
            source_train: source,
            target_train: target,
            target_test: Vec::new(),
        };
        let round = metrics::ROUND_LATENCY_US.span("online_round").task(task_id);
        self.trainer.learn_task(&task);
        round.finish();
        self.rounds += 1;
        metrics::ROUNDS_TOTAL.inc();
        metrics::TASKS.set(self.trainer.model().num_tasks() as f64);
        self.detector.reset();
        self.pending_boundary = None;
        self.last_state = "trained";
        RoundArtifact {
            task: task_id,
            boundary,
            bytes: self.trainer.snapshot_bytes(),
            expected_tasks: self.trainer.model().num_tasks(),
            expected_centroid_tasks: self
                .trainer
                .task_centroids()
                .iter()
                .filter(|c| c.shape()[0] > 0)
                .count(),
        }
    }

    /// Folds one publish outcome into the counters.
    fn record_publish(&mut self, outcome: &PublishOutcome) {
        if outcome.ok {
            self.published += 1;
        } else {
            self.publish_failed += 1;
        }
        self.last_publish_us = Some(outcome.publish_us);
    }

    /// The `STATUS` verb payload.
    fn status_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"status\":{{\"tasks\":{},\"windows\":{},\"staged\":{},\"state\":{},\
             \"score\":{},\"statistic\":{},\"baseline\":{},\"streak\":{},\"calibrating\":{},\
             \"boundary\":{},\"detections\":{},\"rounds\":{},\"published\":{},\
             \"publish_failed\":{},\"dropped_windows\":{},\"last_publish_us\":{}}}}}",
            self.trainer.model().num_tasks(),
            self.current.index,
            self.staged.len(),
            json_str(self.last_state),
            fmt_opt_f64(self.last_score.map(|s| s.distance)),
            self.detector.statistic(),
            self.detector.baseline(),
            self.detector.streak(),
            self.detector.is_calibrating(),
            fmt_opt_usize(self.last_boundary),
            self.detections,
            self.rounds,
            self.published,
            self.publish_failed,
            self.dropped_windows,
            fmt_opt_f64(self.last_publish_us),
        )
    }
}

/// The daemon: parsed args plus the mutexed state.
pub struct TraindDaemon {
    pub args: TraindArgs,
    state: Mutex<TraindState>,
}

/// Poison-tolerant state lock: `learn_task` only panics on a checkpoint
/// write failure, after which the trainer state is still the coherent
/// pre-/post-round state of the last completed mutation, so recovering
/// the guard is sound.
fn lock_traind<'m>(
    m: &'m Mutex<TraindState>,
    name: &'static str,
) -> cdcl_obs::lockhook::Witnessed<MutexGuard<'m, TraindState>> {
    let guard = match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    cdcl_obs::lockhook::witness_acquired(guard, name)
}

impl TraindDaemon {
    /// Builds a daemon around an existing trainer with the default drift
    /// thresholds.
    pub fn new(args: TraindArgs, trainer: CdclTrainer) -> Self {
        Self::with_drift_config(args, trainer, DriftConfig::default())
    }

    /// Builds a daemon with an explicit drift configuration (tests inject
    /// thresholds here).
    pub fn with_drift_config(args: TraindArgs, trainer: CdclTrainer, drift: DriftConfig) -> Self {
        let detector = DriftDetector::new(drift);
        Self {
            args,
            state: Mutex::new(TraindState::new(trainer, detector)),
        }
    }

    /// The current `STATUS` payload.
    pub fn status(&self) -> String {
        lock_traind(&self.state, "traind.state").status_json()
    }
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

fn fmt_opt_usize(v: Option<usize>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "null".to_string(),
    }
}

/// Renders one window ack from the commit outcome and the (possibly
/// absent) publish result. When the commit ran under a sampled trace the
/// ack carries its traceparent in a `trace` field, so stream clients can
/// correlate acks with the cross-process trace; with tracing disabled the
/// ack bytes are unchanged.
fn ack_json(
    outcome: &WindowOutcome,
    publish: Option<&PublishOutcome>,
    trace: Option<telemetry::ctx::TraceContext>,
) -> String {
    let publish_json = match publish {
        None => "null".to_string(),
        Some(p) => {
            let reloads: Vec<String> = p
                .reloads
                .iter()
                .map(|r| match r {
                    Ok(ack) => format!(
                        "{{\"addr\":{},\"version\":{},\"tasks\":{},\"centroid_tasks\":{}}}",
                        json_str(&ack.addr),
                        ack.version,
                        ack.tasks,
                        ack.centroid_tasks
                    ),
                    Err(e) => format!("{{\"error\":{}}}", json_str(e)),
                })
                .collect();
            format!(
                "{{\"ok\":{},\"path\":{},\"publish_us\":{},\"reloads\":[{}]}}",
                p.ok,
                json_str(&p.path.display().to_string()),
                p.publish_us,
                reloads.join(",")
            )
        }
    };
    let trace_json = match trace {
        Some(c) => format!(",\"trace\":{}", json_str(&c.encode())),
        None => String::new(),
    };
    format!(
        "{{\"ok\":true,\"window\":{},\"sources\":{},\"targets\":{},\"score\":{},\"margin\":{},\
         \"state\":{},\"statistic\":{},\"baseline\":{},\"streak\":{},\"boundary\":{},\
         \"tasks\":{},\"detections\":{},\"rounds\":{},\"publish\":{}{}}}",
        outcome.window,
        outcome.sources,
        outcome.targets,
        fmt_opt_f64(outcome.score.map(|s| s.distance)),
        fmt_opt_f64(outcome.score.map(|s| s.margin)),
        json_str(outcome.state),
        outcome.statistic,
        outcome.baseline,
        outcome.streak,
        fmt_opt_usize(outcome.boundary),
        outcome.tasks,
        outcome.detections,
        outcome.rounds,
        publish_json,
        trace_json
    )
}

/// Commits one window: the round (if any) runs under the state lock, the
/// publish exchange strictly after it — a slow serve instance can stall
/// this client's ack, never another connection's ingest.
fn commit_window(d: &TraindDaemon) -> String {
    // The distributed-trace root: one trace per committed window, covering
    // the in-process ingest → drift_detect → online_round → publish stages
    // (opened below on this thread, so they parent here automatically) and
    // — across the RELOAD wire — the serve-side reload + first_serve
    // stages (DESIGN.md §16).
    let root = telemetry::span("window_commit");
    let trace = root.context();
    let (outcome, artifact) = {
        let mut st = lock_traind(&d.state, "traind.state");
        st.commit_window(&d.args)
    };
    let publish = artifact.map(|a| publish::publish_round(&d.args, &a));
    if let Some(p) = &publish {
        let mut st = lock_traind(&d.state, "traind.state");
        st.record_publish(p);
    }
    ack_json(&outcome, publish.as_ref(), trace)
}

/// Handles one protocol line; returns the reply to write, if any
/// (well-formed sample lines are acked silently by the window commit).
fn process_line(d: &TraindDaemon, trimmed: &str) -> Option<String> {
    if trimmed.is_empty() {
        return Some(commit_window(d));
    }
    if trimmed == "STATUS" {
        return Some(d.status());
    }
    if trimmed == "METRICS" {
        return Some(format!("{{\"ok\":true,\"metrics\":{}}}", registry_json()));
    }
    match serde_json::from_str::<Ingest>(trimmed) {
        Ok(req) => {
            let result = {
                let mut st = lock_traind(&d.state, "traind.state");
                st.ingest(req)
            };
            match result {
                Ok(()) => None,
                Err(e) => Some(format!("{{\"ok\":false,\"error\":{}}}", json_str(&e))),
            }
        }
        Err(e) => Some(format!(
            "{{\"ok\":false,\"error\":{}}}",
            json_str(&format!("bad ingest line: {e}"))
        )),
    }
}

/// The daemon identity the shared line server records into.
static NET: net::Daemon = net::Daemon {
    name: "cdcl-traind",
    accept_errors: &metrics::ACCEPT_ERRORS_TOTAL,
    oversize_lines: &metrics::OVERSIZE_LINES_TOTAL,
};

/// The ingest protocol on one stream: every line is handled on its own,
/// so a connection needs no state beyond the daemon.
impl net::Session for &TraindDaemon {
    fn line(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<()> {
        match process_line(self, line) {
            Some(reply) => {
                writeln!(out, "{reply}")?;
                out.flush()
            }
            None => Ok(()),
        }
    }
}

/// The ingest loop over one already-open stream (stdio mode, tests).
pub fn ingest_stream(
    d: &TraindDaemon,
    reader: &mut dyn BufRead,
    writer: &mut dyn Write,
) -> std::io::Result<()> {
    net::serve_lines(&NET, reader, writer, &mut { d })
}

/// The TCP server ([`net::run_tcp`]): `args.threads` workers, exiting
/// after `args.conns` connections in total (0 = run forever). A
/// connection opening with `GET /metrics` is answered with the Prometheus
/// exposition.
pub fn run_tcp(d: &TraindDaemon, listener: TcpListener) {
    net::run_tcp(&NET, listener, d.args.threads, d.args.conns, || d);
}

/// Builds the online trainer: warm-started from `--snapshot` when given,
/// otherwise fresh with zero tasks (the bootstrap path).
pub fn build_trainer(args: &TraindArgs) -> Result<CdclTrainer, String> {
    match &args.snapshot {
        Some(path) => CdclTrainer::resume_from(path)
            .map_err(|e| format!("cannot warm-start from {}: {e}", path.display())),
        None => {
            let mut config = CdclConfig::smoke();
            config.epochs = args.epochs;
            config.warmup_epochs = args.warmup_epochs;
            config.seed = args.seed;
            config.backbone.in_channels = args.in_channels;
            config.backbone.in_hw = args.in_hw;
            Ok(CdclTrainer::new(config))
        }
    }
}

/// The full `cdcl-traind` entry point: build the trainer, serve stdio or
/// TCP, then print the final status line.
pub fn run(args: TraindArgs) {
    cdcl_obs::set_enabled(true);
    if let Some(dir) = &args.ckpt_dir {
        std::env::set_var("CDCL_CKPT_DIR", dir);
    }
    if let Err(e) = std::fs::create_dir_all(&args.publish_dir) {
        eprintln!(
            "cdcl-traind: cannot create publish dir {}: {e}",
            args.publish_dir.display()
        );
        std::process::exit(2);
    }
    let trainer = match build_trainer(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cdcl-traind: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "cdcl-traind: model {:?} with {} tasks, publishing to {}, notifying {:?}",
        args.model,
        trainer.model().num_tasks(),
        args.publish_dir.display(),
        args.notify
    );
    let listen = args.listen.clone();
    let d = TraindDaemon::new(args, trainer);
    match &listen {
        None => net::run_stdio(&NET, &mut &d),
        Some(addr) => {
            let listener = net::listen(&NET, addr);
            eprintln!(
                "cdcl-traind: listening on {addr} ({} workers)",
                d.args.threads
            );
            run_tcp(&d, listener);
        }
    }
    telemetry::flush();
    eprintln!("cdcl-traind: final {}", d.status());
}
