//! Structured JSONL tracing for the CDCL training loop.
//!
//! The whole layer is **off by default** and costs one relaxed atomic load
//! per call site when disabled. Setting the `CDCL_TRACE=<path>` environment
//! variable (or calling [`set_trace_file`] from tests) opens `<path>` and
//! every event becomes one JSON object per line:
//!
//! ```text
//! {"seq":0,"ms":0.01,"wall_ms":1754700000123.456,"ev":"phase","name":"warmup","task":0,"epoch":0,"start_ms":0.0,"dur_ms":12.4}
//! {"seq":1,"ms":12.5,"wall_ms":1754700000135.956,"ev":"scalar","name":"loss_total","task":0,"epoch":1,"step":3,"value":1.25}
//! {"seq":2,"ms":30.1,"wall_ms":1754700000153.556,"ev":"counters","task":0,"gemm_calls":812,"gemm_fmas":91234567}
//! {"seq":3,"ms":30.2,"wall_ms":1754700000153.656,"ev":"watchdog","name":"loss_total","phase":"adaptation","task":0,"epoch":2,"step":0,"value":"NaN"}
//! ```
//!
//! Common fields: `seq` (monotone per process), `ms` (milliseconds since the
//! first event), `wall_ms` (UNIX-epoch milliseconds, the cross-process
//! alignment axis for [`ctx`] traces), `ev` (event kind), `name`. Context
//! fields (`task`, `epoch`, `step`), distributed-trace identity (`trace`,
//! `span`, `parent`, `links` — see [`ctx`]) and payload fields (`value`,
//! `start_ms`, `dur_ms`, counter names) appear when the producer supplies
//! them.
//!
//! The crate is deliberately dependency-free (not even the vendored `serde`):
//! it writes its own JSON, so it can sit below every other crate in the
//! workspace without cycles.
//!
//! # Watchdog
//!
//! [`check_finite`] is the NaN/Inf watchdog: when tracing is enabled and the
//! observed value is non-finite it emits a final `watchdog` event, flushes
//! the sink, and panics with the offending phase/task/epoch/step in the
//! message, so a long run dies at the first poisoned step instead of
//! silently training on garbage. With tracing disabled the producers skip
//! the check entirely (gate on [`enabled`]), keeping untraced runs bitwise
//! identical to builds without this crate.

pub mod ctx;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Fast-path flag: true iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One-shot resolution of the `CDCL_TRACE` environment variable.
static ENV_INIT: Once = Once::new();

/// The active sink, when tracing is enabled.
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Sink generation, bumped (under the sink lock) on every retarget. An
/// [`Event`] snapshots the generation when it starts building; `emit`
/// re-checks it under the lock and drops the event if the sink was swapped
/// in between — an event composed against the old trace file must not leak
/// into the new one mid-line-stream.
static SINK_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Monotone event sequence number (process-wide).
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Timestamp origin: the first event emitted or span opened, whichever
/// comes first (spans need it at creation to stamp `start_ms`).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The environment variable that activates tracing.
pub const TRACE_ENV: &str = "CDCL_TRACE";

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.is_empty() {
                install_sink(Path::new(&path));
            }
        }
    });
}

/// Poison-tolerant sink lock: a writer that panicked mid-emit (the
/// watchdog does, deliberately) leaves at worst a complete buffered line,
/// so taking over the lock is sound.
fn lock_sink() -> std::sync::MutexGuard<'static, Option<BufWriter<File>>> {
    match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Swaps the sink atomically: the flush of the old writer, the generation
/// bump, and the installation of the new file all happen under one lock
/// acquisition, so no event can be written across the boundary.
fn swap_sink(path: Option<&Path>) {
    let mut sink = lock_sink();
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    // ordering: flag — generation bump; real synchronisation is the SINK
    // mutex held around both the bump and every epoch re-check in `emit`.
    SINK_EPOCH.fetch_add(1, Ordering::Release);
    match path {
        Some(p) => {
            let file = File::create(p)
                .unwrap_or_else(|e| panic!("cdcl-telemetry: cannot create trace file {p:?}: {e}"));
            *sink = Some(BufWriter::new(file));
            // ordering: flag — advisory enable bit; the sink itself is
            // only ever touched under the SINK mutex.
            ENABLED.store(true, Ordering::Release);
        }
        None => {
            *sink = None;
            // ordering: flag — see above.
            ENABLED.store(false, Ordering::Release);
        }
    }
}

fn install_sink(path: &Path) {
    swap_sink(Some(path));
}

/// True when a trace sink is active. Producers should gate any work that
/// exists only to feed telemetry (loss `item()` reads, gradient-norm
/// reductions, counter snapshots) behind this, so an untraced run does no
/// extra work at all.
#[inline]
pub fn enabled() -> bool {
    // ordering: flag — a stale read can only skip or over-build one event;
    // emission re-checks the sink under its mutex.
    if ENABLED.load(Ordering::Relaxed) {
        return true;
    }
    ensure_env_init();
    // ordering: flag — re-read after idempotent env resolution; same advisory bit.
    ENABLED.load(Ordering::Relaxed)
}

/// Installs (`Some(path)`) or removes (`None`) the trace sink explicitly,
/// overriding whatever `CDCL_TRACE` resolved to. Intended for tests, which
/// cannot rely on per-process environment state; flushes and closes any
/// previous sink. The swap is atomic with respect to concurrent
/// [`Event::emit`] calls: events already under construction against the
/// old sink are dropped, never interleaved into the new file.
pub fn set_trace_file(path: Option<&Path>) {
    ensure_env_init();
    swap_sink(path);
}

/// Flushes the sink (tests read the file back; the writer is buffered).
pub fn flush() {
    if let Some(sink) = lock_sink().as_mut() {
        let _ = sink.flush();
    }
}

/// Appends a JSON-escaped string literal (with quotes) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for one trace event (one JSONL line). When tracing is disabled
/// every method is a no-op on a `None` buffer, so stray un-gated call sites
/// cost a branch and nothing else.
#[must_use = "call .emit() to write the event"]
pub struct Event {
    /// JSON object body under construction (without `seq`/`ms`, which are
    /// assigned under the sink lock at emit time). `None` when disabled.
    buf: Option<String>,
    /// The sink generation this event was built against; emit drops the
    /// event if the sink was retargeted in between.
    sink_gen: u64,
}

impl Event {
    /// Starts an event of kind `ev` (e.g. `"phase"`, `"scalar"`).
    pub fn new(ev: &str) -> Self {
        if !enabled() {
            return Self {
                buf: None,
                sink_gen: 0,
            };
        }
        let mut buf = String::with_capacity(128);
        buf.push_str(",\"ev\":");
        push_json_str(&mut buf, ev);
        Self {
            buf: Some(buf),
            // ordering: flag — generation snapshot for the stale-event
            // drop; `emit` re-reads it under the SINK mutex.
            sink_gen: SINK_EPOCH.load(Ordering::Acquire),
        }
    }

    /// The event's `name` field.
    pub fn name(self, name: &str) -> Self {
        self.str_field("name", name)
    }

    /// Task context.
    pub fn task(self, task: usize) -> Self {
        self.u64_field("task", task as u64)
    }

    /// Epoch context.
    pub fn epoch(self, epoch: usize) -> Self {
        self.u64_field("epoch", epoch as u64)
    }

    /// Step (mini-batch) context.
    pub fn step(self, step: usize) -> Self {
        self.u64_field("step", step as u64)
    }

    /// The scalar payload field `value`.
    pub fn value(self, value: f64) -> Self {
        self.f64_field("value", value)
    }

    /// An arbitrary unsigned integer field.
    pub fn u64_field(mut self, key: &str, value: u64) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(',');
            push_json_str(buf, key);
            buf.push(':');
            buf.push_str(&value.to_string());
        }
        self
    }

    /// An arbitrary float field. JSON has no NaN/Inf: non-finite values are
    /// written as strings (`"NaN"`, `"inf"`, `"-inf"`) so the offending
    /// value survives into the trace instead of degrading to `null`.
    pub fn f64_field(mut self, key: &str, value: f64) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(',');
            push_json_str(buf, key);
            buf.push(':');
            if value.is_finite() {
                buf.push_str(&format!("{value}"));
            } else if value.is_nan() {
                buf.push_str("\"NaN\"");
            } else if value > 0.0 {
                buf.push_str("\"inf\"");
            } else {
                buf.push_str("\"-inf\"");
            }
        }
        self
    }

    /// An arbitrary string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push(',');
            push_json_str(buf, key);
            buf.push(':');
            push_json_str(buf, value);
        }
        self
    }

    /// Distributed-trace identity fields: `trace` (32 hex digits), `span`
    /// (16 hex digits) and — when the parent is local — `parent`. No-op
    /// for the unsampled sentinel.
    pub fn trace_fields(mut self, c: ctx::TraceContext, parent: Option<u64>) -> Self {
        if !c.is_sampled() {
            return self;
        }
        self = self
            .str_field("trace", &format!("{:032x}", c.trace_id))
            .str_field("span", &format!("{:016x}", c.span_id));
        if let Some(p) = parent {
            self = self.str_field("parent", &format!("{p:016x}"));
        }
        self
    }

    /// Fan-in links: a `key` array of traceparent strings pointing at the
    /// (foreign-trace) spans this event absorbs — e.g. a serve batch span
    /// linking the request contexts it coalesced. Unsampled entries are
    /// skipped; an empty link set emits nothing.
    pub fn links(mut self, key: &str, links: &[ctx::TraceContext]) -> Self {
        let sampled: Vec<&ctx::TraceContext> = links.iter().filter(|c| c.is_sampled()).collect();
        if sampled.is_empty() {
            return self;
        }
        if let Some(buf) = self.buf.as_mut() {
            buf.push(',');
            push_json_str(buf, key);
            buf.push_str(":[");
            for (i, c) in sampled.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                push_json_str(buf, &c.encode());
            }
            buf.push(']');
        }
        self
    }

    /// Writes the event as one line to the sink. No-op when disabled, and
    /// a deliberate drop when the sink was retargeted since [`Event::new`]
    /// — the event belongs to the old trace file, and writing it into the
    /// new one would interleave foreign lines into a fresh stream.
    pub fn emit(self) {
        let Some(body) = self.buf else { return };
        let epoch = *EPOCH.get_or_init(Instant::now);
        let ms = epoch.elapsed().as_secs_f64() * 1e3;
        // The cross-process alignment axis: traces from different daemons
        // are merged on wall_ms (`ms` origins differ per process). Only
        // ever read with tracing enabled, so untraced runs stay clock-free.
        let wall_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        let mut sink = lock_sink();
        // ordering: flag — read under the SINK mutex, which also ordered
        // the writer's bump in `swap_sink`; Relaxed is sufficient here.
        if SINK_EPOCH.load(Ordering::Relaxed) != self.sink_gen {
            return;
        }
        let Some(out) = sink.as_mut() else { return };
        // seq is assigned under the lock so file order == seq order.
        // ordering: stat — monotone sequence number; file order is fixed
        // by the SINK mutex, not by this counter's ordering.
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{{\"seq\":{seq},\"ms\":{ms:.3},\"wall_ms\":{wall_ms:.3}{body}}}"
        );
        // One flush per event keeps the trace complete even when the
        // process dies mid-run (the watchdog's whole point). Event volume
        // is a handful per epoch, so this is not a hot path.
        let _ = out.flush();
    }
}

/// A scoped phase timer: emits a `phase` event with `start_ms` + `dur_ms`
/// (both relative to the process trace origin) when dropped. Create via
/// [`span`]; context attaches with [`Span::task`]/[`Span::epoch`].
///
/// When tracing is enabled the span also joins the distributed trace: it
/// derives a [`ctx::TraceContext`] from the thread-local current-span
/// stack (child of the innermost open span or remote parent, fresh
/// sampled-or-not root otherwise) and sits on that stack until dropped,
/// so nested spans and [`Event::trace_fields`] pick up parentage without
/// any signature churn. The stack is thread-local, hence `Span` is
/// deliberately `!Send`: it must drop on the thread that created it.
pub struct Span {
    /// `None` when tracing is disabled — drop does nothing.
    start: Option<Instant>,
    /// Milliseconds since the process trace origin at creation.
    start_ms: f64,
    /// Trace identity and local parent span id; `None` when disabled.
    trace: Option<(ctx::TraceContext, Option<u64>)>,
    name: &'static str,
    task: Option<usize>,
    epoch: Option<usize>,
    /// Pins the span to its creating thread (thread-local ctx stack).
    _not_send: PhantomData<*const ()>,
}

/// Starts a phase timer named `name`.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            start: None,
            start_ms: 0.0,
            trace: None,
            name,
            task: None,
            epoch: None,
            _not_send: PhantomData,
        };
    }
    let start = Instant::now();
    let epoch = *EPOCH.get_or_init(|| start);
    Span {
        start: Some(start),
        start_ms: start.saturating_duration_since(epoch).as_secs_f64() * 1e3,
        trace: Some(ctx::push_child()),
        name,
        task: None,
        epoch: None,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Attaches task context.
    pub fn task(mut self, task: usize) -> Self {
        self.task = Some(task);
        self
    }

    /// Attaches epoch context.
    pub fn epoch(mut self, epoch: usize) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// The span's distributed-trace identity, for propagating across a
    /// process boundary (`trace=` wire fields). `None` when tracing is
    /// disabled or the trace was not sampled.
    pub fn context(&self) -> Option<ctx::TraceContext> {
        self.trace
            .map(|(c, _)| c)
            .filter(ctx::TraceContext::is_sampled)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.trace.is_some() {
            ctx::pop();
        }
        let Some(start) = self.start else { return };
        let mut ev = Event::new("phase").name(self.name);
        if let Some(t) = self.task {
            ev = ev.task(t);
        }
        if let Some(e) = self.epoch {
            ev = ev.epoch(e);
        }
        if let Some((c, parent)) = self.trace {
            ev = ev.trace_fields(c, parent);
        }
        ev.f64_field("start_ms", self.start_ms)
            .f64_field("dur_ms", start.elapsed().as_secs_f64() * 1e3)
            .emit();
    }
}

/// Location context for the watchdog: which phase/task/epoch/step produced
/// the value under scrutiny.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogCtx {
    /// Training phase (`"warmup"`, `"adaptation"`, ...).
    pub phase: &'static str,
    /// Task index.
    pub task: usize,
    /// Epoch within the task.
    pub epoch: usize,
    /// Mini-batch step within the epoch.
    pub step: usize,
}

/// NaN/Inf watchdog: panics (after emitting and flushing a `watchdog`
/// event) when `value` is non-finite, identifying the offending
/// phase/task/epoch/step. Inert when tracing is disabled — the watchdog is
/// part of the tracing layer, not of untraced training (callers should
/// still gate the *computation* of watched values on [`enabled`]).
pub fn check_finite(name: &str, value: f64, ctx: WatchdogCtx) {
    if !enabled() || value.is_finite() {
        return;
    }
    Event::new("watchdog")
        .name(name)
        .str_field("phase", ctx.phase)
        .task(ctx.task)
        .epoch(ctx.epoch)
        .step(ctx.step)
        .value(value)
        .emit();
    flush();
    panic!(
        "cdcl-telemetry watchdog: non-finite {name} ({value}) in phase `{}` \
         at task {} epoch {} step {}",
        ctx.phase, ctx.task, ctx.epoch, ctx.step
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Mutex as StdMutex;

    /// The sink is process-global; tests that install one must not overlap.
    static TEST_GUARD: StdMutex<()> = StdMutex::new(());

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cdcl-telemetry-{tag}-{}.jsonl", std::process::id()))
    }

    fn read_lines(path: &Path) -> Vec<String> {
        flush();
        std::fs::read_to_string(path)
            .expect("trace file readable")
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn disabled_emits_nothing_and_builders_are_noops() {
        let _g = TEST_GUARD.lock().unwrap();
        set_trace_file(None);
        assert!(!enabled());
        // None of these may panic or allocate a sink — including the
        // watchdog on a NaN, which is inert while tracing is off.
        Event::new("scalar").name("x").task(1).value(1.0).emit();
        drop(span("phase").task(0).epoch(0));
        check_finite(
            "loss",
            f64::NAN,
            WatchdogCtx {
                phase: "warmup",
                task: 0,
                epoch: 0,
                step: 0,
            },
        );
        assert!(!enabled());
    }

    #[test]
    fn events_render_one_json_object_per_line() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("events");
        set_trace_file(Some(&path));
        Event::new("scalar")
            .name("loss \"q\"\n")
            .task(3)
            .epoch(1)
            .step(2)
            .value(0.5)
            .emit();
        Event::new("counters")
            .task(0)
            .u64_field("gemm_calls", 7)
            .emit();
        {
            let _s = span("warmup").task(3).epoch(0);
        }
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();

        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ev\":\"scalar\""));
        assert!(lines[0].contains("\"name\":\"loss \\\"q\\\"\\n\""));
        assert!(lines[0].contains("\"task\":3"));
        assert!(lines[0].contains("\"value\":0.5"));
        assert!(lines[1].contains("\"gemm_calls\":7"));
        assert!(lines[2].contains("\"ev\":\"phase\""));
        assert!(lines[2].contains("\"dur_ms\":"));
        for l in &lines {
            assert!(l.starts_with("{\"seq\":") && l.ends_with('}'));
        }
    }

    #[test]
    fn non_finite_values_serialize_as_strings() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("nonfinite");
        set_trace_file(Some(&path));
        Event::new("scalar").name("a").value(f64::NAN).emit();
        Event::new("scalar").name("b").value(f64::INFINITY).emit();
        Event::new("scalar")
            .name("c")
            .value(f64::NEG_INFINITY)
            .emit();
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();
        assert!(lines[0].contains("\"value\":\"NaN\""));
        assert!(lines[1].contains("\"value\":\"inf\""));
        assert!(lines[2].contains("\"value\":\"-inf\""));
    }

    #[test]
    fn watchdog_trips_on_nan_with_context_in_message() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("watchdog");
        set_trace_file(Some(&path));
        let result = std::panic::catch_unwind(|| {
            check_finite(
                "loss_total",
                f64::NAN,
                WatchdogCtx {
                    phase: "adaptation",
                    task: 2,
                    epoch: 5,
                    step: 7,
                },
            );
        });
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();

        let err = result.expect_err("watchdog must panic on NaN");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("loss_total"), "message: {msg}");
        assert!(msg.contains("`adaptation`"), "message: {msg}");
        assert!(msg.contains("task 2 epoch 5 step 7"), "message: {msg}");
        // The trace also recorded the trip before dying.
        assert!(lines.iter().any(|l| l.contains("\"ev\":\"watchdog\"")));
    }

    #[test]
    fn concurrent_emit_during_retarget_never_tears_lines() {
        let _g = TEST_GUARD.lock().unwrap();
        let path_a = tmp_path("stress-a");
        let path_b = tmp_path("stress-b");
        set_trace_file(Some(&path_a));
        // 8 writer threads hammer the sink while the main thread retargets
        // it back and forth. The epoch guard must keep every written line
        // whole and in-sequence; events that raced a swap simply vanish.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8usize)
                .map(|t| {
                    s.spawn(move || {
                        for i in 0..200usize {
                            Event::new("scalar")
                                .name("stress")
                                .task(t)
                                .step(i)
                                .value(i as f64 * 0.25)
                                .emit();
                        }
                    })
                })
                .collect();
            for swap in 0..20 {
                let p = if swap % 2 == 0 { &path_b } else { &path_a };
                set_trace_file(Some(p.as_path()));
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            for h in handles {
                h.join().expect("stress writer panicked");
            }
        });
        // The final swap may have truncated away everything the writers
        // managed to land; prove the final sink still accepts whole events.
        Event::new("scalar")
            .name("stress")
            .task(99)
            .value(1.0)
            .emit();
        flush();
        // `path_a` was truncated by later swaps; both files must now hold
        // only complete JSONL lines with strictly increasing seq.
        let mut total_lines = 0usize;
        for path in [&path_a, &path_b] {
            let text = std::fs::read_to_string(path).expect("stress file readable");
            let mut last_seq: Option<u64> = None;
            for line in text.lines() {
                assert!(
                    line.starts_with("{\"seq\":") && line.ends_with('}'),
                    "torn line in {path:?}: {line:?}"
                );
                let seq: u64 = line["{\"seq\":".len()..]
                    .split(',')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("unparseable seq in {line:?}"));
                if let Some(prev) = last_seq {
                    assert!(seq > prev, "seq regressed {prev} -> {seq} in {path:?}");
                }
                last_seq = Some(seq);
                assert!(line.contains("\"ev\":\"scalar\""), "foreign line {line:?}");
                total_lines += 1;
            }
        }
        assert!(total_lines > 0, "stress run wrote nothing at all");
        set_trace_file(None);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn nested_spans_share_a_trace_and_record_parentage() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("trace-nesting");
        set_trace_file(Some(&path));
        let outer_ctx;
        {
            let outer = span("online_round").task(1);
            outer_ctx = outer.context().expect("sampled root span has a context");
            assert_eq!(ctx::active(), Some(outer_ctx));
            {
                let _inner = span("publish");
            }
        }
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();

        assert_eq!(lines.len(), 2, "two phase events: {lines:?}");
        let trace_hex = format!("\"trace\":\"{:032x}\"", outer_ctx.trace_id);
        let span_hex = format!("{:016x}", outer_ctx.span_id);
        // Inner span drops (and is written) first; it carries the outer
        // span as parent and the same trace id.
        assert!(lines[0].contains("\"name\":\"publish\""), "{}", lines[0]);
        assert!(lines[0].contains(&trace_hex), "{}", lines[0]);
        assert!(
            lines[0].contains(&format!("\"parent\":\"{span_hex}\"")),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"start_ms\":"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"name\":\"online_round\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains(&trace_hex), "{}", lines[1]);
        assert!(
            lines[1].contains(&format!("\"span\":\"{span_hex}\"")),
            "{}",
            lines[1]
        );
        assert!(
            !lines[1].contains("\"parent\":"),
            "root has no parent: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"wall_ms\":"), "{}", lines[1]);
        // The stack is clean again.
        assert_eq!(ctx::active(), None);
    }

    #[test]
    fn remote_parent_adoption_links_spans_across_the_wire() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("trace-remote");
        set_trace_file(Some(&path));
        let remote = ctx::TraceContext {
            trace_id: 0xabc,
            span_id: 0xdef,
        };
        let wire = remote.encode();
        {
            let decoded = ctx::TraceContext::parse(&wire).expect("round-trip");
            let _g2 = ctx::attach(decoded);
            let _s = span("reload");
        }
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains(&format!("\"trace\":\"{:032x}\"", remote.trace_id)),
            "{}",
            lines[0]
        );
        assert!(
            lines[0].contains(&format!("\"parent\":\"{:016x}\"", remote.span_id)),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn disabled_spans_have_no_context_and_touch_no_stack() {
        let _g = TEST_GUARD.lock().unwrap();
        set_trace_file(None);
        let s = span("online_round");
        assert!(s.context().is_none());
        assert_eq!(ctx::active(), None);
        drop(s);
        assert_eq!(ctx::active(), None);
    }

    #[test]
    fn finite_values_pass_the_watchdog() {
        let _g = TEST_GUARD.lock().unwrap();
        let path = tmp_path("watchdog-ok");
        set_trace_file(Some(&path));
        check_finite(
            "grad_norm",
            1.25,
            WatchdogCtx {
                phase: "warmup",
                task: 0,
                epoch: 0,
                step: 0,
            },
        );
        let lines = read_lines(&path);
        set_trace_file(None);
        std::fs::remove_file(&path).ok();
        assert!(lines.is_empty(), "no event for a healthy value");
    }
}
