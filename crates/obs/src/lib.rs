//! Live metrics for the CDCL workspace (DESIGN.md §11).
//!
//! Where `cdcl-telemetry` streams *events* to a file for post-hoc analysis,
//! this crate aggregates *state* in memory so a running trainer or
//! `cdcl-serve` can answer "what is your p99 batch latency / steps-per-sec
//! / memory occupancy **right now**". Three metric kinds live in one global
//! [`Registry`]:
//!
//! * [`Counter`] — monotone `u64` (`*_total` names);
//! * [`Gauge`] — last-write-wins `f64`;
//! * [`Histogram`] — log-bucketed distribution on the fixed 1–2–5 grid of
//!   [`hist`], with p50/p90/p99 derived by bucket interpolation.
//!
//! The layer is **off by default** and costs one relaxed atomic load per
//! record site when disabled — the same contract `cdcl-telemetry`
//! established. Enable with `CDCL_METRICS=1` (or [`set_enabled`] from
//! tests/servers). Recording never takes a lock: counters and bucket slots
//! are `AtomicU64` updated with relaxed `fetch_add`; the registry mutex is
//! touched only at first registration and at exposition time. Metrics only
//! *observe* — they never branch the data path — so training with metrics
//! on is bitwise identical to metrics off (proven by
//! `tests/integration_metrics.rs`).
//!
//! Metric handles are `const`-constructible statics, registered into the
//! global registry on first use:
//!
//! ```
//! static REQS: cdcl_obs::Counter =
//!     cdcl_obs::Counter::new("cdcl_doc_requests_total", "Requests answered");
//! cdcl_obs::set_enabled(true);
//! REQS.inc();
//! assert_eq!(REQS.get(), 1);
//! # cdcl_obs::set_enabled(false);
//! ```
//!
//! Naming discipline (enforced by `cdcl-lint`'s `metric-names` rule):
//! `snake_case`, prefixed `cdcl_`, counters end in `_total`, and names
//! appear only at `static` registration sites — record sites go through the
//! typed handles, never ad-hoc string lookups.
//!
//! Exposition comes in two encodings: [`Registry::render_prometheus`]
//! (text format v0.0.4, scraped from `cdcl-serve`'s `/metrics` endpoint)
//! and [`Registry::render_json`] (one-line JSON, answered to the `METRICS`
//! stdin verb). See DESIGN.md §11 for the full grammar.

pub mod hist;
pub mod lockhook;

use hist::BUCKET_COUNT;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// The environment variable that activates the metrics layer.
pub const METRICS_ENV: &str = "CDCL_METRICS";

/// Fast-path flag: true iff the metrics layer is recording.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// One-shot resolution of the `CDCL_METRICS` environment variable.
static ENV_INIT: Once = Once::new();

fn ensure_env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(v) = std::env::var(METRICS_ENV) {
            if !v.is_empty() && v != "0" {
                // ordering: flag — advisory enable bit; record sites only
                // gate work on it, data consistency comes from the atomics
                // themselves.
                ENABLED.store(true, Ordering::Release);
            }
        }
    });
}

/// True when the metrics layer is recording. Producers gate any work that
/// exists only to feed metrics (loss reads, counter snapshots, timers)
/// behind this, so a metrics-off run does no extra work at all.
#[inline]
pub fn enabled() -> bool {
    // ordering: flag — a stale read merely delays the first recorded
    // sample past an enable/disable flip; no data hangs off the bit.
    if ENABLED.load(Ordering::Relaxed) {
        return true;
    }
    ensure_env_init();
    // ordering: flag — re-read after idempotent env resolution; same advisory bit.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the metrics layer on or off explicitly, overriding whatever
/// `CDCL_METRICS` resolved to. Servers call `set_enabled(true)` at startup
/// (a serving process always wants its own metrics); tests use it to keep
/// per-process environment state out of the picture.
pub fn set_enabled(on: bool) {
    ensure_env_init();
    // ordering: flag — see `enabled`; Release is stronger than required.
    ENABLED.store(on, Ordering::Release);
}

/// Poison-tolerant lock: a panicked writer cannot corrupt the registry
/// (entries are append-only) or an exemplar slot (a single `Option`
/// overwrite), so taking over a poisoned mutex is sound and keeps this
/// crate free of panic paths.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ----------------------------------------------------------------------
// Cores: the shared atomic state behind each metric
// ----------------------------------------------------------------------

/// Monotone counter state. Core methods do not check [`enabled`] — gating
/// lives in the static [`Counter`] handle, so tests and collectors can
/// drive cores directly.
#[derive(Debug, Default)]
pub struct CounterCore {
    value: AtomicU64,
}

impl CounterCore {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: stat — monotone report-only counter; no memory is
        // published through it.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count. For mirroring an external always-on atomic
    /// (the kernel counters) into the registry at collection time; ordinary
    /// producers use [`CounterCore::add`].
    #[inline]
    pub fn store(&self, v: u64) {
        // ordering: stat — collection-time mirror of an always-on counter.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        // ordering: stat — exposition read; a torn-in-time snapshot only
        // skews the report.
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` gauge state (stored as raw bits).
#[derive(Debug, Default)]
pub struct GaugeCore {
    bits: AtomicU64,
}

impl GaugeCore {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: stat — last-write-wins gauge bits, report-only.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (`0.0` before the first set).
    pub fn get(&self) -> f64 {
        // ordering: stat — exposition read of the gauge bits.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A sampled trace exemplar attached to a histogram: the distributed-trace
/// identity of the observation that landed in the highest bucket seen so
/// far (ties keep the freshest), so a latency spike in the exposition
/// links straight to the trace that caused it (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Bucket index the exemplar observation fell into.
    pub bucket: usize,
    /// 128-bit trace id of the observation's span.
    pub trace_id: u128,
    /// 64-bit span id of the observation's span.
    pub span_id: u64,
}

/// Log-bucketed histogram state on the fixed [`hist`] grid: one atomic slot
/// per bucket plus an atomic `f64` sum (CAS loop — still lock-free). The
/// optional trace exemplar sits behind a mutex, but that path is reached
/// only when `cdcl-telemetry` tracing is enabled *and* a sampled span is
/// open on the observing thread — untraced serving never touches it.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_bits: AtomicU64,
    exemplar: Mutex<Option<Exemplar>>,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplar: Mutex::new(None),
        }
    }
}

impl HistogramCore {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let idx = hist::bucket_index(v);
        // ordering: stat — bucket slots and the CAS'd sum are report-only
        // aggregates; the loop retries on contention, it never publishes.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            // ordering: stat — float-add retry loop on the same sum.
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if cdcl_telemetry::enabled() {
            if let Some(c) = cdcl_telemetry::ctx::active() {
                self.record_exemplar(idx, c);
            }
        }
    }

    /// Keeps the exemplar of the worst (highest) bucket observed so far;
    /// within the same bucket the freshest observation wins. Cold: only
    /// reached from traced, sampled observations.
    #[cold]
    fn record_exemplar(&self, bucket: usize, c: cdcl_telemetry::ctx::TraceContext) {
        let mut slot = lock(&self.exemplar);
        if slot.as_ref().is_none_or(|e| bucket >= e.bucket) {
            *slot = Some(Exemplar {
                bucket,
                trace_id: c.trace_id,
                span_id: c.span_id,
            });
        }
    }

    /// The current max-bucket trace exemplar, if any traced observation
    /// has been recorded.
    pub fn exemplar(&self) -> Option<Exemplar> {
        *lock(&self.exemplar)
    }

    /// Non-cumulative per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        // ordering: stat — exposition snapshot of the bucket slots.
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        // ordering: stat — exposition read of the accumulated sum.
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Interpolated `q`-quantile (see [`hist::percentile`]).
    pub fn percentile(&self, q: f64) -> f64 {
        hist::percentile(&self.bucket_counts(), q)
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// The shared state behind one registered metric, of one of the three
/// [`Kind`]s.
#[derive(Debug, Clone)]
pub enum Core {
    /// A counter's state.
    Counter(Arc<CounterCore>),
    /// A gauge's state.
    Gauge(Arc<GaugeCore>),
    /// A histogram's state.
    Histogram(Arc<HistogramCore>),
}

impl Core {
    fn kind(&self) -> &'static str {
        match self {
            Core::Counter(_) => "counter",
            Core::Gauge(_) => "gauge",
            Core::Histogram(_) => "histogram",
        }
    }
}

/// A metric kind: [`CounterCore`], [`GaugeCore`] or [`HistogramCore`].
/// [`Registry::series`], [`Metric`] and [`Family`] are generic over it.
pub trait Kind: sealed::Sealed + Default + Send + Sync + 'static {}

mod sealed {
    use super::{Arc, Core};

    /// Moves one typed core in and out of the registry's [`Core`] enum.
    /// Unnameable outside this crate, so the three kinds are the only ones.
    pub trait Sealed: Sized {
        /// Wraps a fresh core for a new registry entry.
        fn wrap(core: Arc<Self>) -> Core;
        /// The typed core of an entry, or the entry back when it holds
        /// another kind.
        fn unwrap(core: Core) -> Result<Arc<Self>, Core>;
    }
}

macro_rules! kind {
    ($core:ty, $variant:ident) => {
        impl sealed::Sealed for $core {
            fn wrap(core: Arc<Self>) -> Core {
                Core::$variant(core)
            }
            fn unwrap(core: Core) -> Result<Arc<Self>, Core> {
                match core {
                    Core::$variant(c) => Ok(c),
                    other => Err(other),
                }
            }
        }
        impl Kind for $core {}
    };
}
kind!(CounterCore, Counter);
kind!(GaugeCore, Gauge);
kind!(HistogramCore, Histogram);

#[derive(Debug)]
struct Entry {
    name: String,
    /// `Some((key, value))` for one series of a labeled family (per-model
    /// serving metrics); `None` for the ordinary unlabeled metrics.
    label: Option<(String, String)>,
    help: String,
    core: Core,
}

/// One row of [`Registry::sorted`]: `(name, label, help, core)`.
type SortedEntry = (String, Option<(String, String)>, String, Core);

/// Label values are interpolated into Prometheus sample lines and JSON
/// keys; characters that could break either encoding are replaced with
/// `_` at registration time.
fn sanitize_label_value(v: &str) -> String {
    v.chars()
        .map(|c| match c {
            '"' | '\\' | '\n' | '{' | '}' => '_',
            c => c,
        })
        .collect()
}

/// A set of named metrics with deterministic (name-sorted) exposition.
/// Most code uses the process-wide [`global`] registry through static
/// handles; tests build private instances.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) the series `name` of core kind `K`: unlabeled
    /// for `label == None`, else the `{key="value"}` series of a labeled
    /// family (per-model serving metrics). A series already registered as
    /// a different kind keeps its original kind; the caller gets a detached
    /// core so recording still works, but only the first registration is
    /// exposed — `debug_assert!`ed as a programming bug.
    pub fn series<K: Kind>(&self, name: &str, label: Option<(&str, &str)>, help: &str) -> Arc<K> {
        let label = label.map(|(k, v)| (k.to_string(), sanitize_label_value(v)));
        let mut entries = lock(&self.entries);
        let core = match entries.iter().find(|e| e.name == name && e.label == label) {
            Some(e) => e.core.clone(),
            None => {
                let core = K::wrap(Arc::default());
                entries.push(Entry {
                    name: name.to_string(),
                    label,
                    help: help.to_string(),
                    core: core.clone(),
                });
                core
            }
        };
        K::unwrap(core).unwrap_or_else(|other| {
            debug_assert!(
                false,
                "metric `{name}` already registered as {}",
                other.kind()
            );
            Arc::default()
        })
    }

    /// Registers (or finds) the unlabeled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<CounterCore> {
        self.series(name, None, help)
    }

    /// Registers (or finds) the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<GaugeCore> {
        self.series(name, None, help)
    }

    /// Registers (or finds) the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<HistogramCore> {
        self.series(name, None, help)
    }

    /// Snapshots the entries sorted by name, then label value (exposition
    /// is deterministic regardless of registration order; all series of a
    /// labeled family are contiguous).
    fn sorted(&self) -> Vec<SortedEntry> {
        let entries = lock(&self.entries);
        let mut v: Vec<SortedEntry> = entries
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    e.label.clone(),
                    e.help.clone(),
                    e.core.clone(),
                )
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        v
    }

    /// Prometheus text exposition (format v0.0.4). Histograms render
    /// cumulative `_bucket{le=...}` lines, `_sum`/`_count`, plus derived
    /// `_p50`/`_p90`/`_p99` gauges from bucket interpolation. Labeled
    /// families share one `# HELP`/`# TYPE` block; each series carries its
    /// `{key="value"}` pair on every sample line.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut prev_name: Option<String> = None;
        for (name, label, help, core) in self.sorted() {
            let first_of_name = prev_name.as_deref() != Some(name.as_str());
            if first_of_name {
                out.push_str(&format!("# HELP {name} {help}\n"));
                out.push_str(&format!("# TYPE {name} {}\n", core.kind()));
            }
            let suffix = match &label {
                Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
                None => String::new(),
            };
            match core {
                Core::Counter(c) => out.push_str(&format!("{name}{suffix} {}\n", c.get())),
                Core::Gauge(g) => out.push_str(&format!("{name}{suffix} {}\n", fmt_f64(g.get()))),
                Core::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (i, &c) in counts.iter().enumerate() {
                        cum += c;
                        let le = if i < hist::BUCKET_BOUNDS.len() {
                            hist::format_bound(hist::BUCKET_BOUNDS[i])
                        } else {
                            "+Inf".to_string()
                        };
                        let le_labels = match &label {
                            Some((k, v)) => format!("{{{k}=\"{v}\",le=\"{le}\"}}"),
                            None => format!("{{le=\"{le}\"}}"),
                        };
                        out.push_str(&format!("{name}_bucket{le_labels} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_sum{suffix} {}\n", fmt_f64(h.sum())));
                    out.push_str(&format!("{name}_count{suffix} {cum}\n"));
                    for (psuffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                        let v = hist::percentile(&counts, q);
                        if first_of_name {
                            out.push_str(&format!("# TYPE {name}_{psuffix} gauge\n"));
                        }
                        out.push_str(&format!("{name}_{psuffix}{suffix} {}\n", fmt_f64(v)));
                    }
                }
            }
            prev_name = Some(name);
        }
        out
    }

    /// One-line JSON exposition: `{"counters":{...},"gauges":{...},
    /// "histograms":{name:{count,sum,p50,p90,p99,buckets:[[le,n],...]}}}`
    /// with only non-empty buckets listed (non-cumulative counts). A
    /// labeled series keys as `name{key="value"}` (quotes escaped).
    pub fn render_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut hists = String::new();
        for (base, label, _, core) in self.sorted() {
            let name = match &label {
                Some((k, v)) => format!("{base}{{{k}=\\\"{v}\\\"}}"),
                None => base,
            };
            match core {
                Core::Counter(c) => {
                    push_sep(&mut counters);
                    counters.push_str(&format!("\"{name}\":{}", c.get()));
                }
                Core::Gauge(g) => {
                    push_sep(&mut gauges);
                    gauges.push_str(&format!("\"{name}\":{}", fmt_f64_json(g.get())));
                }
                Core::Histogram(h) => {
                    push_sep(&mut hists);
                    let counts = h.bucket_counts();
                    let buckets: Vec<String> = counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            let le = if i < hist::BUCKET_BOUNDS.len() {
                                hist::format_bound(hist::BUCKET_BOUNDS[i])
                            } else {
                                "\"+Inf\"".to_string()
                            };
                            format!("[{le},{c}]")
                        })
                        .collect();
                    // The exemplar field appears only when a traced,
                    // sampled observation recorded one — untraced runs
                    // keep the exposition byte-identical to pre-tracing.
                    let exemplar = match h.exemplar() {
                        Some(e) => {
                            let le = if e.bucket < hist::BUCKET_BOUNDS.len() {
                                hist::format_bound(hist::BUCKET_BOUNDS[e.bucket])
                            } else {
                                "\"+Inf\"".to_string()
                            };
                            format!(
                                ",\"exemplar\":{{\"trace\":\"{:032x}\",\"span\":\"{:016x}\",\"le\":{le}}}",
                                e.trace_id, e.span_id
                            )
                        }
                        None => String::new(),
                    };
                    hists.push_str(&format!(
                        "\"{name}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]{exemplar}}}",
                        h.count(),
                        fmt_f64_json(h.sum()),
                        fmt_f64_json(h.percentile(0.50)),
                        fmt_f64_json(h.percentile(0.90)),
                        fmt_f64_json(h.percentile(0.99)),
                        buckets.join(",")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{hists}}}}}"
        )
    }
}

fn push_sep(buf: &mut String) {
    if !buf.is_empty() {
        buf.push(',');
    }
}

/// Prometheus float formatting: integral values without a decimal point.
fn fmt_f64(v: f64) -> String {
    hist::format_bound(v)
}

/// JSON float formatting: JSON has no NaN/Inf, so non-finite values render
/// as strings (the `cdcl-telemetry` convention).
fn fmt_f64_json(v: f64) -> String {
    if v.is_finite() {
        hist::format_bound(v)
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// The process-wide registry every static handle registers into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ----------------------------------------------------------------------
// Static handles
// ----------------------------------------------------------------------

/// A `const`-constructible handle on one unlabeled metric of kind `K`.
/// Declare as a `static`; the metric registers into [`global`] on first
/// use. Recording is gated on [`enabled`] (one relaxed load when off).
pub struct Metric<K> {
    name: &'static str,
    help: &'static str,
    core: OnceLock<Arc<K>>,
}

/// A counter handle (name discipline: `cdcl_*_total`, snake_case).
pub type Counter = Metric<CounterCore>;
/// A gauge handle.
pub type Gauge = Metric<GaugeCore>;
/// A histogram handle on the fixed [`hist`] grid.
pub type Histogram = Metric<HistogramCore>;

impl<K> Metric<K> {
    /// Declares a metric.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            core: OnceLock::new(),
        }
    }
}

impl<K: Kind> Metric<K> {
    fn core(&self) -> &Arc<K> {
        self.core
            .get_or_init(|| global().series(self.name, None, self.help))
    }
}

impl Counter {
    /// Adds `n` (no-op when the layer is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.core().add(n);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Mirrors an externally maintained monotone value (see
    /// [`CounterCore::store`]).
    #[inline]
    pub fn store(&self, v: u64) {
        if enabled() {
            self.core().store(v);
        }
    }

    /// Current count (registers the metric if needed; reads even when
    /// disabled).
    pub fn get(&self) -> u64 {
        self.core().get()
    }
}

impl Gauge {
    /// Sets the gauge (no-op when the layer is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.core().set(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.core().get()
    }
}

impl Histogram {
    /// Records one observation (no-op when the layer is disabled).
    #[inline]
    pub fn observe(&self, v: f64) {
        if enabled() {
            self.core().observe(v);
        }
    }

    /// Starts a timer whose drop records the elapsed time **in
    /// microseconds**. When the layer is disabled the clock is never read.
    #[inline]
    pub fn time(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            span: None,
            start: enabled().then(Instant::now),
        }
    }

    /// Opens the timed region `name`: one `cdcl-telemetry` span that also
    /// feeds this histogram, so the region is instrumented at one call.
    /// Closing it ([`HistTimer::finish`], or drop on an early return)
    /// observes the duration in microseconds while the span is still the
    /// active trace context — a traced observation's exemplar is this very
    /// span — then closes the span, which emits its `phase` event. The
    /// clock is read whatever the layers' state, because `finish` reports
    /// the duration to its caller.
    pub fn span(&self, name: &'static str) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            span: Some(cdcl_telemetry::span(name)),
            start: Some(Instant::now()),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core().count()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.core().sum()
    }

    /// Interpolated `q`-quantile.
    pub fn percentile(&self, q: f64) -> f64 {
        self.core().percentile(q)
    }
}

/// A timed region from [`Histogram::time`] or [`Histogram::span`]:
/// records µs into the histogram when it closes, by [`HistTimer::finish`]
/// or on drop. A region with a span must close on its creating thread.
pub struct HistTimer<'h> {
    hist: &'h Histogram,
    span: Option<cdcl_telemetry::Span>,
    /// `None` when there is nothing to time, and once closed.
    start: Option<Instant>,
}

impl HistTimer<'_> {
    /// Attaches task context to the span.
    pub fn task(mut self, task: usize) -> Self {
        self.span = self.span.take().map(|s| s.task(task));
        self
    }

    /// Closes the region and returns its duration in microseconds (0 for
    /// a [`Histogram::time`] timer with the layer off).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(start) = self.start.take() else {
            return 0.0;
        };
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.hist.observe(us);
        self.span = None;
        us
    }
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

// ----------------------------------------------------------------------
// Labeled families
// ----------------------------------------------------------------------

/// A `const`-constructible **family** of metrics of kind `K` sharing one
/// name and one label key, fanned out by label value — the per-model
/// serving series (`cdcl_serve_model_requests_total{model="…"}`).
/// [`Family::with`] resolves a value to its core through the registry;
/// callers keep the `Arc` (one resolution per model slot), so record sites
/// stay lock-free. Cores record unconditionally — holders that need the
/// disabled-layer fast path gate on [`enabled`] themselves (the servers
/// that use families always enable the layer at startup).
pub struct Family<K> {
    name: &'static str,
    help: &'static str,
    label: &'static str,
    kind: PhantomData<fn() -> K>,
}

/// A family of counters.
pub type CounterFamily = Family<CounterCore>;
/// A family of gauges.
pub type GaugeFamily = Family<GaugeCore>;
/// A family of histograms.
pub type HistogramFamily = Family<HistogramCore>;

impl<K> Family<K> {
    /// Declares a family (name discipline as [`Metric::new`]; `label` is
    /// the label *key*, e.g. `"model"`).
    pub const fn new(name: &'static str, help: &'static str, label: &'static str) -> Self {
        Self {
            name,
            help,
            label,
            kind: PhantomData,
        }
    }
}

impl<K: Kind> Family<K> {
    /// The series for `value`, registering it on first use.
    pub fn with(&self, value: &str) -> Arc<K> {
        global().series(self.name, Some((self.label, value)), self.help)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// `ENABLED` is process-global; tests that toggle it must not overlap.
    static TEST_GUARD: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        match TEST_GUARD.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_handles_record_nothing() {
        let _g = guard();
        set_enabled(false);
        static C: Counter = Counter::new("cdcl_test_disabled_total", "x");
        static H: Histogram = Histogram::new("cdcl_test_disabled_us", "x");
        C.inc();
        H.observe(5.0);
        drop(H.time());
        H.span("obs_disabled_region").finish();
        assert_eq!(C.get(), 0);
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn enabled_handles_register_globally_and_record() {
        let _g = guard();
        set_enabled(true);
        static C: Counter = Counter::new("cdcl_test_enabled_total", "x");
        static G: Gauge = Gauge::new("cdcl_test_enabled_gauge", "x");
        C.add(3);
        G.set(1.5);
        set_enabled(false);
        assert_eq!(C.get(), 3);
        assert_eq!(G.get(), 1.5);
        let text = global().render_prometheus();
        assert!(text.contains("cdcl_test_enabled_total 3"));
        assert!(text.contains("cdcl_test_enabled_gauge 1.5"));
    }

    #[test]
    fn duplicate_registration_returns_the_same_core() {
        let r = Registry::new();
        let a = r.counter("dup_total", "first");
        let b = r.counter("dup_total", "second help ignored");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert!(r.render_prometheus().contains("# HELP dup_total first\n"));
    }

    #[test]
    fn golden_prometheus_exposition() {
        let r = Registry::new();
        let c = r.counter("cdcl_golden_requests_total", "Requests answered");
        let g = r.gauge("cdcl_golden_loss", "Last loss");
        let h = r.histogram("cdcl_golden_latency_us", "Batch latency");
        c.add(42);
        g.set(0.5);
        h.observe(1.0); // bucket le="1"
        h.observe(3.0); // bucket le="5"
        h.observe(3.0);
        h.observe(2e9); // overflow

        let text = r.render_prometheus();
        let expected_head = "\
# HELP cdcl_golden_latency_us Batch latency
# TYPE cdcl_golden_latency_us histogram
cdcl_golden_latency_us_bucket{le=\"1\"} 1
cdcl_golden_latency_us_bucket{le=\"2\"} 1
cdcl_golden_latency_us_bucket{le=\"5\"} 3
cdcl_golden_latency_us_bucket{le=\"10\"} 3
";
        assert!(
            text.starts_with(expected_head),
            "exposition head mismatch:\n{text}"
        );
        // Cumulative counts reach the overflow bucket.
        assert!(text.contains("cdcl_golden_latency_us_bucket{le=\"1000000000\"} 3\n"));
        assert!(text.contains("cdcl_golden_latency_us_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("cdcl_golden_latency_us_sum 2000000007\n"));
        assert!(text.contains("cdcl_golden_latency_us_count 4\n"));
        // Derived quantile gauges are typed and present.
        assert!(text.contains("# TYPE cdcl_golden_latency_us_p50 gauge\n"));
        assert!(text.contains("cdcl_golden_latency_us_p99 "));
        // Name-sorted: the counter and gauge follow the histogram block.
        let pos_c = text.find("# HELP cdcl_golden_loss").unwrap();
        let pos_r = text.find("# HELP cdcl_golden_requests_total").unwrap();
        assert!(pos_c < pos_r);
        assert!(text.contains(
            "# TYPE cdcl_golden_requests_total counter\ncdcl_golden_requests_total 42\n"
        ));
        assert!(text.contains("# TYPE cdcl_golden_loss gauge\ncdcl_golden_loss 0.5\n"));
    }

    #[test]
    fn golden_json_exposition() {
        let r = Registry::new();
        r.counter("cdcl_j_total", "c").add(7);
        r.gauge("cdcl_j_gauge", "g").set(2.5);
        let h = r.histogram("cdcl_j_us", "h");
        h.observe(3.0);
        h.observe(3.0);
        let json = r.render_json();
        assert_eq!(
            json,
            "{\"counters\":{\"cdcl_j_total\":7},\"gauges\":{\"cdcl_j_gauge\":2.5},\
             \"histograms\":{\"cdcl_j_us\":{\"count\":2,\"sum\":6,\"p50\":3.5,\"p90\":4.7,\
             \"p99\":4.97,\"buckets\":[[5,2]]}}}"
                .replace("             ", "")
        );
    }

    #[test]
    fn histogram_exemplar_keeps_the_max_bucket_trace() {
        let _g = guard();
        let path =
            std::env::temp_dir().join(format!("cdcl-obs-exemplar-{}.jsonl", std::process::id()));
        cdcl_telemetry::set_trace_file(Some(&path));
        let r = Registry::new();
        let h = r.histogram("cdcl_x_us", "h");
        // Untraced observation (no span open on this thread): no exemplar,
        // even with the sink installed.
        h.observe(1.0);
        assert_eq!(h.exemplar(), None);
        let attach = |trace_id: u128, span_id: u64| {
            cdcl_telemetry::ctx::attach(cdcl_telemetry::ctx::TraceContext { trace_id, span_id })
        };
        {
            let _a = attach(0xaaa, 1);
            h.observe(2.0);
        }
        {
            let _a = attach(0xbbb, 2);
            h.observe(500.0);
        }
        {
            // A later observation in a *lower* bucket must not displace
            // the max-bucket exemplar.
            let _a = attach(0xccc, 3);
            h.observe(3.0);
        }
        cdcl_telemetry::set_trace_file(None);
        std::fs::remove_file(&path).ok();
        let e = h
            .exemplar()
            .expect("traced observations record an exemplar");
        assert_eq!(e.trace_id, 0xbbb);
        assert_eq!(e.span_id, 2);
        let json = r.render_json();
        assert!(
            json.contains(
                "\"exemplar\":{\"trace\":\"00000000000000000000000000000bbb\",\
                 \"span\":\"0000000000000002\",\"le\":500}"
            ),
            "json exposition lacks the exemplar: {json}"
        );
        // With tracing back off, fresh histograms render without the field
        // (the golden expositions above depend on this).
        h.observe(900.0);
        assert_eq!(h.exemplar().expect("kept").trace_id, 0xbbb);
    }

    /// The quoted string value of the first `"key":"…"` in `text`.
    fn quoted<'a>(text: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":\"");
        let at = text.find(&pat).map(|i| i + pat.len()).unwrap_or(text.len());
        let rest = &text[at..];
        &rest[..rest.find('"').unwrap_or(0)]
    }

    #[test]
    fn histogram_span_records_each_sink_once_and_exemplars_its_span() {
        let _g = guard();
        static H: Histogram = Histogram::new("cdcl_test_span_region_us", "x");
        let path = std::env::temp_dir().join(format!("cdcl-obs-span-{}.jsonl", std::process::id()));
        cdcl_telemetry::set_trace_file(Some(&path));
        set_enabled(true);
        let us = H.span("obs_test_region").task(7).finish();
        set_enabled(false);
        cdcl_telemetry::set_trace_file(None);
        let trace = std::fs::read_to_string(&path).expect("trace readable");
        std::fs::remove_file(&path).ok();

        assert_eq!(H.count(), 1, "one region, one observation");
        assert_eq!(H.sum(), us, "finish() reports the observed duration");
        let phases: Vec<&str> = trace
            .lines()
            .filter(|l| l.contains("\"ev\":\"phase\",\"name\":\"obs_test_region\""))
            .collect();
        assert_eq!(phases.len(), 1, "one region, one phase event: {trace}");
        assert!(phases[0].contains("\"task\":7"), "{}", phases[0]);
        let json = global().render_json();
        let entry = &json[json
            .find("\"cdcl_test_span_region_us\"")
            .expect("registered")..];
        let exemplar = &entry[entry.find("\"exemplar\"").expect("traced exemplar")..];
        assert_eq!(quoted(exemplar, "span"), quoted(phases[0], "span"));
        assert_eq!(quoted(exemplar, "trace"), quoted(phases[0], "trace"));
        assert_eq!(quoted(exemplar, "span").len(), 16);
    }

    #[test]
    fn histogram_count_equals_bucket_sum_and_sum_accumulates() {
        let h = HistogramCore::default();
        for i in 0..100 {
            h.observe(i as f64);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), (0..100).sum::<i32>() as f64);
    }

    #[test]
    fn non_finite_json_values_render_as_strings() {
        assert_eq!(fmt_f64_json(f64::NAN), "\"NaN\"");
        assert_eq!(fmt_f64_json(f64::INFINITY), "\"inf\"");
        assert_eq!(fmt_f64_json(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(fmt_f64_json(2.0), "2");
    }

    #[test]
    fn labeled_series_share_one_help_type_block() {
        let r = Registry::new();
        let series = |v| {
            r.series::<CounterCore>(
                "cdcl_lab_requests_total",
                Some(("model", v)),
                "Per-model requests",
            )
        };
        series("beta").add(2);
        series("alpha").add(5);
        let text = r.render_prometheus();
        assert_eq!(
            text,
            "# HELP cdcl_lab_requests_total Per-model requests\n\
             # TYPE cdcl_lab_requests_total counter\n\
             cdcl_lab_requests_total{model=\"alpha\"} 5\n\
             cdcl_lab_requests_total{model=\"beta\"} 2\n"
        );
    }

    #[test]
    fn labeled_histogram_merges_label_with_le_and_keys_json() {
        let r = Registry::new();
        let h = r.series::<HistogramCore>("cdcl_lab_lat_us", Some(("model", "m1")), "lat");
        h.observe(3.0);
        let text = r.render_prometheus();
        assert!(text.contains("cdcl_lab_lat_us_bucket{model=\"m1\",le=\"5\"} 1\n"));
        assert!(text.contains("cdcl_lab_lat_us_sum{model=\"m1\"} 3\n"));
        assert!(text.contains("cdcl_lab_lat_us_count{model=\"m1\"} 1\n"));
        assert!(text.contains("cdcl_lab_lat_us_p50{model=\"m1\"} "));
        let json = r.render_json();
        assert!(
            json.contains("\"cdcl_lab_lat_us{model=\\\"m1\\\"}\":{\"count\":1"),
            "labeled JSON key missing: {json}"
        );
    }

    #[test]
    fn labeled_and_unlabeled_same_name_stay_distinct() {
        let r = Registry::new();
        let plain = r.counter("cdcl_lab_mixed_total", "c");
        let labeled = r.series::<CounterCore>("cdcl_lab_mixed_total", Some(("model", "x")), "c");
        plain.add(1);
        labeled.add(10);
        let text = r.render_prometheus();
        assert!(text.contains("cdcl_lab_mixed_total 1\n"));
        assert!(text.contains("cdcl_lab_mixed_total{model=\"x\"} 10\n"));
    }

    #[test]
    fn family_handles_cache_per_value_cores() {
        let _g = guard();
        static FAM: CounterFamily =
            CounterFamily::new("cdcl_test_family_total", "per-model", "model");
        let a = FAM.with("m0");
        let b = FAM.with("m0");
        let c = FAM.with("m1");
        a.add(2);
        b.add(3);
        c.add(7);
        assert_eq!(FAM.with("m0").get(), 5, "same value resolves one core");
        assert_eq!(FAM.with("m1").get(), 7);
    }

    #[test]
    fn hostile_label_values_are_sanitized() {
        let r = Registry::new();
        r.series::<CounterCore>("cdcl_lab_esc_total", Some(("model", "a\"b\\c\nd{e}")), "c")
            .add(1);
        let text = r.render_prometheus();
        assert!(
            text.contains("cdcl_lab_esc_total{model=\"a_b_c_d_e_\"} 1\n"),
            "unsanitized label leaked: {text}"
        );
    }
}
