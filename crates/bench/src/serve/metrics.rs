//! The `cdcl_serve_*` observability surface (DESIGN.md §11, §13).
//!
//! Process-wide statics cover the whole server; the `*Family` handles fan
//! the per-model series out by `{model="…"}` label. Every [`super::registry::ModelSlot`]
//! resolves its family cores once at registration, so per-request recording
//! never takes the registry lock.

use cdcl_obs::{Counter, CounterFamily, GaugeFamily, Histogram, HistogramFamily};

pub(crate) static REQUESTS_TOTAL: Counter = Counter::new(
    "cdcl_serve_requests_total",
    "Prediction requests received (including malformed ones)",
);
pub(crate) static FAILED_TOTAL: Counter = Counter::new(
    "cdcl_serve_failed_total",
    "Requests answered with an error response",
);
pub(crate) static BUSY_TOTAL: Counter = Counter::new(
    "cdcl_serve_busy_total",
    "Requests shed by admission control (per-model quota or queue cap) \
     with an ok:false busy response instead of unbounded queueing",
);
pub(crate) static NONFINITE_TOTAL: Counter = Counter::new(
    "cdcl_serve_nonfinite_total",
    "Requests whose output probabilities contained NaN/Inf (answered as errors)",
);
pub(crate) static BATCHES_TOTAL: Counter = Counter::new(
    "cdcl_serve_batches_total",
    "Forward-pass micro-batches executed",
);
pub(crate) static ACCEPT_ERRORS_TOTAL: Counter = Counter::new(
    "cdcl_serve_accept_errors_total",
    "Failed accept()/clone() calls on the TCP listener that were logged \
     and survived (EMFILE, ECONNABORTED, ...) instead of killing the server",
);
pub(crate) static OVERSIZE_LINES_TOTAL: Counter = Counter::new(
    "cdcl_serve_oversize_lines_total",
    "Lines longer than the line limit, each answered with a line-too-long \
     error before its connection was closed",
);
pub(crate) static RELOADS_TOTAL: Counter = Counter::new(
    "cdcl_serve_reloads_total",
    "Successful RELOAD verbs: snapshot versions atomically hot-swapped \
     into the registry",
);
pub(crate) static BATCH_LATENCY_US: Histogram = Histogram::new(
    "cdcl_serve_batch_latency_us",
    "Forward-pass latency per micro-batch (microseconds)",
);
pub(crate) static BATCH_SIZE: Histogram =
    Histogram::new("cdcl_serve_batch_size", "Requests per executed micro-batch");
pub(crate) static QUEUE_DEPTH: Histogram = Histogram::new(
    "cdcl_serve_queue_depth",
    "Pending queue length at each flush (before grouping)",
);

// ------------------------------------------------------------------
// Per-model families (one series per registry model id)
// ------------------------------------------------------------------

pub(crate) static MODEL_REQUESTS_TOTAL: CounterFamily = CounterFamily::new(
    "cdcl_serve_model_requests_total",
    "Prediction requests routed to this model",
    "model",
);
pub(crate) static MODEL_FAILED_TOTAL: CounterFamily = CounterFamily::new(
    "cdcl_serve_model_failed_total",
    "Requests for this model answered with an error response",
    "model",
);
pub(crate) static MODEL_BUSY_TOTAL: CounterFamily = CounterFamily::new(
    "cdcl_serve_model_busy_total",
    "Requests for this model shed by its in-flight quota",
    "model",
);
pub(crate) static MODEL_RELOADS_TOTAL: CounterFamily = CounterFamily::new(
    "cdcl_serve_model_reloads_total",
    "Snapshot versions hot-swapped into this model's slot",
    "model",
);
pub(crate) static MODEL_LATENCY_US: HistogramFamily = HistogramFamily::new(
    "cdcl_serve_model_latency_us",
    "Forward-pass latency per micro-batch of this model (microseconds)",
    "model",
);
pub(crate) static MODEL_INFLIGHT: GaugeFamily = GaugeFamily::new(
    "cdcl_serve_model_inflight",
    "Admitted requests currently queued or executing for this model",
    "model",
);
