//! The `cdcl_traind_*` observability surface (DESIGN.md §15).
//!
//! One daemon serves one model, so plain process-wide statics suffice —
//! there are no per-model families here. The drift gauges expose the
//! detector's live internals (last window score, CUSUM statistic,
//! baseline), which is what an operator watches to judge the drift
//! thresholds.

use cdcl_obs::{Counter, Gauge, Histogram};

pub(crate) static SAMPLES_TOTAL: Counter = Counter::new(
    "cdcl_traind_samples_total",
    "Ingested samples (source and target) accepted into the staging ring",
);
pub(crate) static WINDOWS_TOTAL: Counter = Counter::new(
    "cdcl_traind_windows_total",
    "Committed ingest windows (each one drift-scored batch)",
);
pub(crate) static DROPPED_WINDOWS_TOTAL: Counter = Counter::new(
    "cdcl_traind_dropped_windows_total",
    "Staged windows evicted by the --max-stage ring before a round consumed them",
);
pub(crate) static DRIFT_SCORE: Gauge = Gauge::new(
    "cdcl_traind_drift_score",
    "Nearest-centroid distance of the last committed window (DriftDetector input)",
);
pub(crate) static DRIFT_STATISTIC: Gauge = Gauge::new(
    "cdcl_traind_drift_statistic",
    "Current CUSUM statistic S of the drift detector",
);
pub(crate) static DRIFT_BASELINE: Gauge = Gauge::new(
    "cdcl_traind_drift_baseline",
    "Current EWMA/calibration baseline of the drift detector",
);
pub(crate) static DETECTIONS_TOTAL: Counter = Counter::new(
    "cdcl_traind_detections_total",
    "Sustained-drift detections (new-task declarations), one per excursion latch",
);
pub(crate) static ROUNDS_TOTAL: Counter = Counter::new(
    "cdcl_traind_rounds_total",
    "Online training rounds run through CdclTrainer::learn_task",
);
pub(crate) static ROUND_LATENCY_US: Histogram = Histogram::new(
    "cdcl_traind_round_latency_us",
    "Wall time of one online training round (microseconds)",
);
pub(crate) static PUBLISH_TOTAL: Counter = Counter::new(
    "cdcl_traind_publish_total",
    "Checkpoints atomically published to --publish-dir after a round",
);
pub(crate) static PUBLISH_FAILED_TOTAL: Counter = Counter::new(
    "cdcl_traind_publish_failed_total",
    "Publish attempts that failed (snapshot write error, or any --notify \
     RELOAD that was refused, unreachable, or did not verify)",
);
pub(crate) static PUBLISH_LATENCY_US: Histogram = Histogram::new(
    "cdcl_traind_publish_latency_us",
    "Snapshot write through last verified RELOAD ack (microseconds)",
);
pub(crate) static TASKS: Gauge = Gauge::new(
    "cdcl_traind_tasks",
    "Tasks the online trainer currently holds (grows by one per detection round)",
);
pub(crate) static ACCEPT_ERRORS_TOTAL: Counter = Counter::new(
    "cdcl_traind_accept_errors_total",
    "Failed accept()/clone() calls on the TCP listener that were logged \
     and survived instead of killing the daemon",
);
pub(crate) static OVERSIZE_LINES_TOTAL: Counter = Counter::new(
    "cdcl_traind_oversize_lines_total",
    "Lines longer than the line limit, each answered with a line-too-long \
     error before its connection was closed",
);
