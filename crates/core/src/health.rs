//! Live training metrics (DESIGN.md §11) and the periodic `health` event.
//!
//! These statics are the trainer's half of the `cdcl-obs` registry: step
//! timers as log-bucketed histograms, the drift signals from Eqs. 17–19
//! (`pair_agreement`, `pseudo_flip_rate`) as gauges, and rehearsal-memory
//! occupancy. A signal that also has a `scalar` trace event is computed
//! only when [`recording`] and goes through [`record`], its one
//! instrumentation point for both layers; a run with both layers off does
//! no extra work (and stays bitwise identical —
//! `tests/integration_metrics.rs`).
//!
//! When *both* telemetry and metrics are on, [`emit_health_event`] folds a
//! registry snapshot into the trace once per epoch: a single `health` JSONL
//! line a human (or `trace-summary`) can read to see where a run stood at
//! that moment, without replaying every `scalar` event.

use cdcl_obs::{Counter, Gauge, Histogram};
use cdcl_telemetry as telemetry;

pub(crate) static WARMUP_STEP_US: Histogram = Histogram::new(
    "cdcl_train_warmup_step_us",
    "Warm-up optimizer step duration (microseconds)",
);
pub(crate) static ADAPTATION_STEP_US: Histogram = Histogram::new(
    "cdcl_train_adaptation_step_us",
    "Adaptation optimizer step duration (microseconds)",
);
pub(crate) static LOSS: Gauge = Gauge::new("cdcl_train_loss", "Most recent total training loss");
pub(crate) static GRAD_NORM: Gauge =
    Gauge::new("cdcl_train_grad_norm", "Most recent global gradient norm");
pub(crate) static PAIR_AGREEMENT: Gauge = Gauge::new(
    "cdcl_train_pair_agreement",
    "Eq. 19 agreement: fraction of target samples with a matched source pair",
);
pub(crate) static PSEUDO_FLIP_RATE: Gauge = Gauge::new(
    "cdcl_train_pseudo_flip_rate",
    "Fraction of pseudo-labels that flipped between centroid rounds (Eq. 17)",
);
pub(crate) static MEMORY_OCCUPANCY: Gauge = Gauge::new(
    "cdcl_train_memory_occupancy",
    "Rehearsal-memory records currently stored",
);
pub(crate) static MEMORY_CAPACITY: Gauge = Gauge::new(
    "cdcl_train_memory_capacity",
    "Rehearsal-memory record capacity",
);
pub(crate) static STEPS_TOTAL: Counter = Counter::new(
    "cdcl_train_steps_total",
    "Optimizer steps taken (warm-up + adaptation)",
);
pub(crate) static TASKS_TOTAL: Counter = Counter::new(
    "cdcl_train_tasks_total",
    "Tasks completed by the continual learner",
);

/// True when either layer records: the gate on computing any training
/// signal, so a run with both layers off reads no loss and reduces no
/// gradient.
pub(crate) fn recording() -> bool {
    telemetry::enabled() || cdcl_obs::enabled()
}

/// Records one training signal at its single instrumentation point: sets
/// `gauge` (metrics on) and emits the `scalar` event `name` with its
/// task/epoch — and `step`, for per-step signals — context (tracing on).
pub(crate) fn record(
    name: &str,
    gauge: Option<&Gauge>,
    value: f64,
    task: usize,
    epoch: usize,
    step: Option<usize>,
) {
    if let Some(g) = gauge {
        g.set(value);
    }
    let mut ev = telemetry::Event::new("scalar")
        .name(name)
        .task(task)
        .epoch(epoch);
    if let Some(s) = step {
        ev = ev.step(s);
    }
    ev.value(value).emit();
}

/// Emits one `health` trace event summarising the registry: last
/// loss/grad-norm, the Eq. 17–19 drift gauges, memory occupancy, step
/// counts, step-timer percentiles, and the kernel counters (mirrored into
/// the registry on the way). Requires both layers on — with telemetry off
/// there is no trace to write to; with metrics off the registry is empty.
pub(crate) fn emit_health_event(task: usize, epoch: usize) {
    if !(telemetry::enabled() && cdcl_obs::enabled()) {
        return;
    }
    cdcl_tensor::kernels::publish_registry();
    let kernel = cdcl_tensor::kernels::counter_snapshot();
    telemetry::Event::new("health")
        .task(task)
        .epoch(epoch)
        .f64_field("loss", LOSS.get())
        .f64_field("grad_norm", GRAD_NORM.get())
        .f64_field("pair_agreement", PAIR_AGREEMENT.get())
        .f64_field("pseudo_flip_rate", PSEUDO_FLIP_RATE.get())
        .f64_field("memory_occupancy", MEMORY_OCCUPANCY.get())
        .f64_field("memory_capacity", MEMORY_CAPACITY.get())
        .u64_field("steps_total", STEPS_TOTAL.get())
        .u64_field("tasks_total", TASKS_TOTAL.get())
        .u64_field("gemm_calls_total", kernel.gemm_calls)
        .f64_field("warmup_step_us_p50", WARMUP_STEP_US.percentile(0.50))
        .f64_field(
            "adaptation_step_us_p50",
            ADAPTATION_STEP_US.percentile(0.50),
        )
        .f64_field(
            "adaptation_step_us_p99",
            ADAPTATION_STEP_US.percentile(0.99),
        )
        .emit();
}
