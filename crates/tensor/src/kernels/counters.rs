//! Always-on kernel-layer counters.
//!
//! Two process-wide relaxed atomics track where the math goes: GEMM call
//! count and total fused-multiply-add volume. One `fetch_add` per GEMM call
//! is noise next to the kernel itself, so the counters stay on even when
//! telemetry is not — they never touch the data path, so results are
//! unaffected.
//!
//! `cdcl-telemetry` producers read [`counter_snapshot`] at phase boundaries
//! and emit the deltas; benchmarks use [`reset_counters`] between cases.

use std::sync::atomic::{AtomicU64, Ordering};

static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
static GEMM_FMAS: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// GEMM kernel invocations (one per `gemm_*` call; a batched call
    /// counts once).
    pub gemm_calls: u64,
    /// Fused multiply-add volume: Σ `m·k·n` (× batch) over all GEMM calls.
    pub gemm_fmas: u64,
    /// Always 0: kernels run on the calling thread and spawn none. Kept so
    /// readers of the former spawn count still build.
    pub pool_spawns: u64,
}

impl KernelCounters {
    /// Counter increments since `earlier` (saturating, in case a benchmark
    /// reset the globals in between).
    pub fn delta_since(&self, earlier: &KernelCounters) -> KernelCounters {
        KernelCounters {
            gemm_calls: self.gemm_calls.saturating_sub(earlier.gemm_calls),
            gemm_fmas: self.gemm_fmas.saturating_sub(earlier.gemm_fmas),
            pool_spawns: 0,
        }
    }
}

/// Reads all counters (relaxed; values from concurrently running kernels
/// may or may not be included, which is fine for telemetry).
pub fn counter_snapshot() -> KernelCounters {
    KernelCounters {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        gemm_calls: GEMM_CALLS.load(Ordering::Relaxed),
        gemm_fmas: GEMM_FMAS.load(Ordering::Relaxed),
        pool_spawns: 0,
    }
}

/// Zeroes all counters (benchmark hygiene; telemetry uses deltas instead).
pub fn reset_counters() {
    // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
    GEMM_CALLS.store(0, Ordering::Relaxed);
    GEMM_FMAS.store(0, Ordering::Relaxed);
}

/// Records one GEMM invocation of `fmas` fused multiply-adds.
#[inline]
pub(crate) fn record_gemm(fmas: u64) {
    // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
    GEMM_FMAS.fetch_add(fmas, Ordering::Relaxed);
}

static OBS_GEMM_CALLS: cdcl_obs::Counter = cdcl_obs::Counter::new(
    "cdcl_kernel_gemm_calls_total",
    "GEMM kernel invocations since process start",
);
static OBS_GEMM_FMAS: cdcl_obs::Counter = cdcl_obs::Counter::new(
    "cdcl_kernel_gemm_fmas_total",
    "Fused multiply-add volume across all GEMM calls",
);

/// Mirrors the always-on kernel atomics into the `cdcl-obs` registry.
/// The kernels keep their own local atomics (one `fetch_add`, no enabled
/// check, no registry indirection on the hot path); collectors call this at
/// scrape or health-snapshot time so `/metrics` sees current values.
pub fn publish_registry() {
    let snap = counter_snapshot();
    OBS_GEMM_CALLS.store(snap.gemm_calls);
    OBS_GEMM_FMAS.store(snap.gemm_fmas);
    crate::pool::publish_registry();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_track_gemm_volume() {
        let before = counter_snapshot();
        crate::kernels::gemm_nn(&mut [0.0; 4], &[1.0; 6], &[1.0; 6], 2, 3, 2);
        crate::kernels::gemm_nt(&mut [0.0; 4], &[1.0; 6], &[1.0; 6], 2, 3, 2);
        let delta = counter_snapshot().delta_since(&before);
        assert_eq!(delta.gemm_calls, 2);
        assert_eq!(delta.gemm_fmas, (2 * 3 * 2) + (2 * 3 * 2));
    }

    #[test]
    fn batched_calls_count_once_with_full_volume() {
        let before = counter_snapshot();
        crate::kernels::gemm_nn_batched(&mut [0.0; 8], &[1.0; 8], &[1.0; 8], 2, 2, 2, 2);
        let delta = counter_snapshot().delta_since(&before);
        assert_eq!(delta.gemm_calls, 1);
        assert_eq!(delta.gemm_fmas, 2 * 2 * 2 * 2);
    }
}
