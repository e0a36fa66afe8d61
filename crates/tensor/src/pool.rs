//! Size-classed `f32` buffer pool: the workspace's memory plane.
//!
//! Every tensor in the workspace stores its elements in a [`PooledBuf`] —
//! an RAII handle over a plain `Vec<f32>` that, on drop, returns the
//! storage to a process-wide free list instead of the system allocator.
//! Because the CDCL workload's steady-state shapes are fixed after task
//! setup (frozen `(K_i, b_i)` pairs, fixed-capacity rehearsal memory),
//! every training step and serve request after the first re-uses the same
//! small set of size classes and the allocator drops out of the hot path.
//!
//! Design (DESIGN.md §12):
//!
//! * **Size classes** are powers of two from [`MIN_CLASS`] elements up to
//!   [`MAX_CLASS`]; a request of `n` elements is served from the smallest
//!   class `>= n` and the returned buffer is truncated to exactly `n`.
//!   Requests above [`MAX_CLASS`] bypass the free lists (plain `Vec`).
//! * **Recycling is capacity-based**: an adopted or returned `Vec` is filed
//!   under the *largest* class whose size fits within its capacity, so a
//!   buffer popped from class `c` always has capacity `>= size(c) >= n`.
//! * **No `unsafe`**: recycled buffers keep their previous (fully
//!   initialised) length. [`take_uninit`] truncates when the stored length
//!   covers the request and zero-extends only the missing tail, so in
//!   steady state it is a pointer-width bookkeeping op — no fill, no
//!   `MaybeUninit`. Callers of [`take_uninit`] must overwrite every
//!   element; [`take_zeroed`] is for accumulation targets (GEMM outputs,
//!   `col2im`) where zero *is* the semantic initial value.
//! * **Determinism**: the pool only decides *where* a buffer lives, never
//!   what it holds when the caller first reads it, so results are bitwise
//!   identical with the pool on or off (`CDCL_POOL=0` kill switch, plus a
//!   runtime toggle so tests can A/B inside one process).
//! * **Bounded residency**: each free list is capped under a per-class
//!   byte budget (deep lists for cheap small classes, shallow for big
//!   ones); overflow buffers fall through to the allocator and
//!   `cdcl_pool_bytes_resident` tracks what the lists hold.
//!
//! The free lists are per-class `Mutex<Vec<Vec<f32>>>`. A pool hit is one
//! short critical section (pop) — noise next to the kernels that consume
//! the buffer, and uncontended in the single-threaded step loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest pooled class, in elements (256 B). Requests below this still
/// pool (they round up), keeping the hit-rate accounting uniform.
pub const MIN_CLASS: usize = 64;
/// Largest pooled class, in elements (64 MiB). Larger requests bypass the
/// free lists entirely.
pub const MAX_CLASS: usize = 1 << 24;
const NUM_CLASSES: usize = (MAX_CLASS / MIN_CLASS).trailing_zeros() as usize + 1;
/// Per-class residency budget in bytes. The autograd tape keeps every
/// intermediate of a step alive at once, so small classes need *deep* free
/// lists (hundreds of scalars/rows live simultaneously); big classes would
/// pin real memory, so their lists stay shallow. A byte budget gives both:
/// `cap(class) = clamp(BUDGET / class_bytes, MIN, MAX)`.
const CLASS_CAP_BYTES: usize = 8 << 20;
const CLASS_CAP_MAX: usize = 1024;
const CLASS_CAP_MIN: usize = 4;

/// Free-list depth cap for class `idx` under the byte budget.
fn class_cap(idx: usize) -> usize {
    (CLASS_CAP_BYTES / (class_size(idx) * 4)).clamp(CLASS_CAP_MIN, CLASS_CAP_MAX)
}

/// Index of the smallest class that can serve `n` elements, or `None` when
/// `n` exceeds [`MAX_CLASS`].
fn class_for_request(n: usize) -> Option<usize> {
    if n > MAX_CLASS {
        return None;
    }
    let rounded = n.next_power_of_two().max(MIN_CLASS);
    Some((rounded / MIN_CLASS).trailing_zeros() as usize)
}

/// Index of the largest class whose size fits in `capacity`, or `None`
/// when the capacity is below [`MIN_CLASS`] (not worth recycling).
fn class_for_capacity(capacity: usize) -> Option<usize> {
    if capacity < MIN_CLASS {
        return None;
    }
    let c = capacity.min(MAX_CLASS);
    // Largest power of two <= c, relative to MIN_CLASS.
    let floor = usize::BITS - 1 - c.leading_zeros();
    let min_bits = MIN_CLASS.trailing_zeros();
    Some((floor - min_bits) as usize)
}

/// Element count of class `idx`.
fn class_size(idx: usize) -> usize {
    MIN_CLASS << idx
}

// ---------------------------------------------------------------------
// Pool instance (testable) + the process-wide instance
// ---------------------------------------------------------------------

/// A size-classed free-list pool. The workspace uses one process-wide
/// instance ([`global`]); tests construct their own for precise stats.
pub struct BufferPool {
    classes: Vec<Mutex<Vec<Vec<f32>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    alloc_bytes: AtomicU64,
    resident_bytes: AtomicU64,
}

/// A point-in-time reading of a pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a free list (no heap allocation).
    pub hits: u64,
    /// Requests that fell through to the allocator (fresh `Vec`).
    pub misses: u64,
    /// Total bytes handed out by the heap through pool paths, including
    /// the `CDCL_POOL=0` fallback and over-`MAX_CLASS` bypasses.
    pub alloc_bytes: u64,
    /// Bytes currently parked in free lists (capacity, not length).
    pub resident_bytes: u64,
}

impl PoolStats {
    /// Counter increments since `earlier` (saturating, so benchmark resets
    /// in between cannot underflow). `resident_bytes` is a gauge and is
    /// carried over as-is.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            resident_bytes: self.resident_bytes,
        }
    }

    /// Fraction of requests served from the free lists (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Mutex poisoning cannot corrupt a free list (the guarded `Vec<Vec<f32>>`
/// has no invariants a panic can break mid-way), so we always recover.
fn lock<'m, T>(
    m: &'m Mutex<T>,
    name: &'static str,
) -> cdcl_obs::lockhook::Witnessed<std::sync::MutexGuard<'m, T>> {
    let guard = match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    cdcl_obs::lockhook::witness_acquired(guard, name)
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// An empty pool with all size classes present and no residency.
    pub fn new() -> Self {
        let mut classes = Vec::with_capacity(NUM_CLASSES);
        for _ in 0..NUM_CLASSES {
            classes.push(Mutex::new(Vec::new()));
        }
        BufferPool {
            classes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// A buffer of exactly `n` elements with **unspecified** (but
    /// initialised) contents. The caller must overwrite every element
    /// before reading — this is what makes pool on/off bitwise identical.
    pub fn take_uninit(&self, n: usize) -> Vec<f32> {
        let Some(class) = class_for_request(n) else {
            // Over-MAX_CLASS bypass: plain allocation, counted but unpooled.
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.alloc_bytes
                .fetch_add((n * 4) as u64, Ordering::Relaxed);
            return vec![0.0; n];
        };
        if let Some(mut v) = lock(&self.classes[class], "pool.classes").pop() {
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.resident_bytes
                .fetch_sub((v.capacity() * 4) as u64, Ordering::Relaxed);
            if v.len() >= n {
                v.truncate(n);
            } else {
                v.resize(n, 0.0);
            }
            return v;
        }
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let size = class_size(class);
        self.alloc_bytes
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            .fetch_add((size * 4) as u64, Ordering::Relaxed);
        let mut v = vec![0.0; size];
        v.truncate(n);
        v
    }

    /// A buffer of exactly `n` zeros. Use for accumulation targets where
    /// zero is the semantic initial value; the fill is skipped when the
    /// buffer is freshly allocated (already zero).
    pub fn take_zeroed(&self, n: usize) -> Vec<f32> {
        let Some(class) = class_for_request(n) else {
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.alloc_bytes
                .fetch_add((n * 4) as u64, Ordering::Relaxed);
            return vec![0.0; n];
        };
        if let Some(mut v) = lock(&self.classes[class], "pool.classes").pop() {
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.resident_bytes
                .fetch_sub((v.capacity() * 4) as u64, Ordering::Relaxed);
            v.clear();
            v.resize(n, 0.0);
            return v;
        }
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let size = class_size(class);
        self.alloc_bytes
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            .fetch_add((size * 4) as u64, Ordering::Relaxed);
        let mut v = vec![0.0; size];
        v.truncate(n);
        v
    }

    /// Returns a buffer to its free list. Buffers too small or too large
    /// to recycle, and overflow beyond the class cap, drop normally.
    pub fn give(&self, v: Vec<f32>) {
        let Some(class) = class_for_capacity(v.capacity()) else {
            return;
        };
        let cap = class_cap(class);
        let mut list = lock(&self.classes[class], "pool.classes");
        if list.len() < cap {
            self.resident_bytes
                // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
                .fetch_add((v.capacity() * 4) as u64, Ordering::Relaxed);
            list.push(v);
        }
    }

    /// Reads all counters (relaxed; concurrent takes may or may not be
    /// included, which is fine for telemetry).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss/alloc counters (benchmark hygiene). Residency
    /// is a live gauge and is left untouched.
    pub fn reset_stats(&self) {
        // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.alloc_bytes.store(0, Ordering::Relaxed);
    }

    /// Drops every parked buffer, returning residency to zero.
    pub fn clear(&self) {
        for class in &self.classes {
            let mut list = lock(class, "pool.classes");
            for v in list.drain(..) {
                self.resident_bytes
                    // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
                    .fetch_sub((v.capacity() * 4) as u64, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide pool behind every [`PooledBuf`].
pub fn global() -> &'static BufferPool {
    static GLOBAL: OnceLock<BufferPool> = OnceLock::new();
    GLOBAL.get_or_init(BufferPool::new)
}

// ---------------------------------------------------------------------
// Enable switch
// ---------------------------------------------------------------------

/// `0` = disabled (plain `Vec` allocation per buffer), anything else (or
/// unset) = enabled.
pub const POOL_ENV: &str = "CDCL_POOL";

static ENABLED_STATE: AtomicU64 = AtomicU64::new(0); // 0 = unread, 1 = off, 2 = on

fn enabled_from_env() -> u64 {
    match std::env::var(POOL_ENV) {
        Ok(v) if v.trim() == "0" => 1,
        _ => 2,
    }
}

/// Whether buffers are recycled through the global pool. Reads `CDCL_POOL`
/// once on first use; [`set_enabled`] overrides at runtime.
pub fn enabled() -> bool {
    // ordering: lazy-init — idempotent env resolution; any racer stores the same value.
    let state = ENABLED_STATE.load(Ordering::Relaxed);
    if state != 0 {
        return state == 2;
    }
    let resolved = enabled_from_env();
    // A concurrent first call resolves to the same value, so a race is fine.
    // ordering: lazy-init — idempotent env resolution; any racer stores the same value.
    ENABLED_STATE.store(resolved, Ordering::Relaxed);
    resolved == 2
}

/// Runtime override of the `CDCL_POOL` switch, so tests can A/B pooled vs
/// plain allocation inside one process. Buffers taken while enabled still
/// recycle on drop after disabling (and vice versa never recycle), which
/// affects only *where* memory lives — never tensor contents.
pub fn set_enabled(on: bool) {
    // ordering: flag — advisory on/off switch; no data is published through it.
    ENABLED_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// PooledBuf: the RAII handle tensors store
// ---------------------------------------------------------------------

/// An owned `f32` buffer that returns its storage to the global pool when
/// dropped (if pooling was enabled when it was taken). This is the storage
/// type inside [`crate::Tensor`]; it derefs to a slice so kernels never
/// see the difference.
pub struct PooledBuf {
    data: Vec<f32>,
    pooled: bool,
}

impl PooledBuf {
    /// A buffer of `n` elements with unspecified (but initialised)
    /// contents; the caller must overwrite every element before reading.
    pub fn take_uninit(n: usize) -> Self {
        if enabled() {
            PooledBuf {
                data: global().take_uninit(n),
                pooled: true,
            }
        } else {
            let pool = global();
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            pool.misses.fetch_add(1, Ordering::Relaxed);
            pool.alloc_bytes
                .fetch_add((n * 4) as u64, Ordering::Relaxed);
            PooledBuf {
                data: vec![0.0; n],
                pooled: false,
            }
        }
    }

    /// A buffer of `n` zeros (for accumulation targets).
    pub fn take_zeroed(n: usize) -> Self {
        if enabled() {
            PooledBuf {
                data: global().take_zeroed(n),
                pooled: true,
            }
        } else {
            let pool = global();
            // ordering: stat — monotonic telemetry counter; readers tolerate staleness.
            pool.misses.fetch_add(1, Ordering::Relaxed);
            pool.alloc_bytes
                .fetch_add((n * 4) as u64, Ordering::Relaxed);
            PooledBuf {
                data: vec![0.0; n],
                pooled: false,
            }
        }
    }

    /// Adopts an externally built `Vec`; its storage joins the recycling
    /// regime on drop.
    pub fn from_vec(data: Vec<f32>) -> Self {
        PooledBuf {
            data,
            pooled: enabled(),
        }
    }

    /// Consumes the handle, detaching the `Vec` from the pool.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.pooled = false;
        std::mem::take(&mut self.data)
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.data
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if self.pooled && self.data.capacity() >= MIN_CLASS {
            global().give(std::mem::take(&mut self.data));
        }
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut out = PooledBuf::take_uninit(self.data.len());
        out.copy_from_slice(&self.data);
        out
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PooledBuf(len={}, pooled={})",
            self.data.len(),
            self.pooled
        )
    }
}

// ---------------------------------------------------------------------
// Global stats + cdcl-obs mirroring
// ---------------------------------------------------------------------

/// Snapshot of the global pool's counters.
pub fn pool_stats() -> PoolStats {
    global().stats()
}

/// Zeroes the global pool's hit/miss/alloc counters (benchmark hygiene).
pub fn reset_pool_stats() {
    global().reset_stats()
}

static OBS_ALLOC_BYTES: cdcl_obs::Counter = cdcl_obs::Counter::new(
    "cdcl_alloc_bytes_total",
    "Heap bytes allocated through tensor-pool paths since process start",
);
static OBS_POOL_HITS: cdcl_obs::Counter = cdcl_obs::Counter::new(
    "cdcl_pool_hits_total",
    "Buffer requests served from the pool free lists",
);
static OBS_POOL_MISSES: cdcl_obs::Counter = cdcl_obs::Counter::new(
    "cdcl_pool_misses_total",
    "Buffer requests that fell through to the heap allocator",
);
static OBS_POOL_HIT_RATE: cdcl_obs::Gauge = cdcl_obs::Gauge::new(
    "cdcl_pool_hit_rate",
    "Fraction of buffer requests served from the pool free lists",
);
static OBS_POOL_RESIDENT: cdcl_obs::Gauge = cdcl_obs::Gauge::new(
    "cdcl_pool_bytes_resident",
    "Bytes currently parked in the pool free lists",
);

/// Mirrors the pool atomics into the `cdcl-obs` registry (same pattern as
/// `kernels::counters::publish_registry`: local relaxed atomics on the hot
/// path, mirrored at scrape or health-snapshot time).
pub fn publish_registry() {
    let snap = pool_stats();
    OBS_ALLOC_BYTES.store(snap.alloc_bytes);
    OBS_POOL_HITS.store(snap.hits);
    OBS_POOL_MISSES.store(snap.misses);
    OBS_POOL_HIT_RATE.set(snap.hit_rate());
    OBS_POOL_RESIDENT.set(snap.resident_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_routing_rounds_up() {
        assert_eq!(class_for_request(1), Some(0));
        assert_eq!(class_for_request(64), Some(0));
        assert_eq!(class_for_request(65), Some(1));
        assert_eq!(class_for_request(128), Some(1));
        assert_eq!(class_for_request(MAX_CLASS), Some(NUM_CLASSES - 1));
        assert_eq!(class_for_request(MAX_CLASS + 1), None);
    }

    #[test]
    fn capacity_routing_rounds_down() {
        assert_eq!(class_for_capacity(63), None);
        assert_eq!(class_for_capacity(64), Some(0));
        assert_eq!(class_for_capacity(127), Some(0));
        assert_eq!(class_for_capacity(128), Some(1));
        // Every recyclable capacity serves any request routed to its class.
        for cap in [64usize, 100, 129, 5000, 1 << 20] {
            let c = class_for_capacity(cap).unwrap();
            assert!(class_size(c) <= cap, "class {c} too big for cap {cap}");
        }
    }

    #[test]
    fn instance_take_give_recycles() {
        let pool = BufferPool::new();
        let v = pool.take_uninit(100);
        assert_eq!(v.len(), 100);
        assert_eq!(pool.stats().misses, 1);
        let cap = v.capacity();
        assert!(cap >= 100);
        pool.give(v);
        assert_eq!(pool.stats().resident_bytes, (cap * 4) as u64);
        let v2 = pool.take_uninit(80);
        assert_eq!(v2.len(), 80);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().resident_bytes, 0);
    }

    #[test]
    fn take_zeroed_is_zero_after_dirty_recycle() {
        let pool = BufferPool::new();
        let mut v = pool.take_uninit(64);
        v.iter_mut().for_each(|x| *x = 7.0);
        pool.give(v);
        let z = pool.take_zeroed(64);
        assert!(z.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn class_cap_bounds_residency() {
        let pool = BufferPool::new();
        let cap = class_cap(0);
        for _ in 0..(cap + 10) {
            pool.give(vec![0.0; MIN_CLASS]);
        }
        let resident = pool.stats().resident_bytes as usize;
        assert!(resident <= cap * MIN_CLASS * 4 * 2);
    }

    #[test]
    fn class_caps_scale_inversely_with_size() {
        assert_eq!(class_cap(0), CLASS_CAP_MAX, "tiny buffers pool deeply");
        assert_eq!(class_cap(NUM_CLASSES - 1), CLASS_CAP_MIN);
        for idx in 1..NUM_CLASSES {
            assert!(
                class_cap(idx) <= class_cap(idx - 1),
                "caps must be monotone"
            );
        }
    }

    #[test]
    fn over_max_class_bypasses() {
        let pool = BufferPool::new();
        let v = pool.take_uninit(MAX_CLASS + 1);
        assert_eq!(v.len(), MAX_CLASS + 1);
        pool.give(v); // capped to MAX_CLASS class by capacity routing
        let after = pool.stats();
        assert_eq!(after.misses, 1);
    }

    #[test]
    fn pooled_buf_roundtrip_and_clone() {
        let mut a = PooledBuf::take_uninit(10);
        a.iter_mut().enumerate().for_each(|(i, x)| *x = i as f32);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        let v = a.into_vec();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn stats_reset_keeps_residency() {
        let pool = BufferPool::new();
        let v = pool.take_uninit(256);
        pool.give(v);
        let resident = pool.stats().resident_bytes;
        pool.reset_stats();
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.resident_bytes, resident);
        pool.clear();
        assert_eq!(pool.stats().resident_bytes, 0);
    }
}
