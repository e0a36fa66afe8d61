//! Execution kernels: blocked, transpose-aware GEMM.
//!
//! Every matrix product in the workspace funnels through the three kernels
//! here:
//!
//! * [`gemm_nn`] — `C += A·B`
//! * [`gemm_nt`] — `C += A·Bᵀ` with `B` stored row-major `[n,k]`
//! * [`gemm_tn`] — `C += Aᵀ·B` with `A` stored row-major `[k,m]`
//!
//! The `nt`/`tn` variants read the transposed operand in its original
//! layout, so callers never materialise a transposed copy: attention scores
//! (`Q·Kᵀ`), linear/matmul backward (`dA = g·Bᵀ`, `dB = Aᵀ·g`), and the
//! conv backward all hit these directly.
//!
//! Every kernel runs on the thread that calls it. The model's GEMMs
//! (d = 32, n = 16–64) are too small to pay for handing work to other
//! threads; callers that want parallelism (the daemons' connection
//! workers) get it one level up, from independent requests.
//!
//! # Determinism
//!
//! All three kernels accumulate each output element with a **single
//! accumulator in ascending inner-index (`p`) order** — the same floating-
//! point rounding sequence as the textbook triple loop. Cache blocking only
//! reorders *which element* is advanced next, never the order of one
//! element's own chain, so results are bitwise identical for any blocking
//! parameters.
//!
//! # Blocking parameters
//!
//! * `nn`/`tn` stream `B` rows; the inner dimension is blocked by
//!   [`KC`] = 256 so the active `KC×n` panel of `B` stays in L1/L2 while it
//!   is swept over all output rows.
//! * `nt` is a row-by-row dot product; `B` rows are blocked by [`JB`] = 64
//!   so a `JB×k` panel of `B` is reused across consecutive output rows.

pub mod counters;

pub use counters::{counter_snapshot, publish_registry, reset_counters, KernelCounters};

/// Inner-dimension (`p`) block size for the streaming kernels.
const KC: usize = 256;

/// `B`-row block size for the dot-product (`nt`) kernel.
const JB: usize = 64;

/// `C[m,n] += A[m,k] · B[k,n]`, one output row at a time.
pub fn gemm_nn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    counters::record_gemm((m * k * n) as u64);
    for (i, row) in out.chunks_mut(n.max(1)).enumerate() {
        gemm_nn_row(row, &a[i * k..(i + 1) * k], b, k, n);
    }
}

/// One output row of `nn`: `row[n] += a_row[k] · B[k,n]`, `p` ascending.
fn gemm_nn_row(row: &mut [f32], a_row: &[f32], b: &[f32], k: usize, n: usize) {
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        for p in p0..p1 {
            let a_ip = a_row[p];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ`, one output row at a time. `B` is read in
/// its stored `[n,k]` layout — no transposed copy exists at any point.
pub fn gemm_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    counters::record_gemm((m * k * n) as u64);
    for (i, row) in out.chunks_mut(n.max(1)).enumerate() {
        gemm_nt_row(row, &a[i * k..(i + 1) * k], b, k);
    }
}

/// One output row of `nt`: `row[j] += dot(a_row, b_row_j)`, `p` ascending.
///
/// Eight `j`-chains are interleaved so the CPU pipelines eight independent
/// FMA streams instead of stalling on one accumulator's latency. Each
/// element still has exactly one accumulator advanced in ascending `p`
/// order, so the bitwise-determinism contract is unchanged.
fn gemm_nt_row(row: &mut [f32], a_row: &[f32], b: &[f32], k: usize) {
    for j0 in (0..row.len()).step_by(JB) {
        let j1 = (j0 + JB).min(row.len());
        let mut j = j0;
        while j + 8 <= j1 {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let b4 = &b[(j + 4) * k..(j + 5) * k];
            let b5 = &b[(j + 5) * k..(j + 6) * k];
            let b6 = &b[(j + 6) * k..(j + 7) * k];
            let b7 = &b[(j + 7) * k..(j + 8) * k];
            let (mut s0, mut s1) = (row[j], row[j + 1]);
            let (mut s2, mut s3) = (row[j + 2], row[j + 3]);
            let (mut s4, mut s5) = (row[j + 4], row[j + 5]);
            let (mut s6, mut s7) = (row[j + 6], row[j + 7]);
            for (p, &x) in a_row.iter().enumerate() {
                s0 += x * b0[p];
                s1 += x * b1[p];
                s2 += x * b2[p];
                s3 += x * b3[p];
                s4 += x * b4[p];
                s5 += x * b5[p];
                s6 += x * b6[p];
                s7 += x * b7[p];
            }
            row[j] = s0;
            row[j + 1] = s1;
            row[j + 2] = s2;
            row[j + 3] = s3;
            row[j + 4] = s4;
            row[j + 5] = s5;
            row[j + 6] = s6;
            row[j + 7] = s7;
            j += 8;
        }
        while j < j1 {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = row[j];
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            row[j] = acc;
            j += 1;
        }
    }
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]`, one output row at a time. `A` is read in
/// its stored `[k,m]` layout — no transposed copy exists at any point.
pub fn gemm_tn(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    counters::record_gemm((m * k * n) as u64);
    for (i, row) in out.chunks_mut(n.max(1)).enumerate() {
        gemm_tn_row(row, a, b, i, k, m, n);
    }
}

/// One output row of `tn`: `row[n] += A[:,i] · B[k,n]`, `p` ascending.
fn gemm_tn_row(row: &mut [f32], a: &[f32], b: &[f32], i: usize, k: usize, m: usize, n: usize) {
    for p0 in (0..k).step_by(KC) {
        let p1 = (p0 + KC).min(k);
        for p in p0..p1 {
            let a_pi = a[p * m + i];
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in row.iter_mut().zip(b_row) {
                *o += a_pi * b_pj;
            }
        }
    }
}

/// Batched `C[b,m,n] += A[b,m,k] · B[b,k,n]`, row by row over all `b·m` output rows.
pub fn gemm_nn_batched(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), batch * m * k);
    debug_assert_eq!(b.len(), batch * k * n);
    debug_assert_eq!(out.len(), batch * m * n);
    counters::record_gemm((batch * m * k * n) as u64);
    for (r, row) in out.chunks_mut(n.max(1)).enumerate() {
        let (bi, i) = (r / m, r % m);
        let a_row = &a[(bi * m + i) * k..(bi * m + i + 1) * k];
        gemm_nn_row(row, a_row, &b[bi * k * n..(bi + 1) * k * n], k, n);
    }
}

/// Batched `C[b,m,n] += A[b,m,k] · B[b,n,k]ᵀ`, row by row over all `b·m` output rows.
pub fn gemm_nt_batched(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), batch * m * k);
    debug_assert_eq!(b.len(), batch * n * k);
    debug_assert_eq!(out.len(), batch * m * n);
    counters::record_gemm((batch * m * k * n) as u64);
    for (r, row) in out.chunks_mut(n.max(1)).enumerate() {
        let (bi, i) = (r / m, r % m);
        let a_row = &a[(bi * m + i) * k..(bi * m + i + 1) * k];
        gemm_nt_row(row, a_row, &b[bi * n * k..(bi + 1) * n * k], k);
    }
}

/// Batched `C[b,m,n] += A[b,k,m]ᵀ · B[b,k,n]`, row by row over all `b·m` output rows.
pub fn gemm_tn_batched(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), batch * k * m);
    debug_assert_eq!(b.len(), batch * k * n);
    debug_assert_eq!(out.len(), batch * m * n);
    counters::record_gemm((batch * m * k * n) as u64);
    for (r, row) in out.chunks_mut(n.max(1)).enumerate() {
        let (bi, i) = (r / m, r % m);
        gemm_tn_row(
            row,
            &a[bi * k * m..(bi + 1) * k * m],
            &b[bi * k * n..(bi + 1) * k * n],
            i,
            k,
            m,
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook triple loop, `p` ascending — the reference
    /// rounding chain every kernel must match bitwise.
    fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values with varied signs.
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h >> 8) as f32 / (1 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn nn_matches_reference_bitwise_across_thread_counts() {
        let (m, k, n) = (17, 300, 13);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let expected = reference_nn(&a, &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_nn(&mut out, &a, &b, m, k, n);
        assert_eq!(out, expected);
    }

    #[test]
    fn nt_matches_transposed_reference_bitwise() {
        let (m, k, n) = (9, 270, 11);
        let a = fill(m * k, 3);
        let b = fill(n * k, 4); // stored [n,k]
        let bt = transpose(&b, n, k); // [k,n]
        let expected = reference_nn(&a, &bt, m, k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_nt(&mut out, &a, &b, m, k, n);
        assert_eq!(out, expected);
    }

    #[test]
    fn tn_matches_transposed_reference_bitwise() {
        let (m, k, n) = (8, 300, 10);
        let a = fill(k * m, 5); // stored [k,m]
        let at = transpose(&a, k, m); // [m,k]
        let b = fill(k * n, 6);
        let expected = reference_nn(&at, &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        gemm_tn(&mut out, &a, &b, m, k, n);
        assert_eq!(out, expected);
    }

    #[test]
    fn batched_kernels_match_per_slice() {
        let (batch, m, k, n) = (3, 5, 40, 7);
        let a = fill(batch * m * k, 7);
        let b = fill(batch * k * n, 8);
        let mut out = vec![0.0f32; batch * m * n];
        gemm_nn_batched(&mut out, &a, &b, batch, m, k, n);
        for bi in 0..batch {
            let expected = reference_nn(
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                m,
                k,
                n,
            );
            assert_eq!(
                &out[bi * m * n..(bi + 1) * m * n],
                &expected[..],
                "batch {bi}"
            );
        }
    }

    #[test]
    fn kernels_accumulate_into_existing_output() {
        let (m, k, n) = (2, 3, 2);
        // Small integers: every product and partial sum is exact in f32, so
        // the two chains below differ by exactly the 1.0 offset.
        let a: Vec<f32> = (1..=(m * k) as i32).map(|v| v as f32).collect();
        let b: Vec<f32> = (1..=(k * n) as i32).map(|v| v as f32).collect();
        let mut base = vec![1.0f32; m * n];
        gemm_nn(&mut base, &a, &b, m, k, n);
        let mut plain = vec![0.0f32; m * n];
        gemm_nn(&mut plain, &a, &b, m, k, n);
        for (x, y) in base.iter().zip(plain.iter()) {
            // Accumulation starts from the existing value, not from zero.
            assert_eq!(*x, 1.0 + *y);
        }
    }
}
