//! Property-based tests for the execution kernels: every GEMM variant must
//! be **bitwise identical** to a naive reference. This is the determinism
//! contract of
//! `cdcl_tensor::kernels` (each output element is reduced by exactly one
//! accumulator in ascending inner-index order), checked with `==` on the
//! raw `f32` data — no tolerances.

use cdcl_tensor::kernels;
use cdcl_tensor::Tensor;
use proptest::prelude::*;

/// Textbook triple loop: `out[i][j] += sum_p a[i][p] * b[p][j]`, summed in
/// ascending `p` order — the exact chain the blocked kernels must follow.
fn reference_nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = x[r * cols + c];
        }
    }
    out
}

/// Strategy: GEMM dimensions spanning the blocking boundaries (KC = 256 is
/// too slow for a proptest case; 1..40 crosses the JB = 64 boundary via the
/// batched variants' row counts instead, and unit dims hit the edge cases).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..40, 1usize..12)
}

proptest! {
    /// `gemm_nn` == reference, bitwise.
    #[test]
    fn gemm_nn_matches_reference_bitwise(
        (m, k, n) in dims(),
        seed in 0u64..1000,
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| fill(seed, i)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| fill(seed ^ 0x9e37, i)).collect();
        let expect = reference_nn(&a, &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        kernels::gemm_nn(&mut out, &a, &b, m, k, n);
        prop_assert_eq!(&out, &expect);
    }

    /// `gemm_nt(A, B)` == reference `A · Bᵀ`, bitwise.
    #[test]
    fn gemm_nt_matches_reference_bitwise(
        (m, k, n) in dims(),
        seed in 0u64..1000,
    ) {
        let a: Vec<f32> = (0..m * k).map(|i| fill(seed, i)).collect();
        // B stored as [n, k]; the reference multiplies its transpose [k, n].
        let b: Vec<f32> = (0..n * k).map(|i| fill(seed ^ 0x51ed, i)).collect();
        let expect = reference_nn(&a, &transpose(&b, n, k), m, k, n);
        let mut out = vec![0.0f32; m * n];
        kernels::gemm_nt(&mut out, &a, &b, m, k, n);
        prop_assert_eq!(&out, &expect);
    }

    /// `gemm_tn(A, B)` == reference `Aᵀ · B`, bitwise.
    #[test]
    fn gemm_tn_matches_reference_bitwise(
        (m, k, n) in dims(),
        seed in 0u64..1000,
    ) {
        // A stored as [k, m]; the reference multiplies its transpose [m, k].
        let a: Vec<f32> = (0..k * m).map(|i| fill(seed, i)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| fill(seed ^ 0xc2b2, i)).collect();
        let expect = reference_nn(&transpose(&a, k, m), &b, m, k, n);
        let mut out = vec![0.0f32; m * n];
        kernels::gemm_tn(&mut out, &a, &b, m, k, n);
        prop_assert_eq!(&out, &expect);
    }

    /// Batched fused tensor ops match explicit transpose-then-matmul,
    /// bitwise (the attention-score shape `[b,n,d]`).
    #[test]
    fn fused_tensor_ops_match_explicit_transpose_bitwise(
        (b, n, d) in (1usize..4, 1usize..8, 1usize..8),
        seed in 0u64..1000,
    ) {
        let x = Tensor::from_vec((0..b * n * d).map(|i| fill(seed, i)).collect(), &[b, n, d]);
        let y = Tensor::from_vec((0..b * n * d).map(|i| fill(seed ^ 0x33, i)).collect(), &[b, n, d]);
        let expect_nt = x.matmul(&y.transpose_last2()); // [b, n, n]
        let expect_tn = x.transpose_last2().matmul(&y); // [b, d, d]
        let (got_nt, got_tn) = (x.matmul_nt(&y), x.matmul_tn(&y));
        prop_assert_eq!(got_nt.data(), expect_nt.data());
        prop_assert_eq!(got_tn.data(), expect_tn.data());
    }
}

/// Deterministic pseudo-random fill (mirrors the unit tests' hash fill):
/// splittable across (seed, index) without any RNG state.
fn fill(seed: u64, i: usize) -> f32 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    ((z % 2000) as f32 - 1000.0) / 250.0
}
