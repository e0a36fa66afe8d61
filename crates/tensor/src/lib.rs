//! Dense `f32` tensor kernels for the CDCL reproduction.
//!
//! This crate is the numeric substrate underneath everything else in the
//! workspace: it provides a contiguous, row-major, CPU-only tensor type with
//! exactly the operator set the paper's model needs — broadcasting
//! element-wise arithmetic, 2-D and batched matrix multiplication (plain and
//! transpose-fused), `conv2d` and `maxpool2d` (via `im2col`),
//! numerically-stable softmax family reductions, and seeded random
//! initialisation.
//!
//! Design notes (see `DESIGN.md` at the workspace root):
//!
//! * Tensors are **always contiguous**. General permutations copy, but the
//!   hot transpose patterns never do: `A·Bᵀ` and `Aᵀ·B` go through the
//!   fused [`Tensor::matmul_nt`] / [`Tensor::matmul_tn`] kernels, which
//!   read the transposed operand in its stored layout. Only genuinely
//!   layout-changing permutations (e.g. `[b,d,n] -> [b,n,d]` after the
//!   tokenizer) still materialise a copy.
//! * Heavy kernels (GEMM, `im2col` convolution) run on the **calling
//!   thread** and reduce every output element in one fixed order, so a
//!   given input always produces the same bits. The model's matrices are
//!   too small to pay for spreading one call over threads; the daemons get
//!   their parallelism from concurrent connection workers instead.
//! * Shapes are checked eagerly and violations panic with a descriptive
//!   message. Shape errors in a training loop are programming bugs, not
//!   recoverable conditions, mirroring the convention of mainstream numeric
//!   libraries.
//! * All randomness flows through caller-provided [`rand::Rng`] values so
//!   every experiment in the workspace is reproducible from a `u64` seed.
//!
//! # Quick example
//!
//! ```
//! use cdcl_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! let s = c.softmax_last();
//! assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
//! ```

pub mod check;
mod conv;
pub mod kernels;
mod matmul;
pub mod pool;
mod reduce;
mod shape;
mod tensor;

pub use check::ShapeError;
pub use conv::{col2im, im2col, Conv2dSpec, Im2col, MaxPoolResult, Pool2dSpec};
pub use pool::{PoolStats, PooledBuf};
pub use shape::{broadcast_shapes, num_elements, strides_for, Shape};
pub use tensor::Tensor;

/// Absolute tolerance used by the crate's own tests when comparing floats.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts that two float slices are element-wise close; used across the
/// workspace's test suites.
pub fn assert_close(actual: &[f32], expected: &[f32], tol: f32) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert!((a - e).abs() <= tol, "element {i}: {a} vs {e} (tol {tol})");
    }
}
