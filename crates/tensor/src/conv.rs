//! 2-D convolution and max-pooling over NCHW tensors.
//!
//! `conv2d` is implemented by `im2col` + GEMM — the standard CPU strategy —
//! and the [`Im2col`] buffer is exposed so the autograd layer can reuse it in
//! the backward pass instead of recomputing it.
//!
//! The unroll, the per-image GEMM, and the scatter-back adjoint each walk
//! the batch one image at a time, writing that image's slice of the output.

use crate::kernels;
use crate::pool::PooledBuf;
use crate::Tensor;

/// Static parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Kernel height/width (square kernels only — all the paper's tokenizers
    /// use square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.padding >= self.kernel && w + 2 * self.padding >= self.kernel,
            "conv2d kernel {} larger than padded input {}x{}",
            self.kernel,
            h + 2 * self.padding,
            w + 2 * self.padding
        );
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }
}

/// Static parameters of a max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dSpec {
    /// Pooling window (square).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
}

impl Pool2dSpec {
    /// Output spatial size for an input of `(h, w)`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h >= self.kernel && w >= self.kernel,
            "pool kernel {} larger than input {h}x{w}",
            self.kernel
        );
        (
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        )
    }
}

/// The unrolled-patch matrix of one conv2d call, kept for the backward pass.
///
/// Layout: `[batch, c_in * k * k, out_h * out_w]` flattened per image, i.e.
/// for each image, `cols` is a `(c_in·k·k) × (out_h·out_w)` matrix.
pub struct Im2col {
    /// Unrolled patches per image.
    pub cols: Tensor,
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub c_in: usize,
    /// Input spatial size.
    pub in_hw: (usize, usize),
    /// Output spatial size.
    pub out_hw: (usize, usize),
    /// Conv parameters.
    pub spec: Conv2dSpec,
}

/// Result of a max-pool forward: values plus the flat input index each output
/// element came from (for routing gradients).
pub struct MaxPoolResult {
    /// Pooled tensor `[b, c, oh, ow]`.
    pub out: Tensor,
    /// For each output element, the flat index into the input buffer that
    /// produced it.
    pub argmax: Vec<usize>,
}

/// Unrolls `x: [b, c, h, w]` into patch columns.
pub fn im2col(x: &Tensor, spec: Conv2dSpec) -> Im2col {
    assert_eq!(x.ndim(), 4, "conv2d expects NCHW, got {:?}", x.shape());
    let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let k = spec.kernel;
    let col_rows = c * k * k;
    let col_cols = oh * ow;
    // Every element (including zero padding) is written below, so the
    // recycled buffer needs no fill.
    let mut cols = PooledBuf::take_uninit(b * col_rows * col_cols);
    let xd = x.data();
    for (bi, dst) in cols.chunks_mut(col_rows * col_cols).enumerate() {
        let img = &xd[bi * c * h * w..(bi + 1) * c * h * w];
        for ci in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    let row = (ci * k + ki) * k + kj;
                    for oi in 0..oh {
                        let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                        for oj in 0..ow {
                            let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                            let v = if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w
                            {
                                img[ci * h * w + ii as usize * w + jj as usize]
                            } else {
                                0.0
                            };
                            dst[row * col_cols + oi * ow + oj] = v;
                        }
                    }
                }
            }
        }
    }
    Im2col {
        cols: Tensor::from_buf(cols, &[b, col_rows, col_cols]),
        batch: b,
        c_in: c,
        in_hw: (h, w),
        out_hw: (oh, ow),
        spec,
    }
}

/// Scatters patch-column gradients back to input-image gradients — the
/// adjoint of [`im2col`].
pub fn col2im(cols_grad: &Tensor, info: &Im2col) -> Tensor {
    let (b, c) = (info.batch, info.c_in);
    let (h, w) = info.in_hw;
    let (oh, ow) = info.out_hw;
    let k = info.spec.kernel;
    let col_rows = c * k * k;
    let col_cols = oh * ow;
    assert_eq!(cols_grad.shape(), &[b, col_rows, col_cols]);
    // The scatter below *accumulates*, so zero is the semantic initial value.
    let mut out = PooledBuf::take_zeroed(b * c * h * w);
    let gd = cols_grad.data();
    for (bi, img) in out.chunks_mut(c * h * w).enumerate() {
        let src = &gd[bi * col_rows * col_cols..(bi + 1) * col_rows * col_cols];
        for ci in 0..c {
            for ki in 0..k {
                for kj in 0..k {
                    let row = (ci * k + ki) * k + kj;
                    for oi in 0..oh {
                        let ii = (oi * info.spec.stride + ki) as isize - info.spec.padding as isize;
                        if ii < 0 || ii as usize >= h {
                            continue;
                        }
                        for oj in 0..ow {
                            let jj =
                                (oj * info.spec.stride + kj) as isize - info.spec.padding as isize;
                            if jj < 0 || jj as usize >= w {
                                continue;
                            }
                            img[ci * h * w + ii as usize * w + jj as usize] +=
                                src[row * col_cols + oi * ow + oj];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_buf(out, &[b, c, h, w])
}

impl Tensor {
    /// 2-D convolution. `self: [b, c_in, h, w]`, `weight: [c_out, c_in, k, k]`,
    /// optional `bias: [c_out]`. Returns `([b, c_out, oh, ow], im2col)`; the
    /// returned [`Im2col`] lets callers run the backward pass cheaply.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> (Tensor, Im2col) {
        // Ranks, kernel/channel agreement, and the bias shape all validated
        // through the shared inference rules (crate::check), so a runtime
        // violation prints exactly what the graph verifier would.
        crate::check::enforce_shape(crate::check::infer_conv2d(
            self.shape(),
            weight.shape(),
            bias.map(Tensor::shape),
            &spec,
        ));
        let (c_out, c_in) = (weight.shape()[0], weight.shape()[1]);
        let info = im2col(self, spec);
        let (oh, ow) = info.out_hw;
        let b = info.batch;
        // weight as [c_out, c_in*k*k] × cols [b, c_in*k*k, oh*ow], written
        // straight into each image's output slice (no per-image allocation).
        let kk = c_in * spec.kernel * spec.kernel;
        let w2 = weight.reshape(&[c_out, kk]);
        let mut out = Tensor::zeros(&[b, c_out, oh * ow]);
        let cols = info.cols.data();
        for (bi, dst) in out.data_mut().chunks_mut(c_out * oh * ow).enumerate() {
            let cols_i = &cols[bi * kk * oh * ow..(bi + 1) * kk * oh * ow];
            kernels::gemm_nn(dst, w2.data(), cols_i, c_out, kk, oh * ow);
        }
        let mut out = out.reshape(&[b, c_out, oh, ow]);
        if let Some(bias) = bias {
            let bd = bias.data();
            let od = out.data_mut();
            for bi in 0..b {
                for (co, &bv) in bd.iter().enumerate() {
                    let base = (bi * c_out + co) * oh * ow;
                    for v in &mut od[base..base + oh * ow] {
                        *v += bv;
                    }
                }
            }
        }
        (out, info)
    }

    /// Max pooling over `self: [b, c, h, w]`.
    pub fn maxpool2d(&self, spec: Pool2dSpec) -> MaxPoolResult {
        crate::check::enforce_shape(crate::check::infer_maxpool2d(self.shape(), &spec));
        let (b, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (oh, ow) = spec.out_hw(h, w);
        let mut out = PooledBuf::take_uninit(b * c * oh * ow);
        let mut argmax = vec![0usize; b * c * oh * ow];
        let xd = self.data();
        for bi in 0..b {
            for ci in 0..c {
                let base = (bi * c + ci) * h * w;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ki in 0..spec.kernel {
                            for kj in 0..spec.kernel {
                                let ii = oi * spec.stride + ki;
                                let jj = oj * spec.stride + kj;
                                let idx = base + ii * w + jj;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = (bi * c + ci) * oh * ow + oi * ow + oj;
                        out[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        MaxPoolResult {
            out: Tensor::from_buf(out, &[b, c, oh, ow]),
            argmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Direct (quadruple-loop) convolution for cross-checking im2col+GEMM.
    fn conv2d_naive(x: &Tensor, w: &Tensor, b: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
        let (bs, c_in, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let c_out = w.shape()[0];
        let (oh, ow) = spec.out_hw(h, wd);
        let mut out = Tensor::zeros(&[bs, c_out, oh, ow]);
        for bi in 0..bs {
            for co in 0..c_out {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = b.map_or(0.0, |b| b.data()[co]);
                        for ci in 0..c_in {
                            for ki in 0..spec.kernel {
                                for kj in 0..spec.kernel {
                                    let ii =
                                        (oi * spec.stride + ki) as isize - spec.padding as isize;
                                    let jj =
                                        (oj * spec.stride + kj) as isize - spec.padding as isize;
                                    if ii < 0 || jj < 0 || ii as usize >= h || jj as usize >= wd {
                                        continue;
                                    }
                                    acc += x.at(&[bi, ci, ii as usize, jj as usize])
                                        * w.at(&[co, ci, ki, kj]);
                                }
                            }
                        }
                        let idx = ((bi * c_out + co) * oh + oi) * ow + oj;
                        out.data_mut()[idx] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_naive_reference() {
        let mut rng = SmallRng::seed_from_u64(21);
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = Conv2dSpec {
                kernel: 3,
                stride,
                padding,
            };
            let x = Tensor::randn(&mut rng, &[2, 3, 8, 8], 1.0);
            let w = Tensor::randn(&mut rng, &[4, 3, 3, 3], 0.5);
            let b = Tensor::randn(&mut rng, &[4], 0.5);
            let (got, _) = x.conv2d(&w, Some(&b), spec);
            let want = conv2d_naive(&x, &w, Some(&b), spec);
            assert_eq!(got.shape(), want.shape());
            assert_close(got.data(), want.data(), 1e-3);
        }
    }

    #[test]
    fn conv2d_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 on a single channel copies the image.
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let (y, _) = x.conv2d(
            &w,
            None,
            Conv2dSpec {
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        );
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv2d_output_shape() {
        let spec = Conv2dSpec {
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        assert_eq!(spec.out_hw(28, 28), (14, 14));
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(spec.out_hw(16, 16), (16, 16));
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), g> == <x, col2im(g)> — the defining adjoint property.
        let mut rng = SmallRng::seed_from_u64(22);
        let spec = Conv2dSpec {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let x = Tensor::randn(&mut rng, &[2, 2, 6, 6], 1.0);
        let info = im2col(&x, spec);
        let g = Tensor::randn(&mut rng, info.cols.shape(), 1.0);
        let lhs: f32 = info
            .cols
            .data()
            .iter()
            .zip(g.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&g, &info);
        let rhs: f32 = x
            .data()
            .iter()
            .zip(back.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_values_and_indices() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let r = x.maxpool2d(Pool2dSpec {
            kernel: 2,
            stride: 2,
        });
        assert_eq!(r.out.shape(), &[1, 1, 2, 2]);
        assert_eq!(r.out.data(), &[4.0, 8.0, 12.0, 16.0]);
        assert_eq!(r.argmax, vec![5, 7, 13, 15]);
    }

    #[test]
    fn maxpool_overlapping_windows() {
        let x = Tensor::from_vec((0..9).map(|v| v as f32).collect(), &[1, 1, 3, 3]);
        let r = x.maxpool2d(Pool2dSpec {
            kernel: 2,
            stride: 1,
        });
        assert_eq!(r.out.shape(), &[1, 1, 2, 2]);
        assert_eq!(r.out.data(), &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv2d_channel_mismatch_panics() {
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let w = Tensor::zeros(&[1, 3, 3, 3]);
        x.conv2d(
            &w,
            None,
            Conv2dSpec {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        );
    }
}
