//! The paper's §IV-D cost claim as an exact count: a forward pass costs
//! `O(n·L_c + (d·n² + n·d²)·L_a)`. Every matrix product in the stack goes
//! through the counted GEMM kernels, so one `features_self` call on one
//! image must add exactly the fused multiply-adds its layer shapes imply,
//! at every point of an `(n, d, L_a)` grid. No tolerance: a changed count
//! means the model computes something other than the formula says.
//!
//! A test binary of its own, with a single `#[test]`, because the kernel
//! counters are process-global and a sibling test would add to them.

use cdcl_autograd::Graph;
use cdcl_nn::{AttentionMode, Backbone, BackboneConfig};
use cdcl_tensor::kernels::counter_snapshot;
use cdcl_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Tokenizer conv kernel size `k`.
const KERNEL: usize = 3;
/// MLP expansion ratio `r`.
const MLP_RATIO: usize = 2;

/// The tokenizer's `L_c = 2` stages as im2col GEMMs: a `k×k` same-padded
/// convolution from `c_in` to `c_out` channels over an `h×h` map costs
/// `c_out · (c_in·k²) · h²`, and each stage's 2×2 max-pool halves `h`.
/// The first stage emits `d/2` channels, the last `d`. Linear in the
/// pixel count — the `n·L_c` term.
fn tokenizer_fmas(hw: usize, d: usize) -> usize {
    let (mut c_in, mut h, mut total) = (1, hw, 0);
    for c_out in [d / 2, d] {
        total += c_out * c_in * KERNEL * KERNEL * h * h;
        c_in = c_out;
        h /= 2;
    }
    total
}

/// One encoder layer on `n` tokens of width `d`:
/// * `3·n·d²` — the `W_q`, `W_v` and task-key `K_i` projections;
/// * `n·d` — the task-bias projection `b_i` (`d → 1`);
/// * `2·n²·d` — `Q·K_iᵀ` and `attn·V`;
/// * `2·r·n·d²` — the MLP, `d → r·d → d`.
fn encoder_layer_fmas(n: usize, d: usize) -> usize {
    3 * n * d * d + n * d + 2 * n * n * d + 2 * MLP_RATIO * n * d * d
}

/// Sequence pooling: the `d → 1` scoring map and the `1×n · n×d` weighted
/// sum, `n·d` each.
fn seqpool_fmas(n: usize, d: usize) -> usize {
    2 * n * d
}

#[test]
fn forward_gemm_volume_matches_the_section_iv_d_cost_formula() {
    for hw in [16, 32, 64] {
        for d in [16, 32, 64] {
            for depth in [1, 2, 4] {
                let mut rng = SmallRng::seed_from_u64(7);
                let config = BackboneConfig {
                    in_channels: 1,
                    in_hw: (hw, hw),
                    embed_dim: d,
                    depth,
                    tokenizer_stages: 2,
                    tokenizer_kernel: KERNEL,
                    mlp_ratio: MLP_RATIO,
                    attention: AttentionMode::TaskKeyed,
                    attn_softmax: true,
                };
                let mut backbone = Backbone::new(&mut rng, config);
                backbone.add_task(&mut rng);
                let img = Tensor::randn(&mut rng, &[1, 1, hw, hw], 1.0);
                let n = (hw / 4) * (hw / 4);
                assert_eq!(backbone.token_count(), n, "hw {hw}");

                let mut g = Graph::new();
                let x = g.input(img);
                let before = counter_snapshot();
                let z = backbone.features_self(&mut g, x, 0);
                let fmas = counter_snapshot().delta_since(&before).gemm_fmas;
                assert_eq!(g.value(z).shape(), &[1, d]);

                let expected =
                    tokenizer_fmas(hw, d) + depth * encoder_layer_fmas(n, d) + seqpool_fmas(n, d);
                assert_eq!(
                    fmas, expected as u64,
                    "GEMM volume at n = {n}, d = {d}, L_a = {depth}"
                );
            }
        }
    }
}
