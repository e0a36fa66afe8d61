//! Property tests of the graph verifier (DESIGN.md §9): for randomly built
//! graphs, the shape `Graph::check_shapes` *infers* for every node must
//! equal the shape the kernels actually *executed*.

use cdcl_autograd::{Graph, Param, Var};
use cdcl_tensor::{Conv2dSpec, Pool2dSpec, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Op codes drawn by proptest; each grows the chain by one node while
/// keeping the running value rank-2 so every op stays applicable.
const OP_KINDS: usize = 10;

/// Applies op `code` to `cur` (shape `[r, c]`), returning the new var and
/// its new (r, c). Extra leaves are fed from `rng` so values vary per case.
fn apply_op(
    g: &mut Graph,
    rng: &mut SmallRng,
    cur: Var,
    r: usize,
    c: usize,
    code: usize,
) -> (Var, usize, usize) {
    match code % OP_KINDS {
        0 => (g.relu(cur), r, c),
        1 => (g.gelu(cur), r, c),
        2 => (g.softmax_last(cur), r, c),
        3 => {
            let other = g.input(Tensor::randn(rng, &[r, c], 0.5));
            (g.add(cur, other), r, c)
        }
        4 => {
            let other = g.input(Tensor::randn(rng, &[r, c], 0.5));
            (g.mul(cur, other), r, c)
        }
        5 => {
            let other = g.input(Tensor::randn(rng, &[r, c], 0.5));
            (g.sub(cur, other), r, c)
        }
        6 => {
            let c2 = 1 + (code / OP_KINDS) % 3;
            let w = g.input(Tensor::randn(rng, &[c, c2], 0.5));
            (g.matmul(cur, w), r, c2)
        }
        7 => {
            let r2 = 1 + (code / OP_KINDS) % 3;
            let w = g.input(Tensor::randn(rng, &[r2, c], 0.5));
            (g.matmul_nt(cur, w), r, r2)
        }
        8 => (g.transpose_last2(cur), c, r),
        _ => (g.reshape(cur, &[c, r]), c, r),
    }
}

/// Builds a random op chain and returns `(graph, loss)`.
fn build_chain(seed: u64, r0: usize, c0: usize, codes: &[usize]) -> (Graph, Var) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let p = Param::new("chain.p", Tensor::randn(&mut rng, &[r0, c0], 0.5));
    let mut cur = g.param(&p);
    let (mut r, mut c) = (r0, c0);
    for &code in codes {
        let (next, nr, nc) = apply_op(&mut g, &mut rng, cur, r, c, code);
        cur = next;
        r = nr;
        c = nc;
    }
    // Join through concat + softmax so the tail exercises the multi-input
    // and last-axis rules too, then reduce to a scalar loss.
    let doubled = g.concat0(&[cur, cur]);
    let lp = g.log_softmax_last(doubled);
    let s = g.sum_last(lp);
    let loss = g.mean_all(s);
    (g, loss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any random chain, the verifier's inferred shapes agree with the
    /// executed node shapes.
    #[test]
    fn inferred_shapes_match_executed_at_any_thread_count(
        seed in 0u64..1000,
        r0 in 1usize..4,
        c0 in 1usize..4,
        codes in prop::collection::vec(0usize..30, 1..8),
    ) {
        let (mut g, loss) = build_chain(seed, r0, c0, &codes);
        // Inference must agree with what the kernels produced…
        prop_assert!(g.check_shapes().is_ok());
        // …and stay valid after backward extends nothing but grads.
        g.backward(loss);
        prop_assert!(g.check_shapes().is_ok(), "post-backward");
    }

    /// Same property through the conv → pool → flatten → classifier path,
    /// whose inference rules (im2col spec, argmax bookkeeping) are the most
    /// intricate in the verifier.
    #[test]
    fn conv_pool_chain_inference_matches_execution(
        seed in 0u64..1000,
        batch in 1usize..3,
        cin in 1usize..3,
        cout in 1usize..4,
        side in 6usize..10,
        kernel in 2usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&mut rng, &[batch, cin, side, side], 0.5));
        let w = g.input(Tensor::randn(&mut rng, &[cout, cin, kernel, kernel], 0.5));
        let b = g.input(Tensor::randn(&mut rng, &[cout], 0.5));
        let spec = Conv2dSpec { kernel, stride: 1, padding: 1 };
        let y = g.conv2d(x, w, Some(b), spec);
        let y = g.relu(y);
        let y = g.maxpool2d(y, Pool2dSpec { kernel: 2, stride: 2 });
        let conv_side = side + 2 - kernel + 1;
        let out_side = (conv_side - 2) / 2 + 1;
        let flat = g.reshape(y, &[batch, cout * out_side * out_side]);
        let head = g.input(Tensor::randn(&mut rng, &[cout * out_side * out_side, 3], 0.5));
        let logits = g.matmul(flat, head);
        let lp = g.log_softmax_last(logits);
        let targets: Vec<usize> = (0..batch).map(|i| i % 3).collect();
        let loss = g.nll_loss(lp, &targets);
        prop_assert!(g.check_shapes().is_ok());
        g.backward(loss);
        prop_assert!(g.check_shapes().is_ok(), "post-backward");
    }
}
