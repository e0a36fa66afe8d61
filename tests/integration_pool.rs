//! Buffer-pool contract, end to end (DESIGN.md §12): recycling tensor
//! storage through the size-classed pool must be **bitwise invisible** —
//! the pool decides where buffers live, never what a caller reads from
//! them — must actually hit in steady state, and a warmed training step
//! on a persistent tape must allocate nothing through the pool at all.
//!
//! Everything runs inside one `#[test]` so the process-wide
//! `CDCL_POOL`-style runtime toggle and the global pool counters are never
//! raced by a sibling test thread.

use cdcl::autograd::Graph;
use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, MnistUspsDirection, Scale};
use cdcl::nn::{Backbone, BackboneConfig, Module, TilHeads};
use cdcl::optim::{Optimizer, Sgd};
use cdcl::tensor::{kernels, pool, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Trains two tasks single-threaded and returns the final parameters, both
/// TIL accuracies, and the pool-counter delta over the *second* task — the
/// steady-state window, after task 0 has warmed the free lists.
fn train() -> (Vec<(String, Vec<f32>)>, f64, f64, pool::PoolStats) {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    trainer.learn_task(&stream.tasks[0]);
    let warm = pool::pool_stats();
    trainer.learn_task(&stream.tasks[1]);
    let steady = pool::pool_stats().delta_since(&warm);
    let acc0 = trainer.eval_til(0, &stream.tasks[0].target_test);
    let acc1 = trainer.eval_til(1, &stream.tasks[1].target_test);
    let params = trainer
        .model()
        .params()
        .into_iter()
        .map(|p| (p.name(), p.value().data().to_vec()))
        .collect();
    (params, acc0, acc1, steady)
}

/// Pool-counter delta over `MEASURED_STEPS` training steps taken after
/// `WARMUP_STEPS` warm-up steps. The rig is the trainer's step loop in
/// miniature: one persistent [`Graph`] reset between steps, the default
/// backbone (16×16 input, conv tokenizer, 2-layer task-keyed encoder,
/// `d = 32`) + TIL head, nll loss, backward and an SGD update, on a batch
/// of 8 images.
fn steady_state_step_allocations() -> pool::PoolStats {
    const BATCH: usize = 8;
    const CLASSES: usize = 4;
    const WARMUP_STEPS: usize = 5;
    const MEASURED_STEPS: usize = 20;

    let mut rng = SmallRng::seed_from_u64(7);
    let config = BackboneConfig::default();
    let (channels, hw, embed) = (config.in_channels, config.in_hw, config.embed_dim);
    let mut backbone = Backbone::new(&mut rng, config);
    backbone.add_task(&mut rng);
    let mut heads = TilHeads::new(embed);
    heads.add_task(&mut rng, CLASSES);
    let mut params = backbone.params();
    params.extend(heads.params());
    let mut opt = Sgd::new(params, 0.9);
    let img = Tensor::randn(&mut rng, &[BATCH, channels, hw.0, hw.1], 1.0);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % CLASSES).collect();
    let mut graph = Graph::new();

    let mut step = || {
        graph.reset_for_step();
        let x = graph.input(img.clone());
        let z = backbone.features_self(&mut graph, x, 0);
        let logits = heads.forward(&mut graph, z, 0);
        let lp = graph.log_softmax_last(logits);
        let loss = graph.nll_loss(lp, &labels);
        graph.backward(loss);
        opt.step(0.05);
        opt.zero_grad();
        assert!(graph.value(loss).all_finite(), "training step diverged");
    };
    for _ in 0..WARMUP_STEPS {
        step();
    }
    let before = pool::pool_stats();
    for _ in 0..MEASURED_STEPS {
        step();
    }
    pool::pool_stats().delta_since(&before)
}

#[test]
fn pooled_and_plain_allocation_are_bitwise_identical_and_pool_hits() {
    kernels::set_num_threads(1);

    // A: pool on (the default). Task 0 warms the free lists; the delta
    // over task 1 is the steady-state window.
    pool::set_enabled(true);
    let (pooled_params, pooled_acc0, pooled_acc1, steady) = train();
    assert!(
        steady.hits + steady.misses > 0,
        "training never touched the pool — the storage plumbing is broken"
    );
    assert!(
        steady.hit_rate() >= 0.90,
        "steady-state pool hit rate {:.4} below the 90% contract \
         ({} hits / {} misses)",
        steady.hit_rate(),
        steady.hits,
        steady.misses
    );

    // B: pool off — every buffer is a fresh heap Vec, as under CDCL_POOL=0.
    pool::set_enabled(false);
    let (plain_params, plain_acc0, plain_acc1, _) = train();
    pool::set_enabled(true);
    kernels::set_num_threads(0);

    assert_eq!(
        pooled_acc0, plain_acc0,
        "eval_til(0) diverged with pool off"
    );
    assert_eq!(
        pooled_acc1, plain_acc1,
        "eval_til(1) diverged with pool off"
    );
    assert_eq!(pooled_params.len(), plain_params.len());
    for ((name, pooled), (plain_name, plain)) in pooled_params.iter().zip(plain_params.iter()) {
        assert_eq!(name, plain_name);
        // Bitwise equality on the raw f32 data — no tolerance. Any read of
        // recycled-buffer garbage anywhere in the stack shows up here.
        assert_eq!(pooled, plain, "param {name} diverged with pool off");
    }

    // C: the zero-allocation steady state, at the default (or
    // CDCL_THREADS) thread count, with the pool switched on explicitly so
    // the contract also holds under CDCL_POOL=0.
    pool::set_enabled(true);
    let steps = steady_state_step_allocations();
    assert!(steps.hits > 0, "the training step never touched the pool");
    assert_eq!(
        (steps.misses, steps.alloc_bytes),
        (0, 0),
        "a warmed training step allocated through the pool ({} hits)",
        steps.hits
    );
}
