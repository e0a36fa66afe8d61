//! Buffer-pool contract, end to end (DESIGN.md §12): recycling tensor
//! storage through the size-classed pool must be **bitwise invisible** —
//! the pool decides where buffers live, never what a caller reads from
//! them — must actually hit in steady state, and a warmed training step
//! on a persistent tape must allocate nothing through the pool at all and
//! an exact, fixed number of blocks from the heap.
//!
//! Everything runs inside one `#[test]` so the process-wide
//! `CDCL_POOL`-style runtime toggle and the global pool counters are never
//! raced by a sibling test thread.

use cdcl::autograd::Graph;
use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, MnistUspsDirection, Scale};
use cdcl::nn::{Backbone, BackboneConfig, Module, TilHeads};
use cdcl::optim::{Optimizer, Sgd};
use cdcl::tensor::{pool, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) per warmed
/// training step of the rig in [`steady_state_step_allocations`]. Kernels
/// run on the calling thread, so every allocation the step makes is
/// counted.
/// None of them is f32 tensor storage (that goes through the pool, whose
/// misses are asserted to be 0 separately): all but 612 are the index
/// `Vec` that `unravel` builds for each element of a broadcast in
/// `Tensor::binary` and `reduce_to_shape`. Debug builds also run the shape
/// verifier at the start of every backward (`Graph::backward`), which
/// allocates 145 more.
const HEAP_ALLOCS_PER_STEP: u64 = if cfg!(debug_assertions) {
    144_597
} else {
    144_452
};

std::thread_local! {
    /// Set only on the thread being measured.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Heap allocations that thread made while `COUNTING` was set.
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls made by a measuring thread.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: the allocator also runs while thread-locals are torn
        // down, when there is nothing left to count.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                HEAP_ALLOCS.with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every call forwards to `System` unchanged; the counting touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes inside `f`.
fn heap_allocs_during(f: impl FnOnce()) -> u64 {
    HEAP_ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    HEAP_ALLOCS.with(Cell::get)
}

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
/// `WARMUP_STEPS` warm-up steps, and the heap allocations of each measured
/// step. The rig is the trainer's step loop in
/// miniature: one persistent [`Graph`] reset between steps, the default
/// backbone (16×16 input, conv tokenizer, 2-layer task-keyed encoder,
/// `d = 32`) + TIL head, nll loss, backward and an SGD update, on a batch
/// of 8 images.
fn steady_state_step_allocations() -> (pool::PoolStats, Vec<u64>) {
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
    let heap: Vec<u64> = (0..MEASURED_STEPS)
        .map(|_| heap_allocs_during(&mut step))
        .collect();
    (pool::pool_stats().delta_since(&before), heap)
}

#[test]
fn pooled_and_plain_allocation_are_bitwise_identical_and_pool_hits() {
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

    // C: the zero-allocation steady state, with the pool switched on
    // explicitly so the contract also holds under CDCL_POOL=0.
    pool::set_enabled(true);
    let (steps, heap) = steady_state_step_allocations();
    assert!(steps.hits > 0, "the training step never touched the pool");
    assert_eq!(
        (steps.misses, steps.alloc_bytes),
        (0, 0),
        "a warmed training step allocated through the pool ({} hits)",
        steps.hits
    );
    assert!(
        heap.iter().all(|&n| n == HEAP_ALLOCS_PER_STEP),
        "heap allocations per warmed step: {heap:?}, expected {HEAP_ALLOCS_PER_STEP} each"
    );
}
