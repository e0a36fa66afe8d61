//! End-to-end determinism: training and evaluating the CDCL learner must be
//! **bitwise identical** whether or not a read-only verifier pass or a
//! checkpoint/resume cycle sits in the middle, checked through the full
//! stack — tokenizer convs, attention GEMMs, autograd backward, optimizer
//! updates, pseudo-labelling, and the chunked evaluation loops.

use cdcl::autograd::Graph;
use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, MnistUspsDirection, Scale};
use cdcl::nn::Module;
use cdcl::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Trains two tasks and returns the final parameter tensors plus both TIL
/// accuracies.
fn train_two_tasks() -> (Vec<(String, Vec<f32>)>, f64, f64) {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    for task in stream.tasks.iter().take(2) {
        trainer.learn_task(task);
    }
    let acc0 = trainer.eval_til(0, &stream.tasks[0].target_test);
    let acc1 = trainer.eval_til(1, &stream.tasks[1].target_test);
    let params = trainer
        .model()
        .params()
        .into_iter()
        .map(|p| (p.name(), p.value().data().to_vec()))
        .collect();
    (params, acc0, acc1)
}

/// The graph verifier is always compiled in: the trainer runs it once per
/// task under the `graph_check` span, and debug builds re-check shapes on
/// every backward. It is a pure observer, so a run that additionally
/// records and verifies a fresh forward graph after every task must still
/// produce bitwise-identical parameters and accuracies (DESIGN.md §9).
#[test]
fn extra_verifier_passes_leave_training_bitwise_unchanged() {
    let (base_params, base_acc0, base_acc1) = train_two_tasks();

    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    let mut rng = SmallRng::seed_from_u64(99);
    for (t, task) in stream.tasks.iter().take(2).enumerate() {
        trainer.learn_task(task);
        // Record a forward graph through the just-learned task and verify
        // it — no backward, so the pass is read-only by construction.
        let model = trainer.model();
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&mut rng, &[2, 1, 16, 16], 1.0));
        let z = model.features_self(&mut g, x, t);
        let til = model.til_logits(&mut g, z, t);
        let lp = g.log_softmax_last(til);
        let loss = g.nll_loss(lp, &[0, 1]);
        g.verify(loss, &model.expected_frozen_params())
            .unwrap_or_else(|e| panic!("mid-stream verify failed after task {t}: {e}"));
    }
    let acc0 = trainer.eval_til(0, &stream.tasks[0].target_test);
    let acc1 = trainer.eval_til(1, &stream.tasks[1].target_test);

    assert_eq!(acc0, base_acc0);
    assert_eq!(acc1, base_acc1);
    for ((name, value), p) in base_params.iter().zip(trainer.model().params()) {
        assert_eq!(name, &p.name());
        assert_eq!(
            value,
            p.value().data(),
            "param {name} perturbed by verifier passes"
        );
    }
}

/// The crash-safety contract (DESIGN.md §10): training interrupted at a
/// task boundary and resumed from its checkpoint must finish **bitwise
/// identical** — every parameter and every accuracy — to a run that was
/// never interrupted. The snapshot carries the RNG state and the optimizer
/// moments precisely so the resumed stream picks up mid-sequence without
/// the slightest divergence; a cross-process variant of this assertion
/// (with a real kill between phases) runs in CI as `persistence-smoke`.
#[test]
fn interrupted_then_resumed_training_is_bitwise_identical() {
    let (base_params, base_acc0, base_acc1) = train_two_tasks();

    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;

    // Phase 1: train task 0 only, checkpoint to disk, and drop the trainer
    // — everything except the snapshot file dies with it.
    let dir = std::env::temp_dir().join(format!("cdcl-det-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let ckpt = dir.join("task000.cdclsnap");
    {
        let mut trainer = CdclTrainer::new(config);
        trainer.learn_task(&stream.tasks[0]);
        trainer.save_snapshot(&ckpt).expect("write checkpoint");
    }

    // Phase 2: resume from the checkpoint and finish the stream.
    let mut resumed = CdclTrainer::resume_from(&ckpt)
        .unwrap_or_else(|e| panic!("resume from {}: {e}", ckpt.display()));
    resumed.learn_task(&stream.tasks[1]);
    let acc0 = resumed.eval_til(0, &stream.tasks[0].target_test);
    let acc1 = resumed.eval_til(1, &stream.tasks[1].target_test);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(acc0, base_acc0, "eval_til(0) diverged after resume");
    assert_eq!(acc1, base_acc1, "eval_til(1) diverged after resume");
    let params = resumed.model().params();
    assert_eq!(params.len(), base_params.len());
    for ((name, value), p) in base_params.iter().zip(params) {
        assert_eq!(name, &p.name());
        assert_eq!(
            value,
            p.value().data(),
            "param {name} diverged after checkpoint/resume"
        );
    }
}
