//! End-to-end snapshot persistence (DESIGN.md §10): a trained CDCL learner
//! round-trips through the versioned container **losslessly** — save →
//! load → save reproduces the exact bytes, and a restored learner's
//! TIL/CIL predictions are bitwise-identical to the original. Plus the
//! typed-failure surface: wrong magic, wrong version, and truncation come
//! back as the matching [`SnapshotError`] variant, never a panic.

use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, stack, MnistUspsDirection, Sample, Scale};
use cdcl::snapshot::SnapshotError;
use cdcl::tensor::Tensor;

/// Trains the canonical two-task smoke workload (same as the determinism
/// suite) and returns the learner plus a stacked test batch per task.
fn trained_with_batches() -> (CdclTrainer, Vec<Tensor>) {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    for task in stream.tasks.iter().take(2) {
        trainer.learn_task(task);
    }
    let batches = stream
        .tasks
        .iter()
        .take(2)
        .map(|t| {
            let refs: Vec<&Sample> = t.target_test.iter().take(8).collect();
            stack(&refs).0
        })
        .collect();
    (trainer, batches)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn save_load_save_is_byte_identical() {
    let (trainer, _) = trained_with_batches();
    let first = trainer.snapshot_bytes();
    let loaded = CdclTrainer::from_snapshot_bytes(&first)
        .unwrap_or_else(|e| panic!("own snapshot rejected: {e}"));
    let second = loaded.snapshot_bytes();
    assert_eq!(first, second, "save -> load -> save must be byte-identical");

    // Same through the file path (atomic write + resume_from).
    let dir = std::env::temp_dir().join(format!("cdcl-snap-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("roundtrip.cdclsnap");
    trainer.save_snapshot(&path).expect("save snapshot");
    let resumed = CdclTrainer::resume_from(&path).expect("resume from file");
    assert_eq!(resumed.snapshot_bytes(), first);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_predictions_are_bitwise_identical() {
    let (trainer, batches) = trained_with_batches();
    let snapshot = trainer.snapshot_bytes();

    // Reference probabilities from the original, un-serialized learner.
    let reference_til: Vec<Vec<u32>> = (0..2)
        .map(|t| bits(&trainer.model().predict_til(&batches[t], t)))
        .collect();
    let reference_cil: Vec<Vec<u32>> = batches
        .iter()
        .map(|b| bits(&trainer.model().predict_cil(b)))
        .collect();
    drop(trainer);

    let restored =
        CdclTrainer::from_snapshot_bytes(&snapshot).unwrap_or_else(|e| panic!("load failed: {e}"));
    for t in 0..2 {
        assert_eq!(
            bits(&restored.model().predict_til(&batches[t], t)),
            reference_til[t],
            "predict_til({t}) diverged after restore"
        );
        assert_eq!(
            bits(&restored.model().predict_cil(&batches[t])),
            reference_cil[t],
            "predict_cil diverged after restore"
        );
    }
}

#[test]
fn loader_failures_are_typed() {
    let (trainer, _) = trained_with_batches();
    let good = trainer.snapshot_bytes();

    // Wrong magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        CdclTrainer::from_snapshot_bytes(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Unsupported future version (byte 8 is the low byte of the LE u32).
    let mut bad = good.clone();
    bad[8] = 0xFE;
    assert!(matches!(
        CdclTrainer::from_snapshot_bytes(&bad),
        Err(SnapshotError::UnsupportedVersion { .. })
    ));

    // Truncated inside the fixed header.
    assert!(matches!(
        CdclTrainer::from_snapshot_bytes(&good[..7]),
        Err(SnapshotError::Truncated { .. })
    ));

    // Trailing bytes beyond the pinned container length.
    let mut bad = good.clone();
    bad.push(0);
    assert!(matches!(
        CdclTrainer::from_snapshot_bytes(&bad),
        Err(SnapshotError::TrailingData { .. })
    ));

    // Missing file surfaces as a typed I/O error, not a panic.
    let missing = std::env::temp_dir().join("cdcl-no-such-snapshot.cdclsnap");
    assert!(matches!(
        CdclTrainer::resume_from(&missing),
        Err(SnapshotError::Io(_))
    ));
}
