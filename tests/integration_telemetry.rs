//! End-to-end telemetry: a traced smoke run must produce a parseable JSONL
//! stream covering every training phase, and tracing must not perturb
//! training — the traced and untraced runs are **bitwise identical**.

use std::path::PathBuf;
use std::sync::Mutex;

use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, MnistUspsDirection, Scale};
use cdcl::nn::Module;
use cdcl::telemetry;
use serde::Value;

/// The telemetry sink is process-global; tests that install one must not
/// overlap.
static TRACE_GUARD: Mutex<()> = Mutex::new(());

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdcl-integration-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// Trains two tasks of the smoke stream and evaluates both scenarios,
/// returning the final parameter tensors.
fn train_two_tasks() -> Vec<(String, Vec<f32>)> {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 3;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    for task in stream.tasks.iter().take(2) {
        trainer.learn_task(task);
    }
    trainer.eval_til(0, &stream.tasks[0].target_test);
    trainer.eval_cil(0, &stream.tasks[0].target_test);
    trainer
        .model()
        .params()
        .into_iter()
        .map(|p| (p.name(), p.value().data().to_vec()))
        .collect()
}

#[test]
fn traced_run_emits_parseable_jsonl_covering_every_phase() {
    let _g = TRACE_GUARD.lock().unwrap();
    let path = tmp_path("coverage");
    telemetry::set_trace_file(Some(&path));
    train_two_tasks();
    telemetry::set_trace_file(None); // flushes and closes
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();

    let mut phases = Vec::new();
    let mut scalars = Vec::new();
    let mut counters = 0usize;
    let mut last_seq: Option<u64> = None;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        // seq strictly increases in file order.
        let seq = v
            .u64_field("seq")
            .unwrap_or_else(|| panic!("missing/invalid seq: {line}"));
        if let Some(prev) = last_seq {
            assert!(seq > prev, "seq went backwards: {prev} -> {seq}");
        }
        last_seq = Some(seq);
        let name = v.str_field("name").unwrap_or_default().to_string();
        match v.str_field("ev") {
            Some("phase") => phases.push(name),
            Some("scalar") => scalars.push(name),
            Some("counters") => counters += 1,
            _ => {}
        }
    }

    for phase in [
        "warmup",
        "adaptation",
        "centroid_fit",
        "pseudo_assign",
        "pair_filter",
        "replay",
        "memory_select",
        "memory_rebalance",
        "eval_til",
        "eval_cil",
    ] {
        assert!(
            phases.iter().any(|p| p == phase),
            "phase `{phase}` missing from trace; saw {phases:?}"
        );
    }
    for scalar in [
        "loss_warmup",
        "loss_til",
        "loss_cil",
        "loss_rehearsal",
        "loss_total",
        "grad_norm",
        "pair_agreement",
        "pseudo_flip_rate",
        "memory_occupancy",
        "memory_total",
    ] {
        assert!(
            scalars.iter().any(|s| s == scalar),
            "scalar `{scalar}` missing from trace"
        );
    }
    assert_eq!(counters, 2, "one kernel-counters event per task");
}

#[test]
fn tracing_does_not_perturb_training() {
    let _g = TRACE_GUARD.lock().unwrap();
    let path = tmp_path("bitwise");
    telemetry::set_trace_file(Some(&path));
    let traced = train_two_tasks();
    telemetry::set_trace_file(None);
    std::fs::remove_file(&path).ok();
    let untraced = train_two_tasks();

    assert_eq!(traced.len(), untraced.len());
    for ((name, a), (base_name, b)) in traced.iter().zip(untraced.iter()) {
        assert_eq!(name, base_name);
        // Bitwise equality on the raw f32 data: the telemetry layer only
        // *observes* training — it must never change a single bit of it.
        assert_eq!(a, b, "param {name} diverged under tracing");
    }
}
