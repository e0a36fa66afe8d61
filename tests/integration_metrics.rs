//! End-to-end `cdcl-obs`: a metrics-on smoke run must populate the global
//! registry (trainer health metrics + published kernel counters, visible in
//! both expositions, with a `health` event in the trace when telemetry is
//! also on), and the metrics layer must not perturb training — metrics-off
//! and metrics-on runs are **bitwise identical**.

use std::path::PathBuf;
use std::sync::Mutex;

use cdcl::core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl::data::{mnist_usps, MnistUspsDirection, Scale};
use cdcl::nn::Module;
use cdcl::{obs, telemetry};
use serde::Value;

/// The metrics registry (and the telemetry sink) are process-global; tests
/// that toggle them must not overlap.
static METRICS_GUARD: Mutex<()> = Mutex::new(());

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cdcl-metrics-{tag}-{}.jsonl", std::process::id()))
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

/// Parses the value of a plain `name value` sample line from the
/// Prometheus exposition.
fn sample(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("sample `{name}` missing from exposition:\n{exposition}"))
}

#[test]
fn metrics_on_run_populates_the_registry_and_health_trace() {
    let _g = METRICS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let path = tmp_path("health");
    telemetry::set_trace_file(Some(&path));
    obs::set_enabled(true);
    train_two_tasks();
    obs::set_enabled(false);
    telemetry::set_trace_file(None); // flushes and closes
    let trace = std::fs::read_to_string(&path).expect("trace file readable");
    std::fs::remove_file(&path).ok();

    let text = obs::global().render_prometheus();
    // Trainer counters and gauges carry real values.
    assert!(sample(&text, "cdcl_train_steps_total") > 0.0);
    assert!(sample(&text, "cdcl_train_tasks_total") >= 2.0);
    let occupancy = sample(&text, "cdcl_train_memory_occupancy");
    let capacity = sample(&text, "cdcl_train_memory_capacity");
    assert!(occupancy > 0.0 && occupancy <= capacity);
    // Each trainer signal is recorded at one point that feeds both sinks:
    // the final gauge is, bit for bit, the last matching `scalar` event.
    let events: Vec<Value> = trace
        .lines()
        .map(|l| serde_json::from_str(l).expect("trace line is JSON"))
        .collect();
    for (gauge, names) in [
        ("cdcl_train_loss", &["loss_warmup", "loss_total"][..]),
        ("cdcl_train_grad_norm", &["grad_norm"][..]),
        ("cdcl_train_pair_agreement", &["pair_agreement"][..]),
        ("cdcl_train_pseudo_flip_rate", &["pseudo_flip_rate"][..]),
    ] {
        let last = events
            .iter()
            .rev()
            .filter(|v| v.str_field("ev") == Some("scalar"))
            .filter(|v| v.str_field("name").is_some_and(|n| names.contains(&n)))
            .find_map(|v| v.f64_field("value"))
            .unwrap_or_else(|| panic!("no {names:?} scalar in the trace"));
        assert_eq!(
            sample(&text, gauge).to_bits(),
            last.to_bits(),
            "{gauge} differs from its last {names:?} event"
        );
    }
    // Step timers filled their histograms, with derived percentiles.
    assert!(text.contains("# TYPE cdcl_train_warmup_step_us histogram"));
    assert!(sample(&text, "cdcl_train_warmup_step_us_count") > 0.0);
    assert!(sample(&text, "cdcl_train_adaptation_step_us_count") > 0.0);
    assert!(sample(&text, "cdcl_train_adaptation_step_us_p99") > 0.0);
    // Kernel counters were published into the registry at task end.
    assert!(sample(&text, "cdcl_kernel_gemm_calls_total") > 0.0);
    // The JSON exposition sees the same registry.
    let json = obs::global().render_json();
    assert!(json.contains("\"cdcl_train_steps_total\""), "{json}");
    assert!(json.contains("\"cdcl_train_adaptation_step_us\""), "{json}");

    // With telemetry also on, each adaptation epoch folded a registry
    // snapshot into the trace as a `health` event.
    let health: Vec<&str> = trace
        .lines()
        .filter(|l| l.contains("\"ev\":\"health\""))
        .collect();
    assert!(!health.is_empty(), "no health events in trace");
    let last = health.last().unwrap();
    assert!(last.contains("\"steps_total\":"), "{last}");
    assert!(last.contains("\"adaptation_step_us_p99\":"), "{last}");
}

#[test]
fn metrics_do_not_perturb_training() {
    let _g = METRICS_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(false);
    let baseline = train_two_tasks();
    obs::set_enabled(true);
    let metered = train_two_tasks();
    obs::set_enabled(false);

    assert_eq!(baseline.len(), metered.len());
    for ((name, a), (metered_name, b)) in baseline.iter().zip(metered.iter()) {
        assert_eq!(name, metered_name);
        // Bitwise equality on the raw f32 data: the metrics layer only
        // *observes* training — it must never change a single bit of it.
        assert_eq!(a, b, "param {name} diverged under metrics");
    }
}
