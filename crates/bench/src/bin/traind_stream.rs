//! `traind-stream`: the CI driver for the `cdcl-traind` loop (DESIGN.md
//! §15). Generates a deterministic two-task cross-domain stream and feeds
//! it to a running `cdcl-traind` over TCP **without ever telling the
//! daemon where the task boundary is**, then asserts the closed loop did
//! its job from the window acks alone:
//!
//! 1. the bootstrap round trained task 0 and published a verified
//!    checkpoint (serve reports version 1);
//! 2. the task switch was *detected* — and the inferred boundary equals
//!    the generator's ground-truth switch window;
//! 3. the online round for task 1 ran and its publish was verified live
//!    (serve reports version 2, two tasks) with zero failed reloads.
//!
//! On success writes `--out` (a JSON report) with the two headline
//! latencies — detection lag in windows and publish→verified-reload wall
//! time — under `{"latency": …}`. Any violated assertion exits non-zero,
//! failing the CI job.

use cdcl_bench::{flag_usize, flag_value, parse_cli};
use cdcl_data::{DomainPairConfig, Sample};
use serde::Value;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// Renders one ingest line by hand (the vendored serde derive has no
/// attribute support, and the image vector dominates the line anyway).
fn ingest_line(role: &str, label: Option<usize>, image: &[f32]) -> String {
    let mut line = format!("{{\"role\":\"{role}\"");
    if let Some(l) = label {
        let _ = write!(line, ",\"label\":{l}");
    }
    line.push_str(",\"image\":[");
    for (i, x) in image.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{x}");
    }
    line.push_str("]}");
    line
}

struct StreamArgs {
    traind: String,
    serve: Option<String>,
    out: Option<String>,
    seed: u64,
    bootstrap_windows: usize,
    clean_windows: usize,
    max_shift_windows: usize,
}

fn usage() -> String {
    "usage: traind-stream --traind <addr> [--serve <addr>] [--out traind-stream.json]\n\
     \x20   [--seed <n>] [--bootstrap <n>] [--clean <n>] [--max-shift <n>]"
        .to_string()
}

fn parse_args_from(argv: &[String]) -> Result<StreamArgs, String> {
    let mut args = StreamArgs {
        traind: String::new(),
        serve: None,
        out: None,
        seed: 11,
        bootstrap_windows: 2,
        clean_windows: 6,
        max_shift_windows: 12,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i| flag_value(argv, i, usage).map(str::to_string);
        let number = |i| flag_usize(argv, i, usage);
        match argv[i].as_str() {
            "--traind" => args.traind = value(i)?,
            "--serve" => args.serve = Some(value(i)?),
            "--out" => args.out = Some(value(i)?),
            "--seed" => args.seed = number(i)? as u64,
            "--bootstrap" => args.bootstrap_windows = number(i)?.max(1),
            "--clean" => args.clean_windows = number(i)?,
            "--max-shift" => args.max_shift_windows = number(i)?.max(1),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 2;
    }
    if args.traind.is_empty() {
        return Err(format!("--traind is required\n{}", usage()));
    }
    Ok(args)
}

/// The deterministic two-task scenario: a strong per-task rendering drift
/// makes the boundary physically real, but the daemon is never told it.
fn scenario(seed: u64) -> cdcl_data::CrossDomainStream {
    DomainPairConfig {
        name: "traind-stream".to_string(),
        num_classes: 4,
        tasks: 2,
        channels: 1,
        hw: (8, 8),
        latent_dim: 6,
        domain_gap: 0.5,
        task_drift: 0.9,
        within_class_std: 0.25,
        source_noise_std: 0.05,
        target_noise_std: 0.05,
        train_per_class: 24,
        target_train_per_class: 24,
        test_per_class: 2,
        seed,
    }
    .generate()
}

fn send_samples(
    writer: &mut BufWriter<TcpStream>,
    role: &'static str,
    samples: &[&Sample],
) -> std::io::Result<()> {
    for s in samples {
        let label = (role == "source").then_some(s.label);
        writeln!(writer, "{}", ingest_line(role, label, s.image.data()))?;
    }
    Ok(())
}

/// Streams one window (a round-robin slice of the task's samples) and
/// returns the parsed commit ack.
fn commit_window(
    writer: &mut BufWriter<TcpStream>,
    reader: &mut BufReader<TcpStream>,
    task: &cdcl_data::TaskData,
    window_in_task: usize,
    per_window: usize,
) -> Value {
    fn pick(pool: &[Sample], start: usize, per_window: usize) -> Vec<&Sample> {
        (0..per_window)
            .map(|j| &pool[(start + j) % pool.len()])
            .collect()
    }
    let start = window_in_task * per_window;
    send_samples(
        writer,
        "source",
        &pick(&task.source_train, start, per_window),
    )
    .expect("send source");
    send_samples(
        writer,
        "target",
        &pick(&task.target_train, start, per_window),
    )
    .expect("send target");
    writeln!(writer).expect("send commit");
    writer.flush().expect("flush commit");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read ack");
    eprintln!("traind-stream: ack {}", line.trim());
    let ack: Value = serde_json::from_str(line.trim())
        .unwrap_or_else(|e| panic!("bad ack {:?}: {e}", line.trim()));
    assert_eq!(
        ack.bool_field("ok"),
        Some(true),
        "window commit refused: {}",
        line.trim()
    );
    ack
}

/// Asserts a window ack carries a fully verified publish and returns its
/// `publish_us`.
fn check_publish(ack: &Value, expect_version: u64, expect_tasks: u64) -> f64 {
    let publish = match ack.field("publish") {
        Some(p) if !matches!(p, Value::Null) => p,
        _ => panic!("round ack lacks a publish block: {ack:?}"),
    };
    assert_eq!(
        publish.bool_field("ok"),
        Some(true),
        "publish failed: {publish:?}"
    );
    let reloads = match publish.field("reloads") {
        Some(Value::Arr(rows)) => rows.as_slice(),
        _ => panic!("publish block lacks reloads: {publish:?}"),
    };
    assert!(!reloads.is_empty(), "no reload targets were notified");
    for r in reloads {
        assert_eq!(
            r.u64_field("version"),
            Some(expect_version),
            "reload did not stamp version {expect_version}: {r:?}"
        );
        assert_eq!(
            r.u64_field("tasks"),
            Some(expect_tasks),
            "reload did not report {expect_tasks} tasks: {r:?}"
        );
    }
    publish
        .f64_field("publish_us")
        .unwrap_or_else(|| panic!("publish block lacks publish_us: {publish:?}"))
}

/// Sends one CIL predict request to a running `cdcl-serve` and asserts the
/// freshly reloaded snapshot answers it. When tracing is on, this is the
/// request that claims the `first_serve` span armed by the traced `RELOAD`
/// (DESIGN.md §16), closing the window-commit → serve causal chain.
fn probe_serve(addr: &str, image_len: usize, expect_version: u64) {
    let conn = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect serve {addr}: {e}"));
    let cloned = conn.try_clone().expect("clone serve connection");
    let mut reader = BufReader::new(cloned);
    let mut writer = BufWriter::new(conn);
    let mut line = String::from("{\"id\":1,\"mode\":\"cil\",\"image\":[");
    for i in 0..image_len {
        if i > 0 {
            line.push(',');
        }
        line.push('0');
    }
    line.push_str("]}");
    writeln!(writer, "{line}").expect("send predict");
    // A blank line flushes the admission batch immediately.
    writeln!(writer).expect("send flush");
    writer.flush().expect("flush predict");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read predict reply");
    let resp: Value = serde_json::from_str(reply.trim())
        .unwrap_or_else(|e| panic!("bad predict reply {:?}: {e}", reply.trim()));
    assert_eq!(
        resp.bool_field("ok"),
        Some(true),
        "predict failed: {}",
        reply.trim()
    );
    assert_eq!(
        resp.u64_field("version"),
        Some(expect_version),
        "stale snapshot answered the probe: {}",
        reply.trim()
    );
    eprintln!("traind-stream: serve probe answered by version {expect_version}");
}

fn main() {
    let args = parse_cli("traind-stream", parse_args_from);
    let stream = scenario(args.seed);
    let per_window = 6;

    let conn =
        TcpStream::connect(&args.traind).unwrap_or_else(|e| panic!("connect {}: {e}", args.traind));
    let cloned = conn.try_clone().expect("clone connection");
    let mut reader = BufReader::new(cloned);
    let mut writer = BufWriter::new(conn);

    // Phase A: bootstrap windows (task 0). The daemon starts with zero
    // tasks; the last bootstrap commit triggers the task-0 round + publish.
    let mut bootstrap_ack = Value::Null;
    for w in 0..args.bootstrap_windows {
        bootstrap_ack = commit_window(&mut writer, &mut reader, &stream.tasks[0], w, per_window);
    }
    assert_eq!(
        bootstrap_ack.u64_field("rounds"),
        Some(1),
        "bootstrap round did not run: {bootstrap_ack:?}"
    );
    let bootstrap_publish_us = check_publish(&bootstrap_ack, 1, 1);
    eprintln!(
        "traind-stream: bootstrap round published & verified live in {bootstrap_publish_us:.0}us"
    );

    // Phase B: clean task-0 windows — detector calibration + baseline.
    // Ground truth: the switch to task 1 happens at the next window index.
    for w in 0..args.clean_windows {
        let ack = commit_window(
            &mut writer,
            &mut reader,
            &stream.tasks[0],
            args.bootstrap_windows + w,
            per_window,
        );
        assert_eq!(
            ack.u64_field("detections"),
            Some(0),
            "false drift detection on a within-task window: {ack:?}"
        );
    }
    let switch_window = args.bootstrap_windows + args.clean_windows;

    // Phase C: task-1 windows. No boundary is ever sent; the daemon must
    // detect the drift, infer the boundary, train, and publish on its own.
    let mut detected_at = None;
    let mut round2_ack = None;
    for w in 0..args.max_shift_windows {
        let ack = commit_window(&mut writer, &mut reader, &stream.tasks[1], w, per_window);
        let window = ack.u64_field("window").expect("ack window index");
        if detected_at.is_none() && ack.u64_field("detections") == Some(1) {
            detected_at = Some(window);
        }
        if ack.u64_field("rounds") == Some(2) {
            round2_ack = Some(ack);
            break;
        }
    }
    let detected_at = detected_at.unwrap_or_else(|| {
        panic!(
            "no drift detection within {} shifted windows",
            args.max_shift_windows
        )
    });
    let round2_ack =
        round2_ack.unwrap_or_else(|| panic!("detection at window {detected_at} never trained"));

    // The inferred boundary must match the generator's ground truth.
    let boundary = round2_ack
        .u64_field("boundary")
        .expect("round ack boundary");
    assert_eq!(
        boundary, switch_window as u64,
        "inferred boundary {boundary} != ground-truth switch window {switch_window}"
    );
    assert_eq!(round2_ack.u64_field("tasks"), Some(2), "{round2_ack:?}");
    let publish_us = check_publish(&round2_ack, 2, 2);
    let detection_windows = detected_at - switch_window as u64 + 1;
    eprintln!(
        "traind-stream: drift detected at window {detected_at} (boundary {boundary}, \
         {detection_windows} windows after the switch); task-1 checkpoint published & \
         verified live in {publish_us:.0}us"
    );

    // Optionally hit the serving plane once after the verified reload so
    // the `first_serve` stage of the publish→reload trace is exercised.
    if let Some(serve) = &args.serve {
        let image_len = stream.tasks[0].source_train[0].image.data().len();
        probe_serve(serve, image_len, 2);
    }

    if let Some(out) = &args.out {
        let json = format!(
            "{{\n  \"latency\": {{\n    \"detection_windows\": {detection_windows},\n    \
             \"publish_to_reload_us\": {publish_us:.1}\n  }}\n}}\n"
        );
        std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        eprintln!("traind-stream: wrote {out}");
    }
    println!("traind-stream: OK");
}
