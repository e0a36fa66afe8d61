//! End-to-end test of the closed train→serve loop (DESIGN.md §15): an
//! in-process `cdcl-serve` starting EMPTY and an in-process `cdcl-traind`
//! wired to it, fed a streamed two-task scenario with **no task boundaries
//! given**. The daemon must bootstrap task 0 from the stream, publish it
//! (serve goes live at version 1), detect the unannounced task switch from
//! drift alone, infer the boundary matching the generator's ground truth,
//! run the online round, and hot-publish task 1 (serve stamps version 2) —
//! all while a live prediction client hammers the serve instance and
//! loses not a single in-flight request.

use cdcl_bench::serve::registry::SnapshotRegistry;
use cdcl_bench::serve::{ServeArgs, ServeStats};
use cdcl_bench::traind::{build_trainer, run_tcp, TraindArgs, TraindDaemon};
use cdcl_core::DriftConfig;
use cdcl_data::{DomainPairConfig, Sample, TaskData};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

mod common;
use common::{leak, Daemon};

/// Serialized with the other heavy TCP tests in the crate (worker threads
/// plus two training rounds on a small CI box).
static TRAIND_GUARD: Mutex<()> = Mutex::new(());

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.field(name)
        .unwrap_or_else(|| panic!("missing field {name:?} in {v:?}"))
}

fn field_u64(v: &Value, name: &str) -> u64 {
    v.u64_field(name)
        .unwrap_or_else(|| panic!("no number field {name:?} in {v:?}"))
}

fn field_bool(v: &Value, name: &str) -> bool {
    v.bool_field(name)
        .unwrap_or_else(|| panic!("no bool field {name:?} in {v:?}"))
}

/// The streamed scenario: two tasks over the same label set with a strong
/// per-task rendering drift — physically distinct, never announced.
fn scenario(seed: u64) -> cdcl_data::CrossDomainStream {
    DomainPairConfig {
        name: "traind-e2e".to_string(),
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

fn ingest_line(role: &str, label: Option<usize>, image: &[f32]) -> String {
    use std::fmt::Write as _;
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

/// Streams one window of `task` samples (round-robin slice) and returns
/// the parsed commit ack.
fn commit_window(
    writer: &mut BufWriter<TcpStream>,
    reader: &mut BufReader<TcpStream>,
    task: &TaskData,
    window_in_task: usize,
    per_window: usize,
) -> Value {
    fn pick(pool: &[Sample], start: usize, n: usize) -> Vec<&Sample> {
        (0..n).map(|j| &pool[(start + j) % pool.len()]).collect()
    }
    let start = window_in_task * per_window;
    for s in pick(&task.source_train, start, per_window) {
        writeln!(
            writer,
            "{}",
            ingest_line("source", Some(s.label), s.image.data())
        )
        .expect("send source");
    }
    for s in pick(&task.target_train, start, per_window) {
        writeln!(writer, "{}", ingest_line("target", None, s.image.data())).expect("send target");
    }
    writeln!(writer).expect("send commit");
    writer.flush().expect("flush commit");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read ack");
    let ack: Value = serde_json::from_str(line.trim())
        .unwrap_or_else(|e| panic!("bad ack {:?}: {e}", line.trim()));
    assert!(field_bool(&ack, "ok"), "commit refused: {}", line.trim());
    ack
}

/// Asserts the ack's publish block is fully verified at the expected
/// version / task count against exactly one notify target.
fn assert_publish(ack: &Value, version: u64, tasks: u64) {
    let publish = field(ack, "publish");
    assert!(
        !matches!(publish, Value::Null),
        "no publish in round ack: {ack:?}"
    );
    assert!(field_bool(publish, "ok"), "publish failed: {publish:?}");
    let reloads = match field(publish, "reloads") {
        Value::Arr(rows) => rows,
        other => panic!("reloads is not an array: {other:?}"),
    };
    assert_eq!(reloads.len(), 1);
    assert_eq!(field_u64(&reloads[0], "version"), version, "{publish:?}");
    assert_eq!(field_u64(&reloads[0], "tasks"), tasks, "{publish:?}");
    assert_eq!(
        field_u64(&reloads[0], "centroid_tasks"),
        tasks,
        "{publish:?}"
    );
}

/// The full closed loop: empty serve + traind + boundary-free stream.
#[test]
fn closed_loop_detects_trains_and_publishes_live() {
    let _g = TRAIND_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let stream = scenario(11);
    let per_window = 6;
    let (bootstrap, clean, max_shift) = (2usize, 6usize, 10usize);
    let switch_window = (bootstrap + clean) as u64; // ground truth

    // Serve side: an EMPTY registry — the first published checkpoint
    // creates the model slot at version 1 (the `--empty-ok` path).
    let registry = leak(SnapshotRegistry::new(0));
    let serve_listener = TcpListener::bind("127.0.0.1:0").expect("bind serve");
    let serve_addr = serve_listener.local_addr().expect("serve addr").to_string();
    let serve_args = leak(ServeArgs {
        bench_out: None,
        empty_ok: true,
        // Two publish connections from traind plus the live client.
        conns: 3,
        threads: 2,
        max_batch: 4,
        ..ServeArgs::default()
    });
    let serve_stats = leak(ServeStats::default());

    // Traind side: fresh zero-task trainer, with the default drift
    // thresholds injected explicitly.
    let publish_dir = std::env::temp_dir().join(format!("traind-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&publish_dir);
    std::fs::create_dir_all(&publish_dir).expect("create publish dir");
    let traind_args = TraindArgs {
        notify: vec![serve_addr.clone()],
        publish_dir: publish_dir.clone(),
        threads: 1,
        conns: 1,
        bootstrap_windows: bootstrap,
        ..TraindArgs::default()
    };
    let trainer = build_trainer(&traind_args).expect("fresh trainer");
    let dims = trainer.input_dims();
    let daemon = leak(TraindDaemon::with_drift_config(
        traind_args,
        trainer,
        DriftConfig::default(),
    ));
    let traind_listener = TcpListener::bind("127.0.0.1:0").expect("bind traind");
    let traind_addr = traind_listener.local_addr().expect("traind addr");

    let serve = Daemon::spawn(move || {
        cdcl_bench::serve::run_tcp(registry, serve_listener, serve_args, serve_stats)
    });
    let traind = Daemon::spawn(move || run_tcp(daemon, traind_listener));

    let serving_v1 = leak(AtomicBool::new(false));
    let stop_load = leak(AtomicBool::new(false));
    let final_status = {
        // Live prediction client: starts once version 1 is being served,
        // then sends requests one at a time right through the version-2
        // hot reload. Every request must be answered, none dropped. Its
        // last request is sent after the stop flag is seen, and so after
        // version 2 was verified live: a request already in flight during
        // the swap rightly finishes on version 1.
        let serve_addr_for_load = serve_addr.clone();
        let load = std::thread::spawn(move || {
            while !serving_v1.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let conn = TcpStream::connect(&serve_addr_for_load).expect("connect load client");
            let mut reader = BufReader::new(conn.try_clone().expect("clone load client"));
            let mut writer = BufWriter::new(conn);
            let zeros = vec!["0.0"; dims.0 * dims.1 * dims.2].join(",");
            let mut line = String::new();
            let mut answered = 0u64;
            let mut seen_versions = Vec::new();
            loop {
                let last = stop_load.load(Ordering::Acquire);
                writeln!(
                    writer,
                    "{{\"id\":{answered},\"mode\":\"cil\",\"image\":[{zeros}]}}"
                )
                .expect("send request");
                writeln!(writer).expect("send flush line");
                writer.flush().expect("flush request");
                line.clear();
                let n = reader.read_line(&mut line).expect("read response");
                assert!(n > 0, "serve dropped an in-flight request");
                let resp: Value = serde_json::from_str(line.trim()).expect("response is JSON");
                assert!(field_bool(&resp, "ok"), "request failed: {}", line.trim());
                let version = field_u64(&resp, "version");
                if seen_versions.last() != Some(&version) {
                    seen_versions.push(version);
                }
                answered += 1;
                if last {
                    break;
                }
            }
            (answered, seen_versions)
        });

        // The boundary-free stream (the role CI's traind-stream bin plays).
        let conn = TcpStream::connect(traind_addr).expect("connect traind");
        let mut reader = BufReader::new(conn.try_clone().expect("clone traind conn"));
        let mut writer = BufWriter::new(conn);

        let mut ack = Value::Null;
        for w in 0..bootstrap {
            ack = commit_window(&mut writer, &mut reader, &stream.tasks[0], w, per_window);
        }
        assert_eq!(field_u64(&ack, "rounds"), 1, "bootstrap round: {ack:?}");
        assert_publish(&ack, 1, 1);
        serving_v1.store(true, Ordering::Release);

        for w in 0..clean {
            let ack = commit_window(
                &mut writer,
                &mut reader,
                &stream.tasks[0],
                bootstrap + w,
                per_window,
            );
            assert_eq!(field_u64(&ack, "detections"), 0, "false alarm: {ack:?}");
        }

        let mut round2 = None;
        for w in 0..max_shift {
            let ack = commit_window(&mut writer, &mut reader, &stream.tasks[1], w, per_window);
            if field_u64(&ack, "rounds") == 2 {
                round2 = Some(ack);
                break;
            }
        }
        let round2 = round2.unwrap_or_else(|| {
            panic!("no detection + online round within {max_shift} shifted windows")
        });
        assert_eq!(field_u64(&round2, "detections"), 1);
        assert_eq!(field_u64(&round2, "tasks"), 2);
        // The inferred boundary must match the generator's switch window.
        assert_eq!(field_u64(&round2, "boundary"), switch_window, "{round2:?}");
        assert_publish(&round2, 2, 2);

        stop_load.store(true, Ordering::Release);
        let (answered, seen_versions) = load.join().expect("load client");
        assert!(answered > 0, "load client never got a response");
        assert_eq!(
            seen_versions.last(),
            Some(&2),
            "live client should end on the hot-reloaded version 2 (saw {seen_versions:?})"
        );

        // Final STATUS over the same traind connection.
        writeln!(writer, "STATUS").expect("send STATUS");
        writer.flush().expect("flush STATUS");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read STATUS");
        let status: Value = serde_json::from_str(line.trim()).expect("STATUS is JSON");
        field(&status, "status").clone()
    };
    traind.join();
    serve.join();

    assert_eq!(field_u64(&final_status, "tasks"), 2);
    assert_eq!(field_u64(&final_status, "detections"), 1);
    assert_eq!(field_u64(&final_status, "rounds"), 2);
    assert_eq!(field_u64(&final_status, "published"), 2);
    assert_eq!(field_u64(&final_status, "publish_failed"), 0);
    assert_eq!(field_u64(&final_status, "dropped_windows"), 0);

    // Both checkpoints were atomically published on disk.
    for task in ["task000.cdclsnap", "task001.cdclsnap"] {
        let path = publish_dir.join(task);
        assert!(path.is_file(), "missing published checkpoint {path:?}");
        cdcl_core::CdclTrainer::resume_from(&path)
            .unwrap_or_else(|e| panic!("published {task} does not restore: {e}"));
    }
    let _ = std::fs::remove_dir_all(&publish_dir);
}

/// One phase span read back from the trace file.
struct SpanLine {
    name: String,
    trace: String,
    span: String,
    parent: Option<String>,
}

fn phase_spans(trace_text: &str) -> Vec<SpanLine> {
    let field_str = |v: &Value, name: &str| v.str_field(name).map(str::to_string);
    trace_text
        .lines()
        .filter_map(|line| serde_json::from_str::<Value>(line.trim()).ok())
        .filter(|v| field_str(v, "ev").as_deref() == Some("phase"))
        .filter_map(|v| {
            Some(SpanLine {
                name: field_str(&v, "name")?,
                trace: field_str(&v, "trace")?,
                span: field_str(&v, "span")?,
                parent: field_str(&v, "parent"),
            })
        })
        .collect()
}

/// The DESIGN.md §16 distributed-trace contract over the bootstrap slice of
/// the same closed loop: the trace id stamped on the committed window's ack
/// must reappear — with an unbroken parent chain — on the `publish` span,
/// the serve-side `reload` span (joined through the wire `trace=` field),
/// and the `first_serve` span of the first batch on the new version.
#[test]
fn one_trace_id_survives_commit_publish_reload_and_first_serve() {
    let _g = TRAIND_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    let pid = std::process::id();
    let trace_path = std::env::temp_dir().join(format!("traind-e2e-trace-{pid}.jsonl"));
    cdcl_telemetry::set_trace_file(Some(&trace_path));

    let stream = scenario(13);
    let per_window = 6;
    let bootstrap = 2usize;

    let registry = leak(SnapshotRegistry::new(0));
    let serve_listener = TcpListener::bind("127.0.0.1:0").expect("bind serve");
    let serve_addr = serve_listener.local_addr().expect("serve addr").to_string();
    let serve_args = leak(ServeArgs {
        bench_out: None,
        empty_ok: true,
        // One publish connection from traind plus the predict client.
        conns: 2,
        threads: 1,
        max_batch: 4,
        ..ServeArgs::default()
    });
    let serve_stats = leak(ServeStats::default());

    let publish_dir = std::env::temp_dir().join(format!("traind-e2e-trace-pub-{pid}"));
    let _ = std::fs::remove_dir_all(&publish_dir);
    std::fs::create_dir_all(&publish_dir).expect("create publish dir");
    let traind_args = TraindArgs {
        notify: vec![serve_addr.clone()],
        publish_dir: publish_dir.clone(),
        threads: 1,
        conns: 1,
        bootstrap_windows: bootstrap,
        ..TraindArgs::default()
    };
    let trainer = build_trainer(&traind_args).expect("fresh trainer");
    let dims = trainer.input_dims();
    let daemon = leak(TraindDaemon::with_drift_config(
        traind_args,
        trainer,
        DriftConfig::default(),
    ));
    let traind_listener = TcpListener::bind("127.0.0.1:0").expect("bind traind");
    let traind_addr = traind_listener.local_addr().expect("traind addr");

    let serve = Daemon::spawn(move || {
        cdcl_bench::serve::run_tcp(registry, serve_listener, serve_args, serve_stats)
    });
    let traind = Daemon::spawn(move || run_tcp(daemon, traind_listener));

    let ack_trace = {
        // Bootstrap windows only: one round, one publish, serve goes live
        // at version 1.
        let conn = TcpStream::connect(traind_addr).expect("connect traind");
        let mut reader = BufReader::new(conn.try_clone().expect("clone traind conn"));
        let mut writer = BufWriter::new(conn);
        let mut ack = Value::Null;
        for w in 0..bootstrap {
            ack = commit_window(&mut writer, &mut reader, &stream.tasks[0], w, per_window);
        }
        assert_publish(&ack, 1, 1);
        let ack_trace = ack
            .str_field("trace")
            .unwrap_or_else(|| panic!("traced commit ack has no trace field: {ack:?}"))
            .to_string();

        // First request on the published version: completes the trace.
        let conn = TcpStream::connect(&serve_addr).expect("connect predict client");
        let mut sreader = BufReader::new(conn.try_clone().expect("clone predict client"));
        let mut swriter = BufWriter::new(conn);
        let zeros = vec!["0.0"; dims.0 * dims.1 * dims.2].join(",");
        writeln!(swriter, "{{\"id\":1,\"mode\":\"cil\",\"image\":[{zeros}]}}")
            .expect("send request");
        writeln!(swriter).expect("send flush line");
        swriter.flush().expect("flush request");
        let mut line = String::new();
        sreader.read_line(&mut line).expect("read response");
        let resp: Value = serde_json::from_str(line.trim()).expect("response is JSON");
        assert!(field_bool(&resp, "ok"), "request failed: {}", line.trim());
        ack_trace
    };
    traind.join();
    serve.join();

    cdcl_telemetry::flush();
    cdcl_telemetry::set_trace_file(None);

    let ctx = cdcl_telemetry::ctx::TraceContext::parse(&ack_trace)
        .unwrap_or_else(|e| panic!("ack trace {ack_trace:?} is not a traceparent: {e}"));
    let trace_hex = format!("{:032x}", ctx.trace_id);
    let root_span_hex = format!("{:016x}", ctx.span_id);

    let text = std::fs::read_to_string(&trace_path).expect("read trace file");
    let spans = phase_spans(&text);
    let in_trace = |name: &str| -> &SpanLine {
        spans
            .iter()
            .find(|s| s.name == name && s.trace == trace_hex)
            .unwrap_or_else(|| panic!("no `{name}` span in trace {trace_hex}"))
    };
    // The ack's traceparent IS the window_commit root span.
    let root = in_trace("window_commit");
    assert_eq!(root.span, root_span_hex);
    assert_eq!(root.parent, None, "window_commit must be the root");
    // traind side: publish under the root...
    let publish = in_trace("publish");
    assert_eq!(publish.parent.as_deref(), Some(root_span_hex.as_str()));
    // ...serve side: reload under publish (joined via the wire `trace=`
    // field), first_serve under reload. One id, four spans, two daemons.
    let reload = in_trace("reload");
    assert_eq!(reload.parent.as_deref(), Some(publish.span.as_str()));
    let first = in_trace("first_serve");
    assert_eq!(first.parent.as_deref(), Some(reload.span.as_str()));

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir_all(&publish_dir);
}
