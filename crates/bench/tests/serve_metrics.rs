//! `cdcl-serve` observability, driven over a real TCP round-trip: a JSONL
//! connection feeds the batcher, then an HTTP `GET /metrics` scrape on the
//! same listener must return Prometheus text with batch-latency histogram
//! buckets, derived p50/p99 gauges, and the per-model labeled families.
//! Also covers the `METRICS` stdin verb and the NaN/Inf output watchdog.

use cdcl_bench::serve::registry::SnapshotRegistry;
use cdcl_bench::serve::{run_tcp, serve_stream, ServeArgs, ServeStats};
use cdcl_core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl_data::{mnist_usps, MnistUspsDirection, Scale};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Mutex;

mod common;
use common::{leak, Daemon};

/// Registry state is process-global; tests must not overlap.
static SERVE_GUARD: Mutex<()> = Mutex::new(());

/// Trains one smoke task (warm-up only — enough to serve predictions).
fn smoke_trainer() -> CdclTrainer {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut config = CdclConfig::smoke();
    config.epochs = 1;
    config.warmup_epochs = 1;
    let mut trainer = CdclTrainer::new(config);
    trainer.learn_task(&stream.tasks[0]);
    trainer
}

/// A single-model registry serving `trainer` under the id `default`.
fn smoke_registry(trainer: CdclTrainer) -> SnapshotRegistry {
    let srv = SnapshotRegistry::new(0);
    srv.insert_trainer("default", trainer, None)
        .expect("register smoke model");
    srv
}

fn serve_args(max_batch: usize, conns: usize) -> ServeArgs {
    ServeArgs {
        max_batch,
        bench_out: None,
        conns,
        ..ServeArgs::default()
    }
}

/// A valid request line with a zero image of the model's input shape.
fn request_line(trainer: &CdclTrainer, id: u64, mode: &str) -> String {
    let (c, h, w) = trainer.input_dims();
    let zeros = vec!["0.0"; c * h * w].join(",");
    match mode {
        "til" => format!(r#"{{"id":{id},"mode":"til","task":0,"image":[{zeros}]}}"#),
        _ => format!(r#"{{"id":{id},"mode":"cil","image":[{zeros}]}}"#),
    }
}

#[test]
fn tcp_round_trip_then_metrics_scrape() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let trainer = smoke_trainer();
    let lines: Vec<String> = (1..=3u64)
        .map(|id| request_line(&trainer, id, if id % 2 == 0 { "cil" } else { "til" }))
        .collect();
    let srv = leak(smoke_registry(trainer));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let args = leak(serve_args(2, 2));
    let stats = leak(ServeStats::default());
    let server = Daemon::spawn(move || run_tcp(srv, listener, args, stats));

    // Connection 1: three JSONL requests (max_batch=2 forces two
    // flushes), then EOF.
    let mut conn = TcpStream::connect(addr).expect("connect");
    for line in &lines {
        writeln!(conn, "{line}").expect("send request");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut responses = String::new();
    BufReader::new(conn)
        .read_to_string(&mut responses)
        .expect("read responses");
    let lines: Vec<&str> = responses.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {responses}");
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "request failed: {line}");
        assert!(
            line.contains("\"model\":\"default\"") && line.contains("\"version\":1"),
            "response must name the answering model/version: {line}"
        );
    }

    // Connection 2: an HTTP scrape on the same listener.
    let mut conn = TcpStream::connect(addr).expect("connect for scrape");
    write!(conn, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").expect("send scrape");
    let mut scrape = String::new();
    BufReader::new(conn)
        .read_to_string(&mut scrape)
        .expect("read scrape");

    assert!(
        scrape.starts_with("HTTP/1.0 200 OK"),
        "bad status line: {scrape}"
    );
    assert!(scrape.contains("# TYPE cdcl_serve_batch_latency_us histogram"));
    assert!(
        scrape.contains("cdcl_serve_batch_latency_us_bucket{le=\""),
        "latency histogram buckets missing:\n{scrape}"
    );
    assert!(scrape.contains("cdcl_serve_batch_latency_us_bucket{le=\"+Inf\"}"));
    assert!(scrape.contains("cdcl_serve_batch_latency_us_p50 "));
    assert!(scrape.contains("cdcl_serve_batch_latency_us_p99 "));
    assert!(scrape.contains("cdcl_serve_requests_total"));
    assert!(scrape.contains("cdcl_serve_batch_size"));
    assert!(scrape.contains("cdcl_serve_queue_depth"));
    // Per-model labeled families carry the registry id.
    assert!(
        scrape.contains("cdcl_serve_model_requests_total{model=\"default\"}"),
        "per-model request series missing:\n{scrape}"
    );
    assert!(scrape.contains("cdcl_serve_model_latency_us_bucket{model=\"default\",le=\""));
    assert!(scrape.contains("cdcl_serve_model_inflight{model=\"default\"}"));
    // The scrape publishes the kernel counters too.
    assert!(scrape.contains("cdcl_kernel_gemm_calls_total"));

    server.join();
    assert!(stats.requests() >= 3, "server saw the JSONL requests");
    assert!(stats.batch_count() > 0, "server executed batches");
}

#[test]
fn metrics_verb_answers_registry_json_inline() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let trainer = smoke_trainer();
    let input = format!("{}\nMETRICS\n", request_line(&trainer, 7, "cil"));
    let srv = smoke_registry(trainer);
    let mut reader = std::io::Cursor::new(input.into_bytes());
    let mut out = Vec::new();
    let stats = ServeStats::default();
    serve_stream(&srv, &mut reader, &mut out, &serve_args(8, 1), &stats)
        .expect("serve in-memory stream");
    let text = String::from_utf8(out).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "prediction + metrics lines: {text}");
    assert!(lines[0].contains("\"id\":7"));
    assert!(lines[1].starts_with("{\"ok\":true,\"metrics\":{\"counters\":{"));
    assert!(lines[1].contains("\"cdcl_serve_batch_latency_us\":{\"count\":"));
}

#[test]
fn nonfinite_outputs_become_errors_not_predictions() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    // Drive the per-row watchdog directly: in debug builds the autograd
    // graph asserts finiteness on every node, so NaN probabilities cannot
    // come out of a real forward pass here — but a release-mode numeric
    // blow-up lands exactly on this screening path.
    let stats = ServeStats::default();
    let bad = cdcl_bench::serve::row_response(9, false, 0, &[0.5, f32::NAN], &stats);
    let line = serde_json::to_string(&bad).expect("serialize response");
    assert!(
        line.contains("\"ok\":false") && line.contains("non-finite"),
        "garbage prediction shipped instead of an error: {line}"
    );
    assert_eq!(stats.failed(), 1);
    let good = cdcl_bench::serve::row_response(10, true, 0, &[0.25, 0.75], &stats);
    let line = serde_json::to_string(&good).expect("serialize response");
    assert!(line.contains("\"ok\":true") && line.contains("\"pred\":1"));
    assert_eq!(stats.failed(), 1, "finite rows pass the watchdog");
    // The cumulative process-wide counter recorded the event.
    let exposition = cdcl_obs::global().render_prometheus();
    let count: u64 = exposition
        .lines()
        .find(|l| l.starts_with("cdcl_serve_nonfinite_total "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("nonfinite counter present");
    assert!(count >= 1);
}
