//! Multi-tenant serving integration tests (DESIGN.md §13): concurrent
//! connections against the threaded accept loop, `RELOAD` hot-swap under
//! live load (zero dropped or garbled responses), admission-control
//! backpressure, the CLI parser's usage errors, and the wall-clock
//! throughput accounting.

use cdcl_bench::serve::registry::SnapshotRegistry;
use cdcl_bench::serve::{parse_args_from, run_tcp, serve_stream, ServeArgs, ServeStats};
use cdcl_core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl_data::{mnist_usps, MnistUspsDirection, Scale};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;

mod common;
use common::{leak, Daemon};

/// Heavy TCP tests are serialized (they each train a smoke model and spin
/// worker threads on a small CI box).
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

fn request_line(dims: (usize, usize, usize), id: u64) -> String {
    let (c, h, w) = dims;
    let zeros = vec!["0.0"; c * h * w].join(",");
    format!(r#"{{"id":{id},"mode":"cil","image":[{zeros}]}}"#)
}

fn args_with(f: impl FnOnce(&mut ServeArgs)) -> ServeArgs {
    let mut args = ServeArgs {
        bench_out: None,
        ..ServeArgs::default()
    };
    f(&mut args);
    args
}

/// The response fields the tests assert on (extra fields are ignored by
/// the derived deserializer; absent ones decode to `None`).
#[derive(Debug, serde::Deserialize)]
struct ParsedResponse {
    id: Option<u64>,
    ok: bool,
    version: Option<u64>,
    error: Option<String>,
}

impl ParsedResponse {
    fn error(&self) -> &str {
        self.error.as_deref().unwrap_or_default()
    }
}

fn parse_response(line: &str) -> ParsedResponse {
    serde_json::from_str(line).expect("response is JSON")
}

/// N concurrent client connections, each pipelining windows of requests:
/// every request is answered, per-connection response order matches send
/// order, and ids never cross connections.
#[test]
fn concurrent_connections_are_answered_correctly_and_in_order() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let trainer = smoke_trainer();
    let dims = trainer.input_dims();
    let line_for = move |id: u64| request_line(dims, id);
    let srv = leak(SnapshotRegistry::new(0));
    srv.insert_trainer("default", trainer, None)
        .expect("register model");

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 12;
    const WINDOW: usize = 4;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let args = leak(args_with(|a| {
        a.max_batch = 4;
        a.conns = CLIENTS;
        a.threads = 2;
    }));
    let stats = leak(ServeStats::default());
    let server = Daemon::spawn(move || run_tcp(srv, listener, args, stats));

    std::thread::scope(|s| {
        let line_for = &line_for;
        for client in 0..CLIENTS {
            s.spawn(move || {
                let conn = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(conn.try_clone().expect("clone client connection"));
                let mut writer = BufWriter::new(conn);
                let mut line = String::new();
                let mut sent = 0usize;
                while sent < PER_CLIENT {
                    let window = WINDOW.min(PER_CLIENT - sent);
                    for k in 0..window {
                        let id = (client as u64 + 1) * 1000 + (sent + k) as u64;
                        writeln!(writer, "{}", line_for(id)).expect("send");
                    }
                    writeln!(writer).expect("flush line");
                    writer.flush().expect("flush");
                    for k in 0..window {
                        line.clear();
                        let n = reader.read_line(&mut line).expect("read response");
                        assert!(n > 0, "client {client}: server dropped a response");
                        let resp = parse_response(line.trim());
                        let expect = (client as u64 + 1) * 1000 + (sent + k) as u64;
                        assert!(resp.ok, "client {client}: {line}");
                        assert_eq!(
                            resp.id,
                            Some(expect),
                            "client {client}: out-of-order or cross-connection response"
                        );
                    }
                    sent += window;
                }
            });
        }
    });
    server.join();
    assert_eq!(stats.requests(), (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.failed(), 0);
    assert_eq!(stats.busy(), 0);
    assert_eq!(stats.served(), (CLIENTS * PER_CLIENT) as u64);
}

/// `RELOAD` under live traffic: clients hammer the server while a control
/// connection hot-swaps the snapshot twice. Every request is answered
/// correctly (nothing dropped, nothing garbled), every response names a
/// valid version, and after the swaps a fresh connection is served by the
/// newest version.
#[test]
fn reload_under_load_drops_nothing_and_bumps_version() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let trainer = smoke_trainer();
    let dims = trainer.input_dims();
    let line_for = move |id: u64| request_line(dims, id);
    let dir = std::env::temp_dir().join(format!("cdcl-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let snap = dir.join("model.cdclsnap");
    trainer.save_snapshot(&snap).expect("save snapshot");
    let srv = leak(SnapshotRegistry::new(0));
    srv.load("default", &snap).expect("load v1");

    const CLIENTS: usize = 2;
    const PER_CLIENT: usize = 20;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // conns: clients + reload control conn + final version probe.
    let args = leak(args_with(|a| {
        a.max_batch = 2;
        a.conns = CLIENTS + 2;
        a.threads = 3;
    }));
    let stats = leak(ServeStats::default());
    let server = Daemon::spawn(move || run_tcp(srv, listener, args, stats));

    std::thread::scope(|s| {
        let line_for = &line_for;
        for client in 0..CLIENTS {
            s.spawn(move || {
                let conn = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(conn.try_clone().expect("clone client connection"));
                let mut writer = BufWriter::new(conn);
                let mut line = String::new();
                // One request per window: interleaves tightly with the
                // concurrent RELOADs, so in-flight work spans the swap.
                for seq in 0..PER_CLIENT {
                    let id = (client as u64 + 1) * 1000 + seq as u64;
                    writeln!(writer, "{}", line_for(id)).expect("send");
                    writeln!(writer).expect("flush line");
                    writer.flush().expect("flush");
                    line.clear();
                    let n = reader.read_line(&mut line).expect("read response");
                    assert!(n > 0, "client {client}: response dropped across RELOAD");
                    let resp = parse_response(line.trim());
                    assert!(resp.ok, "client {client}: {line}");
                    assert_eq!(resp.id, Some(id), "client {client}: garbled ordering");
                    let v = resp.version.expect("response names its version");
                    assert!((1..=3).contains(&v), "impossible version {v}");
                }
            });
        }

        // Control connection: two hot-swaps while the clients are running.
        let snap = &snap;
        s.spawn(move || {
            let conn = TcpStream::connect(addr).expect("connect control");
            let mut reader = BufReader::new(conn.try_clone().expect("clone control connection"));
            let mut writer = BufWriter::new(conn);
            let mut line = String::new();
            for expect_version in [2u64, 3] {
                writeln!(writer, "RELOAD default {}", snap.display()).expect("send reload");
                writer.flush().expect("flush reload");
                line.clear();
                reader.read_line(&mut line).expect("read reload reply");
                let reply = parse_response(line.trim());
                assert!(reply.ok, "{line}");
                assert_eq!(reply.version, Some(expect_version), "{line}");
            }
            // A connection opened after both swaps is served by v3.
            let conn = TcpStream::connect(addr).expect("connect probe");
            let mut reader = BufReader::new(conn.try_clone().expect("clone probe connection"));
            let mut writer = BufWriter::new(conn);
            writeln!(writer, "{}", line_for(999_999)).expect("send probe");
            writeln!(writer).expect("probe flush line");
            writer.flush().expect("probe flush");
            line.clear();
            reader.read_line(&mut line).expect("read probe response");
            let resp = parse_response(line.trim());
            assert!(resp.ok, "{line}");
            assert_eq!(resp.version, Some(3), "post-swap traffic runs on v3");
        });
    });
    server.join();
    let expected = (CLIENTS * PER_CLIENT) as u64 + 1;
    assert_eq!(stats.requests(), expected, "every request accounted for");
    assert_eq!(stats.failed(), 0);
    assert_eq!(
        stats.served(),
        expected,
        "every request went through a forward pass"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: a model at its in-flight quota sheds requests with
/// `busy` responses (counted busy, not failed), and serves again once the
/// quota frees; the per-connection queue cap sheds the overflow the same
/// way.
#[test]
fn quota_and_queue_cap_shed_load_with_busy_responses() {
    let _g = SERVE_GUARD.lock().unwrap_or_else(|p| p.into_inner());
    cdcl_obs::set_enabled(true);
    let trainer = smoke_trainer();
    let req = request_line(trainer.input_dims(), 1);
    let srv = SnapshotRegistry::new(1);
    srv.insert_trainer("default", trainer, None)
        .expect("register model");
    let slot = srv.get(None).expect("resolve sole model");

    // Hold the model's only admission slot: the request must be shed.
    let ticket = slot.admission.try_acquire().expect("pre-hold the quota");
    let stats = ServeStats::default();
    let mut out = Vec::new();
    let input = format!("{req}\n\n");
    serve_stream(
        &srv,
        &mut std::io::Cursor::new(input.clone().into_bytes()),
        &mut out,
        &args_with(|a| a.max_batch = 8),
        &stats,
    )
    .expect("serve");
    let resp = parse_response(String::from_utf8(out).expect("utf8").trim());
    assert!(!resp.ok && resp.error().starts_with("busy"), "{resp:?}");
    assert_eq!(stats.busy(), 1);
    assert_eq!(stats.failed(), 0, "shed load is busy, not failure");

    // Release the quota: the same request is served.
    drop(ticket);
    let mut out = Vec::new();
    serve_stream(
        &srv,
        &mut std::io::Cursor::new(input.into_bytes()),
        &mut out,
        &args_with(|a| a.max_batch = 8),
        &stats,
    )
    .expect("serve after release");
    let resp = parse_response(String::from_utf8(out).expect("utf8").trim());
    assert!(resp.ok, "{resp:?}");

    // Queue cap: with room for 2 pending requests, the 3rd and 4th in one
    // window are shed before even resolving a model — and responses still
    // come back in arrival order. (The 2nd is shed by the model's
    // in-flight quota of 1: the 1st holds the only admission slot.)
    let big_srv_args = args_with(|a| {
        a.max_batch = 100;
        a.max_queue = 2;
    });
    let req_line = |id: u64| {
        let mut r = req.clone();
        r = r.replace("\"id\":1", &format!("\"id\":{id}"));
        r
    };
    let input = format!(
        "{}\n{}\n{}\n{}\n\n",
        req_line(1),
        req_line(2),
        req_line(3),
        req_line(4)
    );
    let mut out = Vec::new();
    serve_stream(
        &srv,
        &mut std::io::Cursor::new(input.into_bytes()),
        &mut out,
        &big_srv_args,
        &stats,
    )
    .expect("serve with queue cap");
    let text = String::from_utf8(out).expect("utf8");
    let responses: Vec<ParsedResponse> = text.lines().map(parse_response).collect();
    assert_eq!(responses.len(), 4, "{text}");
    assert_eq!(
        responses.iter().map(|r| r.id).collect::<Vec<_>>(),
        [Some(1), Some(2), Some(3), Some(4)],
        "arrival order preserved: {text}"
    );
    assert!(responses[0].ok, "{text}");
    assert!(
        !responses[1].ok && responses[1].error().contains("in-flight quota"),
        "{text}"
    );
    for r in &responses[2..] {
        assert!(!r.ok && r.error().contains("queue full"), "{text}");
    }
    assert!(stats.busy() >= 4, "all four sheds counted busy");
}

/// The CLI parser answers every malformed invocation with a usage error —
/// the bug class where a flag missing its value walked off the end of argv
/// and panicked.
#[test]
fn parse_args_rejects_malformed_command_lines_with_usage_errors() {
    let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|x| x.to_string()).collect() };

    // The original panic: a flag as the final token.
    for flags in [
        &["--snapshot"][..],
        &["--snapshot", "a.cdclsnap", "--max-batch"][..],
        &["--tcp"][..],
        &["--model"][..],
    ] {
        let err = parse_args_from(&argv(flags)).expect_err("must be a usage error");
        assert!(err.contains("needs a value"), "{flags:?}: {err}");
        assert!(err.contains("usage:"), "{flags:?}: {err}");
    }

    let err = parse_args_from(&argv(&["--snapshot", "a", "--max-batch", "lots"]))
        .expect_err("bad number");
    assert!(err.contains("non-negative integer"), "{err}");

    let err = parse_args_from(&argv(&["--snapshot", "a", "--frobnicate", "x"]))
        .expect_err("unknown flag");
    assert!(err.contains("unknown argument --frobnicate"), "{err}");

    let err = parse_args_from(&argv(&[])).expect_err("no model");
    assert!(err.contains("is required"), "{err}");

    let err = parse_args_from(&argv(&["--model", "noequals"])).expect_err("bad model spec");
    assert!(err.contains("<id>=<path>"), "{err}");

    let err =
        parse_args_from(&argv(&["--model", "a=x", "--model", "a=y"])).expect_err("duplicate id");
    assert!(err.contains("given twice"), "{err}");

    // Well-formed multi-model invocations parse.
    let args = parse_args_from(&argv(&[
        "--model",
        "alpha=a.cdclsnap",
        "--model",
        "beta=b.cdclsnap",
        "--max-inflight",
        "8",
        "--threads",
        "2",
    ]))
    .expect("valid argv");
    assert_eq!(
        args.models,
        vec![
            ("alpha".to_string(), PathBuf::from("a.cdclsnap")),
            ("beta".to_string(), PathBuf::from("b.cdclsnap")),
        ]
    );
    assert_eq!(args.max_inflight, 8);
    assert_eq!(args.threads, 2);

    // --snapshot registers under the id `default`.
    let args = parse_args_from(&argv(&["--snapshot", "a.cdclsnap"])).expect("valid argv");
    assert_eq!(
        args.models,
        vec![("default".to_string(), PathBuf::from("a.cdclsnap"))]
    );
}

/// Regression for the throughput accounting bug: RPS is served requests
/// over wall-clock serving time, not over summed per-batch forward
/// latency (which ignored queueing/IO and inflated the claim).
#[test]
fn throughput_is_measured_against_wall_clock() {
    let trainer = smoke_trainer();
    let stats = ServeStats::default();
    // Two batches of 10, each 0.5s of forward latency: the old accounting
    // divided 20 requests by the 1.0s latency sum -> 20 rps regardless of
    // how long serving actually took.
    stats.add_batch(10, 500_000.0);
    stats.add_batch(10, 500_000.0);
    let report = stats.report("test", &trainer, 32, 1, 4.0);
    assert_eq!(report.batches, 2);
    assert!(
        (report.throughput_rps - 5.0).abs() < 1e-9,
        "20 requests over 4.0s wall must be 5 rps, got {}",
        report.throughput_rps
    );
    assert!((report.wall_secs - 4.0).abs() < 1e-9);
    assert!((report.latency_us.p99 - 500_000.0).abs() < 1e-9);
}
