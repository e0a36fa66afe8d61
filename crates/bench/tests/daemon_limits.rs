//! Bounded input and bounded waits on the daemons' sockets (DESIGN.md §13,
//! §15): an unterminated line past the line limit is refused with one
//! typed error, counted, and closes only its own connection — also when
//! the client is still sending past the limit, which must read the reply
//! rather than a connection reset; a serve
//! instance that accepts a publish connection but never answers fails that
//! publish after the socket timeout instead of hanging traind.

use cdcl_bench::net::{IO_TIMEOUT, MAX_LINE_BYTES};
use cdcl_bench::serve::registry::SnapshotRegistry;
use cdcl_bench::serve::{ServeArgs, ServeStats};
use cdcl_bench::traind::publish::{publish_round, RoundArtifact};
use cdcl_bench::traind::{build_trainer, TraindArgs, TraindDaemon};
use cdcl_core::DriftConfig;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Instant;

mod common;
use common::{leak, Daemon};

/// The value of an unlabeled series in a Prometheus exposition (0 when the
/// series has not been recorded yet).
fn metric(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

/// Sends one unterminated line of `len > MAX_LINE_BYTES` bytes and
/// returns the reply line, asserting the daemon then closes the
/// connection. Every step fails on a connection reset.
fn send_oversize_line(addr: SocketAddr, len: usize) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&vec![b'x'; len])
        .expect("send oversize line");
    let mut reader = BufReader::new(conn);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read refusal");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to close");
    assert!(rest.is_empty(), "connection not closed after the refusal");
    reply
}

/// Sends one line on a fresh connection and returns the one-line reply.
fn ask(addr: SocketAddr, line: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    writeln!(conn, "{line}").expect("send");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

/// Scrapes `GET /metrics` on a fresh connection.
fn scrape(addr: SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(conn, "GET /metrics HTTP/1.0\r\n\r\n").expect("send scrape");
    let mut body = String::new();
    conn.read_to_string(&mut body).expect("read scrape");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    body
}

/// A line that is still being sent well after the daemon has refused it.
const NINE_MIB: usize = 9 << 20;

fn assert_refusal(reply: &str) {
    let v: Value = serde_json::from_str(reply.trim()).expect("refusal is JSON");
    assert_eq!(v.bool_field("ok"), Some(false), "{reply}");
    let error = v.str_field("error").unwrap_or_default();
    assert!(error.starts_with("line too long"), "{reply}");
}

#[test]
fn serve_refuses_an_oversize_line_and_keeps_serving() {
    cdcl_obs::set_enabled(true);
    let counter = "cdcl_serve_oversize_lines_total";
    let before = metric(&cdcl_obs::global().render_prometheus(), counter);
    let srv = leak(SnapshotRegistry::new(0));
    let args = leak(ServeArgs {
        bench_out: None,
        empty_ok: true,
        conns: 4,
        threads: 2,
        ..ServeArgs::default()
    });
    let stats = leak(ServeStats::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Daemon::spawn(move || cdcl_bench::serve::run_tcp(srv, listener, args, stats));
    assert_refusal(&send_oversize_line(addr, MAX_LINE_BYTES + 1));
    assert_refusal(&send_oversize_line(addr, NINE_MIB));
    let models = ask(addr, "MODELS");
    assert!(models.starts_with("{\"ok\":true,\"models\":"), "{models}");
    assert_eq!(metric(&scrape(addr), counter), before + 2);
    server.join();
}

#[test]
fn traind_refuses_an_oversize_line_and_keeps_serving() {
    cdcl_obs::set_enabled(true);
    let counter = "cdcl_traind_oversize_lines_total";
    let before = metric(&cdcl_obs::global().render_prometheus(), counter);
    let args = TraindArgs {
        threads: 2,
        conns: 4,
        ..TraindArgs::default()
    };
    let trainer = build_trainer(&args).expect("fresh trainer");
    let daemon = leak(TraindDaemon::with_drift_config(
        args,
        trainer,
        DriftConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = Daemon::spawn(move || cdcl_bench::traind::run_tcp(daemon, listener));
    assert_refusal(&send_oversize_line(addr, MAX_LINE_BYTES + 1));
    assert_refusal(&send_oversize_line(addr, NINE_MIB));
    let status = ask(addr, "STATUS");
    assert!(status.starts_with("{\"ok\":true,\"status\":"), "{status}");
    assert_eq!(metric(&scrape(addr), counter), before + 2);
    server.join();
}

#[test]
fn publish_to_a_serve_that_never_answers_times_out() {
    cdcl_obs::set_enabled(true);
    let counter = "cdcl_traind_publish_failed_total";
    let before = metric(&cdcl_obs::global().render_prometheus(), counter);
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("addr").to_string();
    let publish_dir = std::env::temp_dir().join(format!("publish-timeout-{}", std::process::id()));
    std::fs::create_dir_all(&publish_dir).expect("create publish dir");
    let args = TraindArgs {
        notify: vec![addr],
        publish_dir: publish_dir.clone(),
        ..TraindArgs::default()
    };
    let round = RoundArtifact {
        task: 0,
        boundary: None,
        bytes: b"snapshot bytes".to_vec(),
        expected_tasks: 1,
        expected_centroid_tasks: 1,
    };
    std::thread::scope(|s| {
        // Accepts the publish connection and holds it open, unanswered.
        let held = s.spawn(move || silent.accept().map(|(conn, _)| conn));
        let started = Instant::now();
        let outcome = publish_round(&args, &round);
        let waited = started.elapsed();
        assert!(!outcome.ok);
        let err = outcome.reloads[0].as_ref().expect_err("publish must fail");
        assert!(err.contains("timed out"), "{err}");
        assert!(waited < 2 * IO_TIMEOUT, "publish waited {waited:?}");
        drop(held.join().expect("acceptor"));
    });
    let after = metric(&cdcl_obs::global().render_prometheus(), counter);
    assert_eq!(after, before + 1);
    let _ = std::fs::remove_dir_all(&publish_dir);
}
