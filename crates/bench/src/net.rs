//! The line-protocol server shared by `cdcl-serve` and `cdcl-traind`
//! (DESIGN.md §13, §15).
//!
//! Both daemons speak newline-delimited text over stdio or TCP and differ
//! only in what a line means. This module owns everything else:
//!
//! * the **accept loop** ([`run_tcp`]): one acceptor thread hands each
//!   connection over a rendezvous channel to one of `threads` workers and
//!   stops once the `conns` budget is spent. It accepts only when a worker
//!   is idle, so no connection sits accepted but unserved;
//! * **per-connection setup**: blocking mode, `TCP_NODELAY` (a pipelined
//!   reply must not wait on Nagle's algorithm and the peer's delayed ACK),
//!   and a write timeout ([`IO_TIMEOUT`]) so a peer that stops reading
//!   cannot pin a worker;
//! * the **first-line sniff**: a connection opening with `GET ` is an HTTP
//!   scrape answered with the Prometheus exposition; anything else is the
//!   daemon's line protocol;
//! * the **bounded line reader** ([`serve_lines`]): each line, trimmed,
//!   goes to the daemon's per-connection [`Session`] as a `&str` borrowed
//!   from one reused buffer. A line longer than [`MAX_LINE_BYTES`] gets one
//!   `{"ok":false,"error":"line too long …"}` reply, is counted, and
//!   closes the connection — after a bounded drain of the peer's unread
//!   input (`DRAIN_TIMEOUT`, `DRAIN_BYTES`), so the close does not
//!   reset the connection before the peer has read the reply.
//!
//! Every failure is connection-local: a failed `accept()` or connection
//! setup is logged, counted in the daemon's accept-error counter, and
//! survived.

use cdcl_obs::Counter;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The longest accepted line, excluding its terminator. The largest legal
/// line is one serve request or traind ingest sample: a JSON array of
/// `c·h·w` floats at up to ~25 bytes each (`-1.2345678e-5,`). 8 MiB admits
/// a 3×256×256 image (~4.9 MB) with margin and bounds each connection's
/// read buffer.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Socket timeout for writes to a client and for every step of the
/// traind→serve publish exchange (connect, read, write): long enough for a
/// `RELOAD` on a loaded machine, short enough that a hung peer costs one
/// stalled exchange, not a stalled daemon.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection refused for an oversize line keeps reading after
/// its reply, so a client still finishing its send gets to its read. A
/// peer that never stops sending holds the worker this long at most.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// The most input a refused connection discards before it closes
/// regardless.
const DRAIN_BYTES: u64 = MAX_LINE_BYTES as u64;

/// What the shared server needs to know about a daemon: its log prefix
/// and the counters it records into.
pub struct Daemon {
    /// Log prefix, e.g. `cdcl-serve`.
    pub name: &'static str,
    /// Failed `accept()` calls and connection setups.
    pub accept_errors: &'static Counter,
    /// Lines refused for exceeding [`MAX_LINE_BYTES`].
    pub oversize_lines: &'static Counter,
}

/// A daemon's state for one connection or stdio stream.
pub trait Session {
    /// Handles one line, surrounding whitespace trimmed (a blank line is
    /// `""`), writing any reply to `out`.
    fn line(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<()>;

    /// Called once when the stream ends: at end-of-stream, and before an
    /// oversize line is refused.
    fn end(&mut self, _out: &mut dyn Write) -> std::io::Result<()> {
        Ok(())
    }
}

/// What [`next_line`] left in the buffer.
#[derive(PartialEq)]
enum Next {
    Line,
    Eof,
    Oversize,
}

/// Reads one line into `buf`, never buffering more than
/// `MAX_LINE_BYTES + 1` bytes of it.
fn next_line(reader: &mut dyn BufRead, buf: &mut Vec<u8>) -> std::io::Result<Next> {
    buf.clear();
    let n = Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    Ok(if n == 0 {
        Next::Eof
    } else if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        Next::Oversize
    } else {
        Next::Line
    })
}

/// Feeds lines to `session` from `next` onward until the stream ends, and
/// returns how it ended: [`Next::Eof`], or [`Next::Oversize`] once an
/// oversize line has been refused.
fn converse(
    d: &Daemon,
    mut next: Next,
    buf: &mut Vec<u8>,
    reader: &mut dyn BufRead,
    out: &mut dyn Write,
    session: &mut dyn Session,
) -> std::io::Result<Next> {
    loop {
        match next {
            Next::Eof => return session.end(out).map(|()| Next::Eof),
            Next::Oversize => {
                session.end(out)?;
                d.oversize_lines.inc();
                writeln!(
                    out,
                    "{{\"ok\":false,\"error\":\"line too long (over {MAX_LINE_BYTES} bytes); closing connection\"}}"
                )?;
                return out.flush().map(|()| Next::Oversize);
            }
            Next::Line => {
                let line = std::str::from_utf8(buf)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                session.line(line.trim(), out)?;
            }
        }
        next = next_line(reader, buf)?;
    }
}

/// Runs the line protocol over one already-open stream (stdio mode,
/// tests).
pub fn serve_lines(
    d: &Daemon,
    reader: &mut dyn BufRead,
    out: &mut dyn Write,
    session: &mut dyn Session,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    let first = next_line(reader, &mut buf)?;
    converse(d, first, &mut buf, reader, out, session).map(drop)
}

/// Runs the line protocol over stdin/stdout; an I/O error ends the
/// process with a diagnosis.
pub fn run_stdio(d: &Daemon, session: &mut dyn Session) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut reader = BufReader::new(stdin.lock());
    let mut writer = BufWriter::new(stdout.lock());
    if let Err(e) = serve_lines(d, &mut reader, &mut writer, session) {
        eprintln!("{}: stdin/stdout: {e}", d.name);
        std::process::exit(1);
    }
}

/// Renders the registry as Prometheus text, mirroring the kernel counters
/// in first so every scrape sees current GEMM volume.
pub(crate) fn registry_prometheus() -> String {
    cdcl_tensor::kernels::publish_registry();
    cdcl_obs::global().render_prometheus()
}

/// The registry as one JSON object (the `METRICS` verb).
pub(crate) fn registry_json() -> String {
    cdcl_tensor::kernels::publish_registry();
    cdcl_obs::global().render_json()
}

/// JSON-escapes a message for the hand-assembled replies.
pub(crate) fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("serialize string")
}

/// Answers the HTTP `GET` whose request line is in `buf`: drains the
/// headers (each bounded like any line), writes a minimal HTTP/1.0
/// response carrying the Prometheus exposition for `/metrics`, and lets
/// the connection close. Returns what ended the headers.
fn http_metrics(
    d: &Daemon,
    buf: &mut Vec<u8>,
    reader: &mut dyn BufRead,
    out: &mut dyn Write,
) -> std::io::Result<Next> {
    let request_line = String::from_utf8_lossy(buf).into_owned();
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let drained = loop {
        match next_line(reader, buf)? {
            Next::Line if !buf.trim_ascii().is_empty() => {}
            end => break end,
        }
    };
    let (status, body) = if drained == Next::Oversize {
        d.oversize_lines.inc();
        (
            "431 Request Header Fields Too Large",
            format!("header line over {MAX_LINE_BYTES} bytes\n"),
        )
    } else if path == "/metrics" {
        ("200 OK", registry_prometheus())
    } else {
        (
            "404 Not Found",
            format!("no such path {path}; try /metrics\n"),
        )
    };
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    out.flush().map(|()| drained)
}

/// Closes a connection refused for an oversize line without losing the
/// refusal: a socket closed with unread input answers with a reset, which
/// can discard the reply before the peer reads it. So the reply is
/// followed by a FIN, and input is read and discarded until the peer
/// closes, [`DRAIN_TIMEOUT`] passes, or [`DRAIN_BYTES`] have been read.
fn drain_refused(mut conn: &TcpStream) {
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    let mut sink = [0u8; 16 << 10];
    let mut left = DRAIN_BYTES;
    while left > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() || conn.set_read_timeout(Some(wait)).is_err() {
            return;
        }
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n as u64),
        }
    }
}

/// Sets up one accepted connection, sniffs its first line, and runs it to
/// completion. All failures are connection-local.
fn handle_conn(d: &Daemon, conn: TcpStream, session: &mut dyn Session) {
    let peer = conn.peer_addr().map(|a| a.to_string());
    let setup = conn
        .set_nonblocking(false)
        .and_then(|()| conn.set_nodelay(true))
        .and_then(|()| conn.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| conn.try_clone());
    let cloned = match setup {
        Ok(c) => c,
        Err(e) => {
            // A failed clone (EMFILE under fd pressure) costs this
            // connection, never the daemon.
            d.accept_errors.inc();
            eprintln!(
                "{}: cannot set up connection {peer:?} (dropping it): {e}",
                d.name
            );
            return;
        }
    };
    let mut reader = BufReader::new(cloned);
    let mut writer = BufWriter::new(conn);
    let mut buf = Vec::new();
    let result = match next_line(&mut reader, &mut buf) {
        Ok(Next::Line) if buf.starts_with(b"GET ") => {
            http_metrics(d, &mut buf, &mut reader, &mut writer)
        }
        Ok(first) => converse(d, first, &mut buf, &mut reader, &mut writer, session),
        Err(e) => Err(e),
    };
    match result {
        Ok(Next::Oversize) => drain_refused(writer.get_ref()),
        Ok(_) => {}
        Err(e) => eprintln!("{}: connection {peer:?} dropped: {e}", d.name),
    }
}

/// Binds the daemon's listener, or exits with a diagnosis (status 2, as
/// for every other startup error).
pub fn listen(d: &Daemon, addr: &str) -> TcpListener {
    TcpListener::bind(addr).unwrap_or_else(|e| {
        eprintln!("{}: bind {addr}: {e}", d.name);
        std::process::exit(2);
    })
}

/// The TCP accept loop. `threads` workers each announce themselves idle
/// with a fresh rendezvous sender; the acceptor takes one, accepts, and
/// hands the connection over. Once `conns` connections are accepted
/// (0 = never) the acceptor drops its end, every idle worker's hand-off
/// fails, and the loop returns when the busy ones finish. Each worker
/// runs its connection's compute on its own thread.
///
/// A failed `accept()` (transient `EMFILE`, `ECONNABORTED`, …) is logged,
/// counted, and survived after a 5 ms back-off, so fd exhaustion cannot
/// spin a core.
pub fn run_tcp<S: Session>(
    d: &Daemon,
    listener: TcpListener,
    threads: usize,
    conns: usize,
    session: impl Fn() -> S + Sync,
) {
    std::thread::scope(|s| {
        let (idle_tx, idle_rx) = mpsc::channel::<mpsc::SyncSender<TcpStream>>();
        for _ in 0..threads.max(1) {
            let (idle_tx, session) = (idle_tx.clone(), &session);
            s.spawn(move || loop {
                let (tx, rx) = mpsc::sync_channel(0);
                if idle_tx.send(tx).is_err() {
                    break;
                }
                match rx.recv() {
                    Ok(conn) => handle_conn(d, conn, &mut session()),
                    Err(_) => break,
                }
            });
        }
        drop(idle_tx);
        let mut accepted = 0;
        while conns == 0 || accepted < conns {
            let Ok(worker) = idle_rx.recv() else {
                break;
            };
            let conn = loop {
                match listener.accept() {
                    Ok((conn, _)) => break conn,
                    Err(e) => {
                        d.accept_errors.inc();
                        eprintln!("{}: accept failed (continuing): {e}", d.name);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            };
            accepted += 1;
            // The worker announced itself and is parked in `recv`, so the
            // rendezvous completes at once.
            let _ = worker.send(conn);
        }
        // Budget spent: dropping the announcements fails every idle
        // worker's `recv`; busy workers stop at their next announcement.
        drop(idle_rx);
    });
}
