//! The traind publish loop (DESIGN.md §15): after every finished online
//! round the new learner state is atomically written to `--publish-dir`
//! as `task{NNN}.cdclsnap` and every `--notify` address receives a
//! `RELOAD <model> <path>` verb, followed by a `MODELS` read-back that
//! verifies the registry really serves the new version with the expected
//! task and centroid counts. All of this runs **outside** the daemon's
//! state lock — a slow or dead serve instance can delay publication, never
//! ingest — and every step of the exchange (connect, each read and write)
//! is bounded by [`IO_TIMEOUT`], so a serve instance that accepts but never
//! answers costs one failed publish, not a hung committing client.

use super::metrics;
use super::TraindArgs;
use crate::net::IO_TIMEOUT;
use cdcl_telemetry as telemetry;
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;

/// What one finished online round hands to the publish loop.
pub struct RoundArtifact {
    /// Task id the round trained (names the published file).
    pub task: usize,
    /// Inferred stage-window boundary (`None` for the bootstrap round).
    pub boundary: Option<usize>,
    /// Full snapshot bytes of the post-round learner.
    pub bytes: Vec<u8>,
    /// Task count a verified reload must report.
    pub expected_tasks: usize,
    /// Non-empty centroid-set count a verified reload must report.
    pub expected_centroid_tasks: usize,
}

/// A verified reload on one notify target.
#[derive(Debug)]
pub struct ReloadAck {
    pub addr: String,
    pub version: u64,
    pub tasks: u64,
    pub centroid_tasks: u64,
}

/// Result of one publish attempt: the snapshot path, the per-target reload
/// verdicts, and the write→last-verified-ack latency.
#[derive(Debug)]
pub struct PublishOutcome {
    pub path: PathBuf,
    /// Write succeeded and every notify target verified the reload.
    pub ok: bool,
    pub publish_us: f64,
    pub reloads: Vec<Result<ReloadAck, String>>,
}

/// Publishes one round: atomic snapshot write, then `RELOAD` + `MODELS`
/// verification against every notify target.
pub fn publish_round(args: &TraindArgs, round: &RoundArtifact) -> PublishOutcome {
    let region = metrics::PUBLISH_LATENCY_US.span("publish").task(round.task);
    let path = args
        .publish_dir
        .join(format!("task{:03}.cdclsnap", round.task));
    let mut ok = true;
    let mut reloads = Vec::new();
    match cdcl_snapshot::atomic_write(&path, &round.bytes) {
        Ok(()) => {
            // RELOAD carries an absolute path: the serve process resolves
            // it from its own working directory.
            let reload_path = std::fs::canonicalize(&path).unwrap_or_else(|_| path.clone());
            for addr in &args.notify {
                let result = notify_one(addr, &args.model, &reload_path, round);
                ok &= result.is_ok();
                reloads.push(result);
            }
        }
        Err(e) => {
            ok = false;
            reloads.push(Err(format!("snapshot write {}: {e}", path.display())));
        }
    }
    let publish_us = region.finish();
    if ok {
        metrics::PUBLISH_TOTAL.inc();
    } else {
        metrics::PUBLISH_FAILED_TOTAL.inc();
    }
    if telemetry::enabled() {
        telemetry::Event::new("traind")
            .name("published")
            .task(round.task)
            .str_field("path", &path.display().to_string())
            .u64_field("ok", u64::from(ok))
            .u64_field("targets", args.notify.len() as u64)
            .f64_field("publish_us", publish_us)
            .emit();
    }
    PublishOutcome {
        path,
        ok,
        publish_us,
        reloads,
    }
}

/// Issues `RELOAD` to one serve instance and verifies through `MODELS`
/// that the slot now serves the expected task/centroid counts.
fn notify_one(
    addr: &str,
    model: &str,
    path: &std::path::Path,
    round: &RoundArtifact,
) -> Result<ReloadAck, String> {
    // A socket timeout surfaces as `WouldBlock` on Unix; name it.
    let fail = |step: &str, e: std::io::Error| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            format!("{addr}: {step}: timed out after {IO_TIMEOUT:?}")
        }
        _ => format!("{addr}: {step}: {e}"),
    };
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| fail("resolve", e))?
        .next()
        .ok_or_else(|| format!("{addr}: resolves to no address"))?;
    let conn = TcpStream::connect_timeout(&sock, IO_TIMEOUT).map_err(|e| fail("connect", e))?;
    let cloned = conn
        .set_nodelay(true)
        .and_then(|()| conn.set_read_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| conn.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| conn.try_clone())
        .map_err(|e| fail("configure", e))?;
    let mut reader = BufReader::new(cloned);
    let mut writer = BufWriter::new(conn);

    // The enclosing `publish` span's context rides the wire so the
    // serve-side reload joins this window's trace. Absent entirely when
    // tracing is off or the trace unsampled — the wire bytes then match
    // pre-§16 peers, which also ignore the extra field when present.
    let trace_suffix = match telemetry::ctx::active() {
        Some(c) => format!(" trace={}", c.encode()),
        None => String::new(),
    };
    writeln!(writer, "RELOAD {model} {}{trace_suffix}", path.display())
        .and_then(|()| writer.flush())
        .map_err(|e| fail("send RELOAD", e))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| fail("read RELOAD reply", e))?;
    let reply: Value = serde_json::from_str(line.trim())
        .map_err(|e| format!("{addr}: bad RELOAD reply {:?}: {e}", line.trim()))?;
    if reply.bool_field("ok") != Some(true) {
        return Err(format!("{addr}: RELOAD refused: {}", line.trim()));
    }
    let version = reply
        .u64_field("version")
        .ok_or_else(|| format!("{addr}: RELOAD reply lacks version: {}", line.trim()))?;

    writeln!(writer, "MODELS{trace_suffix}")
        .and_then(|()| writer.flush())
        .map_err(|e| fail("send MODELS", e))?;
    line.clear();
    reader
        .read_line(&mut line)
        .map_err(|e| fail("read MODELS reply", e))?;
    let models: Value = serde_json::from_str(line.trim())
        .map_err(|e| format!("{addr}: bad MODELS reply {:?}: {e}", line.trim()))?;
    let rows = match models.field("models") {
        Some(Value::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    let row = rows
        .iter()
        .find(|r| r.str_field("model") == Some(model))
        .ok_or_else(|| format!("{addr}: MODELS does not list {model}: {}", line.trim()))?;
    let served_version = row.u64_field("version");
    let tasks = row.u64_field("tasks");
    let centroid_tasks = row.u64_field("centroid_tasks");
    if served_version != Some(version) {
        return Err(format!(
            "{addr}: reload not visible: RELOAD said v{version}, MODELS serves {served_version:?}"
        ));
    }
    if tasks != Some(round.expected_tasks as u64)
        || centroid_tasks != Some(round.expected_centroid_tasks as u64)
    {
        return Err(format!(
            "{addr}: reload did not advance the model: expected {} tasks / {} centroid tasks, \
             MODELS reports {tasks:?} / {centroid_tasks:?}",
            round.expected_tasks, round.expected_centroid_tasks
        ));
    }
    Ok(ReloadAck {
        addr: addr.to_string(),
        version,
        tasks: tasks.unwrap_or(0),
        centroid_tasks: centroid_tasks.unwrap_or(0),
    })
}
