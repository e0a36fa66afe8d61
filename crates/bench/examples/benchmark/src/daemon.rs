//! The repository's binaries as child processes: building them, starting
//! `cdcl-serve` / `cdcl-traind`, scraping their `/metrics`, and stopping
//! them.
//!
//! Every daemon gets an exact `--conns` budget — the number of
//! connections the benchmark will open to it — so it exits by itself, and
//! flushes its trace, once the benchmark is done with it. A daemon that
//! has not exited by then is killed and reported.

use cdcl_obs::hist;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Directory holding the binaries the benchmark drives.
pub struct Bins(PathBuf);

impl Bins {
    /// Builds the other binaries of this package — `cdcl-serve`,
    /// `cdcl-traind`, `trace-summary`, `trace-query` — next to the running
    /// benchmark. `cargo run` builds only the benchmark itself; the same
    /// package, profile and target directory make this build reuse every
    /// library it compiled.
    pub fn build() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("benchmark path: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("benchmark binary has no directory")?
            .to_path_buf();
        let target = dir
            .parent()
            .ok_or("benchmark binary outside a target directory")?;
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "--bins", "--manifest-path"])
            .arg(&manifest)
            .arg("--target-dir")
            .arg(target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the daemons failed: {status}"));
        }
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Connects with `TCP_NODELAY`, as every benchmark socket: without it a
/// small write can wait on Nagle's algorithm and the peer's delayed ACK.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY on {addr}: {e}"))?;
    Ok(stream)
}

/// A loopback address with a port that was free a moment ago.
pub fn free_addr() -> Result<String, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    let port = l.local_addr().map_err(|e| e.to_string())?.port();
    Ok(format!("127.0.0.1:{port}"))
}

pub struct Daemon {
    pub addr: String,
    name: String,
    child: Option<Child>,
    log: PathBuf,
}

impl Daemon {
    /// Starts `bin` with `args` (which must make it listen on `addr`),
    /// stderr to `log`, and waits until it accepts a connection. The
    /// readiness probe is the first connection of its budget.
    pub fn start(
        bin: &Path,
        args: &[&str],
        env: &[(&str, String)],
        addr: String,
        log: PathBuf,
    ) -> Result<Self, String> {
        let name = bin
            .file_name()
            .map_or("daemon".into(), |n| n.to_string_lossy().into_owned());
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .envs(env.iter().map(|(k, v)| (*k, v)))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let mut d = Self {
            addr,
            name,
            child: Some(child),
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if connect(&d.addr).is_ok() {
                return Ok(d);
            }
            if d.exited()? || Instant::now() > deadline {
                return Err(format!("{} never came up: {}", d.name, d.log_tail()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn exited(&mut self) -> Result<bool, String> {
        match self.child.as_mut() {
            Some(c) => Ok(c.try_wait().map_err(|e| e.to_string())?.is_some()),
            None => Ok(true),
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// `GET /metrics` (one connection of the budget).
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut s = connect(&self.addr).map_err(|e| format!("scrape: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("scrape write: {e}"))?;
        let mut text = String::new();
        s.read_to_string(&mut text)
            .map_err(|e| format!("scrape read: {e}"))?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or("scrape: no HTTP body")?;
        Ok(Scrape::parse(body))
    }

    /// Waits for the daemon to exit on its own once its connection budget
    /// is spent; kills it and errs if it does not within `timeout`.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until finish");
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => {
                    return Err(format!(
                        "{} exited with {status}: {}",
                        self.name,
                        self.log_tail()
                    ))
                }
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} did not exit after its last connection",
                        self.name
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// One Prometheus text exposition: series key (with labels) → value.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let map = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Self(map)
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Growth of a counter since `earlier`.
    pub fn delta(&self, earlier: &Scrape, key: &str) -> f64 {
        self.get(key) - earlier.get(key)
    }

    /// Observations of histogram `name` since `earlier`.
    pub fn hist_delta(&self, earlier: &Scrape, name: &str) -> HistDelta {
        let mut counts = vec![0u64; hist::BUCKET_COUNT];
        let mut below = 0.0;
        for (i, slot) in counts.iter_mut().enumerate() {
            let le = match hist::BUCKET_BOUNDS.get(i) {
                Some(&b) => hist::format_bound(b),
                None => "+Inf".to_string(),
            };
            let cum = self.delta(earlier, &format!("{name}_bucket{{le=\"{le}\"}}"));
            *slot = (cum - below).max(0.0) as u64;
            below = cum;
        }
        HistDelta {
            counts,
            sum: self.delta(earlier, &format!("{name}_sum")),
            count: self.delta(earlier, &format!("{name}_count")),
        }
    }
}

/// A histogram's observations between two scrapes.
pub struct HistDelta {
    counts: Vec<u64>,
    sum: f64,
    count: f64,
}

impl HistDelta {
    /// Percentile estimated on the shared bucket grid.
    pub fn percentile(&self, q: f64) -> f64 {
        hist::percentile(&self.counts, q)
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.count
    }
}
