//! The benchmark's side of the JSON-lines protocols: one TCP connection
//! with `TCP_NODELAY`, request encoding, and the checks every response
//! must pass.
//!
//! Without `TCP_NODELAY` a pipelined window stalls on Nagle's algorithm
//! and the peer's delayed ACK, which adds tens of milliseconds that belong
//! to the client, not to the server being measured.

use crate::report::Outcome;
use cdcl_core::CdclTrainer;
use cdcl_tensor::Tensor;
use serde::Value;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest a blocking read waits before the connection counts as hung.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = crate::daemon::connect(addr)?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout on {addr}: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone {addr}: {e}"))?,
        );
        Ok(Self {
            stream,
            reader,
            line: Vec::new(),
        })
    }

    /// Switches the socket between blocking reads ([`Conn::read_line`])
    /// and polling ([`Conn::try_read_line`]). Socket read timeouts are too
    /// coarse (milliseconds) to pace an open loop, so it polls instead.
    pub fn set_polling(&mut self, on: bool) -> Result<(), String> {
        self.stream
            .set_nonblocking(on)
            .map_err(|e| format!("nonblocking mode: {e}"))
    }

    pub fn send(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err("write: connection closed".into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Blocks for the next complete line (without its newline).
    pub fn read_line(&mut self) -> Result<String, String> {
        while !self.poll_fill()? {}
        Ok(self.take_line())
    }

    /// The next complete line if one has arrived (polling mode); a partial
    /// line stays buffered for the next call.
    pub fn try_read_line(&mut self) -> Result<Option<String>, String> {
        Ok(self.poll_fill()?.then(|| self.take_line()))
    }

    /// One buffered read; true once `self.line` ends in a newline.
    fn poll_fill(&mut self) -> Result<bool, String> {
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => Err("connection closed by the server".to_string()),
            Ok(_) => Ok(self.line.ends_with(b"\n")),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn take_line(&mut self) -> String {
        let text = String::from_utf8_lossy(&self.line).trim_end().to_string();
        self.line.clear();
        text
    }
}

/// Which head a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Cil,
    Til(usize),
}

/// Everything of a request line after its id: `,"mode":…,"image":[…]}` and
/// the newline. Encoded once so the generator spends its time sending.
fn request_tail(mode: Mode, image: &[f32]) -> Vec<u8> {
    let mut s = match mode {
        Mode::Cil => String::from(",\"mode\":\"cil\",\"image\":["),
        Mode::Til(t) => format!(",\"mode\":\"til\",\"task\":{t},\"image\":["),
    };
    for (i, x) in image.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push_str("]}\n");
    s.into_bytes()
}

/// [`request_tail`] of every image of the pool in every mode.
pub fn request_tails(images: &[Vec<f32>], modes: &[Mode]) -> Vec<Vec<Vec<u8>>> {
    images
        .iter()
        .map(|img| modes.iter().map(|&m| request_tail(m, img)).collect())
        .collect()
}

/// Appends one request line with `id` to `out`.
pub fn push_request(out: &mut Vec<u8>, id: u64, tail: &[u8]) {
    out.extend_from_slice(b"{\"id\":");
    out.extend_from_slice(id.to_string().as_bytes());
    out.extend_from_slice(tail);
}

/// The floats the server decodes from `image` as rendered by
/// [`request_tail`], so in-process reference predictions see exactly the
/// served input.
pub fn as_served(image: &[f32]) -> Vec<f32> {
    let text: Vec<String> = image.iter().map(|x| x.to_string()).collect();
    serde_json::from_str(&format!("[{}]", text.join(","))).expect("rendered floats parse back")
}

/// Sends `reqs` (id and encoded tail) as one window — their lines, then
/// the blank line that flushes them as one batch — and reads and checks
/// every response in order. `version` is the lowest acceptable answering
/// version and becomes the last one seen. Returns when the window was sent
/// and when each response arrived, with what it served.
pub fn window(
    conn: &mut Conn,
    reqs: &[(u64, &[u8])],
    mode: Mode,
    version: &mut u64,
) -> Result<(Instant, Vec<(Instant, Served)>), String> {
    let mut buf = Vec::new();
    for (id, tail) in reqs {
        push_request(&mut buf, *id, tail);
    }
    buf.push(b'\n');
    let sent = Instant::now();
    conn.send(&buf)?;
    let mut replies = Vec::with_capacity(reqs.len());
    for &(id, _) in reqs {
        let served = check_response(&conn.read_line()?, id, mode, *version)?;
        *version = served.version;
        replies.push((Instant::now(), served));
    }
    Ok((sent, replies))
}

/// A served batch kept for the bitwise check.
pub struct Sampled {
    pub version: u64,
    pub mode: Mode,
    /// Indices into the run's image pool, in batch order.
    pub images: Vec<usize>,
    pub probs: Vec<Vec<f32>>,
}

impl Sampled {
    /// The batch one window's `replies` served; `None` when a hot swap
    /// split the window across two versions.
    pub fn of(mode: Mode, images: Vec<usize>, replies: &[(Instant, Served)]) -> Option<Self> {
        let version = replies.first()?.1.version;
        replies
            .iter()
            .all(|(_, s)| s.version == version)
            .then(|| Self {
                version,
                mode,
                images,
                probs: replies.iter().map(|(_, s)| s.probs.clone()).collect(),
            })
    }

    /// Re-predicts the batch in process on `trainer` (the snapshot that
    /// answered it) and checks every served row bit for bit.
    pub fn check(&self, trainer: &CdclTrainer, pool: &[Vec<f32>], hw: usize, out: &mut Outcome) {
        let data: Vec<f32> = self
            .images
            .iter()
            .flat_map(|&i| pool[i].iter().copied())
            .collect();
        let batch = Tensor::from_vec(data, &[self.images.len(), 1, hw, hw]);
        let probs = match self.mode {
            Mode::Cil => trainer.model().predict_cil(&batch),
            Mode::Til(t) => trainer.model().predict_til(&batch, t),
        };
        let classes = probs.shape()[1];
        for (row, served) in self.probs.iter().enumerate() {
            out.check(check_bitwise(
                served,
                &probs.data()[row * classes..(row + 1) * classes],
            ));
        }
    }
}

/// A response that passed [`check_response`].
#[derive(Debug)]
pub struct Served {
    pub version: u64,
    pub probs: Vec<f32>,
}

pub fn field_u64(v: &Value, name: &str) -> Option<u64> {
    match v.field(name) {
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

pub fn field_bool(v: &Value, name: &str) -> Option<bool> {
    match v.field(name) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

fn field_str<'v>(v: &'v Value, name: &str) -> Option<&'v str> {
    match v.field(name) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Checks one prediction response: the id answers the request sent in
/// that position, `ok` is true (a busy answer is a failure here), the
/// version never goes below `min_version`, the mode and task are echoed,
/// and `probs` is a finite distribution whose argmax is `pred`.
pub fn check_response(line: &str, id: u64, mode: Mode, min_version: u64) -> Result<Served, String> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("unparsable response {line:?}: {e}"))?;
    let got = field_u64(&v, "id");
    if got != Some(id) {
        return Err(format!(
            "out-of-order response: expected id {id}, got {got:?}"
        ));
    }
    if field_bool(&v, "ok") != Some(true) {
        return Err(format!(
            "request {id} failed: {}",
            field_str(&v, "error").unwrap_or("no error text")
        ));
    }
    let version = field_u64(&v, "version").ok_or(format!("request {id}: no version"))?;
    if version < min_version {
        return Err(format!(
            "request {id}: version went back from {min_version} to {version}"
        ));
    }
    let (want_mode, want_task) = match mode {
        Mode::Cil => ("cil", None),
        Mode::Til(t) => ("til", Some(t as u64)),
    };
    if field_str(&v, "mode") != Some(want_mode) || field_u64(&v, "task") != want_task {
        return Err(format!("request {id}: answered in the wrong mode or task"));
    }
    let probs: Vec<f32> = match v.field("probs") {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|x| match x {
                Value::Num(n) => Ok(*n as f32),
                _ => Err(format!("request {id}: non-numeric probability")),
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(format!("request {id}: no probs")),
    };
    if probs.is_empty() || !probs.iter().all(|p| p.is_finite()) {
        return Err(format!("request {id}: empty or non-finite probs"));
    }
    let sum: f32 = probs.iter().sum();
    if (sum - 1.0).abs() > 1e-3 {
        return Err(format!("request {id}: probs sum to {sum}"));
    }
    let argmax = probs
        .iter()
        .enumerate()
        .fold(0, |best, (i, &p)| if p > probs[best] { i } else { best });
    if field_u64(&v, "pred") != Some(argmax as u64) {
        return Err(format!("request {id}: pred is not the argmax of probs"));
    }
    Ok(Served { version, probs })
}

/// Served probabilities must equal an in-process prediction on the same
/// snapshot and batch bit for bit (a JSON f32 round-trips exactly).
pub fn check_bitwise(served: &[f32], reference: &[f32]) -> Result<(), String> {
    let same = served.len() == reference.len()
        && served
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "served probs {served:?} differ from in-process predict {reference:?}"
        ))
    }
}
