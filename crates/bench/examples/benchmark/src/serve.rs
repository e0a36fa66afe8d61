//! The serving workloads: load from this process against a live
//! `cdcl-serve` holding a two-task snapshot trained in set-up.
//!
//! * `serve-batch-n64` — closed loop, 2 connections each pipelining
//!   windows of 16 requests at 1×32×32 (n = 64 tokens, d = 32). Windows
//!   rotate CIL / TIL task 0 / TIL task 1, so every window is one batch of
//!   16 on the server and the forward — where the `d·n²` attention term
//!   shows — dominates.
//! * `serve-open-n16` — batch-1 requests at 1×16×16 (every request is its
//!   own batch): a capacity segment with a few requests in flight on one
//!   connection, then seeded Poisson arrivals over 2 connections at each
//!   rate of a fixed ladder, timed from each request's scheduled send time.
//!   Per-request costs and queueing dominate.
//!
//! Both cut the timed load into parts with hot swaps between them — time
//! slices on the closed loop, cycles through the whole ladder on the open
//! loop. Throughput and latency percentiles are computed per part, each
//! from over a thousand responses, and reported from the fastest parts
//! (`stats::best_parts`); `adapt_p50_s` is the median over all hot swaps.

use crate::client::{self, check_response, Conn, Mode, Sampled};
use crate::daemon::{free_addr, Daemon, Scrape};
use crate::report::Outcome;
use crate::stats::{best_parts, median, percentile};
use crate::{probe, Ctx};
use cdcl_core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl_data::{CrossDomainStream, DomainPairConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
const WINDOW: usize = 16;
/// `cdcl-serve --max-batch`: a flush never batches more requests.
const MAX_BATCH: usize = 32;
const MODES: [Mode; 3] = [Mode::Cil, Mode::Til(0), Mode::Til(1)];
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const WARMUP: Duration = Duration::from_secs(1);
/// Every this-many-th window (closed loop) or request (open loop) is
/// checked bit for bit against an in-process prediction: 3.1 % ≥ 1 %.
const SAMPLE_EVERY: u64 = 32;
/// Fewest hot swaps timed for `adapt_p50_s`, spread over the slices.
const RELOADS: usize = 50;
/// Closed-loop slice length: long enough for over a thousand responses,
/// so each slice's p99 has ten beyond it even on a slow host.
const SLICE_S: f64 = 4.0;
/// Connections the benchmark opens to serve: readiness probe, a scrape
/// before and after the timed load, and the load connections.
const SERVE_CONNS: usize = 3 + CONNS;

/// Open-loop rates (requests/s over both connections). On a 2-vCPU host
/// the median run of the commit that defined the benchmark meets the SLO
/// at 900 requests/s and misses it from 1200 on.
const LADDER_RPS: [f64; 5] = [600.0, 900.0, 1200.0, 1500.0, 1800.0];
/// The step whose latencies are `latency_p50_ms` / `latency_p99_ms`.
const REFERENCE_STEP: usize = 0;
/// Cycles of the open-loop workload: capacity segment, the ladder, hot
/// swaps.
const CYCLES: usize = 5;
/// Share of a cycle taken by the capacity segment and by each ladder step.
/// The reference step gets the most: at `--seconds 22` it runs 1.76 s per
/// cycle, so each cycle's p99 there has more than ten samples beyond it.
const SEGMENT_WEIGHTS: [f64; 1 + LADDER_RPS.len()] = [1.0, 2.4, 0.65, 0.65, 0.65, 0.65];
/// Latency limit on the p99 (ms) that defines `rps_at_slo`.
const SLO_P99_MS: f64 = 25.0;
/// How long an open-loop step waits for outstanding responses.
const GRACE: Duration = Duration::from_secs(5);
/// Longest an open loop sleeps between polls of its connection.
const POLL: Duration = Duration::from_micros(50);

/// The snapshot being served, the request pool, and the server.
struct Fixture {
    snapshot: PathBuf,
    /// Request images exactly as the server decodes them.
    images: Vec<Vec<f32>>,
    /// Pre-encoded request tails per image, per entry of `MODES`.
    tails: Vec<Vec<Vec<u8>>>,
    hw: usize,
}

/// The serving scenario: 2 tasks of 2 classes at `hw`×`hw`, all drawn
/// from the run's seed.
fn scenario(hw: usize, seed: u64) -> CrossDomainStream {
    DomainPairConfig {
        name: format!("serve-{hw}"),
        num_classes: 4,
        tasks: 2,
        channels: 1,
        hw: (hw, hw),
        latent_dim: 8,
        domain_gap: 0.3,
        task_drift: 0.9,
        within_class_std: 0.3,
        source_noise_std: 0.05,
        target_noise_std: 0.05,
        train_per_class: 8,
        target_train_per_class: 8,
        test_per_class: 8,
        seed,
    }
    .generate()
}

/// Warm-up-only training: the served snapshot's quality is irrelevant to
/// serving cost, and one epoch keeps set-up short.
fn train_config(hw: usize, seed: u64) -> CdclConfig {
    let mut config = CdclConfig::smoke();
    config.backbone.in_hw = (hw, hw);
    config.epochs = 1;
    config.warmup_epochs = 1;
    config.seed = seed;
    config
}

/// Set-up, timed `SETUP_REPS` times: generate the data, train and save
/// the snapshot, start `cdcl-serve` on it and wait until it accepts.
fn setup(ctx: &Ctx, hw: usize, out: &mut Outcome) -> Result<(Fixture, Daemon), String> {
    let snapshot = ctx.work.join(format!("serve-{hw}.cdclsnap"));
    let mut times = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let started = Instant::now();
        let stream = scenario(hw, ctx.seed);
        let mut trainer = CdclTrainer::new(train_config(hw, ctx.seed));
        for task in &stream.tasks {
            trainer.learn_task(task);
        }
        trainer
            .save_snapshot(&snapshot)
            .map_err(|e| format!("save snapshot: {e}"))?;
        let addr = free_addr()?;
        let budget = if last { SERVE_CONNS } else { 1 }.to_string();
        let path = snapshot.to_string_lossy();
        let max_batch = MAX_BATCH.to_string();
        let args = [
            "--snapshot",
            &path,
            "--tcp",
            &addr,
            "--conns",
            &budget,
            "--max-batch",
            &max_batch,
            "--bench-out",
            "none",
        ];
        let env = ctx.trace_env("serve");
        let log = ctx.work.join(format!("serve-{rep}.log"));
        let serve = Daemon::start(&ctx.bins.path("cdcl-serve"), &args, &env, addr.clone(), log)?;
        times.push(started.elapsed().as_secs_f64());
        if last {
            ready = Some((stream, serve));
        } else {
            serve.finish(Duration::from_secs(10))?;
        }
    }
    out.e2e("setup_s", "s", median(&times));
    out.sample("setup_s", times);
    let (stream, serve) = ready.expect("last set-up keeps its server");
    let images: Vec<Vec<f32>> = stream
        .tasks
        .iter()
        .flat_map(|t| &t.target_test)
        .map(|s| client::as_served(s.image.data()))
        .collect();
    let tails = client::request_tails(&images, &MODES);
    let fx = Fixture {
        snapshot,
        images,
        tails,
        hw,
    };
    Ok((fx, serve))
}

/// Request `seq` of connection `conn`: its id (unique across connections)
/// and its image, picked deterministically from the pool.
fn request(fx: &Fixture, conn: usize, seq: u64) -> (u64, usize) {
    let id = ((conn as u64 + 1) << 32) | seq;
    (id, (seq as usize + conn * 17) % fx.images.len())
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// What one connection measured.
#[derive(Default)]
struct ConnLoad {
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ok: u64,
    sent: u64,
    failures: Vec<String>,
    sampled: Vec<Sampled>,
}

impl ConnLoad {
    fn merge(loads: Vec<ConnLoad>) -> ConnLoad {
        let mut all = ConnLoad::default();
        for l in loads {
            all.lat_ms.extend(l.lat_ms);
            all.lag_ms.extend(l.lag_ms);
            all.ok += l.ok;
            all.sent += l.sent;
            all.failures.extend(l.failures);
            all.sampled.extend(l.sampled);
        }
        all
    }

    fn count_into(&self, out: &mut Outcome) {
        out.attempt(self.sent);
        for f in &self.failures {
            out.fail(f.clone());
        }
    }
}

/// Where a load connection left off: its next request number and the
/// newest model version that has answered it, which may never go back.
#[derive(Clone, Copy, Default)]
struct Cursor {
    seq: u64,
    version: u64,
}

/// Closed loop on one connection until `until`: send a window of
/// `window` requests plus the blank line that flushes it, read and check
/// its responses, repeat.
fn closed_loop(
    conn: &mut Conn,
    c: usize,
    fx: &Fixture,
    until: Instant,
    at: &mut Cursor,
    window: usize,
) -> ConnLoad {
    let mut load = ConnLoad::default();
    let mut sent_windows = 0u64;
    while Instant::now() < until {
        let mode = (sent_windows as usize + c) % MODES.len();
        let reqs: Vec<(u64, usize)> = (0..window)
            .map(|k| request(fx, c, at.seq + k as u64))
            .collect();
        at.seq += window as u64;
        let lines: Vec<(u64, &[u8])> = reqs
            .iter()
            .map(|&(id, img)| (id, fx.tails[img][mode].as_slice()))
            .collect();
        load.sent += window as u64;
        match client::window(conn, &lines, MODES[mode], &mut at.version) {
            Ok((sent, replies)) => {
                load.ok += replies.len() as u64;
                load.lat_ms
                    .extend(replies.iter().map(|&(at, _)| ms(sent, at)));
                if sent_windows.is_multiple_of(SAMPLE_EVERY) {
                    let images = reqs.iter().map(|r| r.1).collect();
                    load.sampled
                        .extend(Sampled::of(MODES[mode], images, &replies));
                }
            }
            Err(e) => {
                load.failures.push(format!("conn {c}: {e}"));
                return load;
            }
        }
        sent_windows += 1;
    }
    load
}

/// Batch-1 requests in flight on one connection in the capacity segment.
const IN_FLIGHT: usize = 4;

/// Closed loop on one connection until `until` with `IN_FLIGHT` batch-1
/// requests in flight: every reply is answered by the next request. The
/// server then always has a request queued, so no reply waits on waking an
/// idle core — with one request in flight that wait swings with the host —
/// and each reply is acknowledged at once by the request that follows it.
/// (Sent together, batch-1 replies would sit behind Nagle's algorithm on
/// the server's socket until the client's delayed ACK.)
fn rolling_loop(
    conn: &mut Conn,
    c: usize,
    fx: &Fixture,
    until: Instant,
    at: &mut Cursor,
) -> ConnLoad {
    let mut load = ConnLoad::default();
    let mut pending: VecDeque<(u64, usize, usize, Instant)> = VecDeque::new();
    let mut buf = Vec::new();
    let mut run = || -> Result<(), String> {
        loop {
            if pending.len() < IN_FLIGHT && Instant::now() < until {
                let (id, img) = request(fx, c, at.seq);
                let mode = (at.seq as usize + c) % MODES.len();
                at.seq += 1;
                buf.clear();
                client::push_request(&mut buf, id, &fx.tails[img][mode]);
                buf.push(b'\n');
                conn.send(&buf)?;
                load.sent += 1;
                pending.push_back((id, mode, img, Instant::now()));
                continue;
            }
            let Some((id, mode, img, sent)) = pending.pop_front() else {
                return Ok(());
            };
            let line = conn.read_line()?;
            let arrived = Instant::now();
            let served = check_response(&line, id, MODES[mode], at.version)?;
            at.version = served.version;
            load.ok += 1;
            load.lat_ms.push(ms(sent, arrived));
            if (id & 0xffff_ffff).is_multiple_of(SAMPLE_EVERY) {
                let replies = [(arrived, served)];
                load.sampled
                    .extend(Sampled::of(MODES[mode], vec![img], &replies));
            }
        }
    };
    if let Err(e) = run() {
        load.failures.push(format!("conn {c}: {e}"));
    }
    load
}

/// Exponential inter-arrival gap (seconds) at `rate` per second.
fn gap(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate
}

/// Open loop on one connection for `dur`: each request is sent at its
/// seeded Poisson time whether or not earlier ones were answered, flushed
/// as its own window, and timed from when it was due. The connection is
/// polled between sends, every `POLL` at most.
fn open_loop(
    conn: &mut Conn,
    c: usize,
    fx: &Fixture,
    rate: f64,
    dur: Duration,
    seed: u64,
    at: &mut Cursor,
) -> ConnLoad {
    let mut load = ConnLoad::default();
    if let Err(e) = conn.set_polling(true) {
        load.failures.push(e);
        return load;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: VecDeque<(u64, usize, usize, Instant)> = VecDeque::new();
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + dur;
    let mut due = start + Duration::from_secs_f64(gap(&mut rng, rate));
    let mut buf = Vec::new();
    let result = loop {
        let now = Instant::now();
        if due < end && due <= now {
            let (id, img) = request(fx, c, at.seq);
            let mode = (at.seq as usize + c) % MODES.len();
            at.seq += 1;
            buf.clear();
            client::push_request(&mut buf, id, &fx.tails[img][mode]);
            buf.push(b'\n');
            load.sent += 1;
            load.lag_ms.push(ms(due, now));
            if let Err(e) = conn.send(&buf) {
                break Err(e);
            }
            pending.push_back((id, mode, img, due));
            due += Duration::from_secs_f64(gap(&mut rng, rate));
            continue;
        }
        match conn.try_read_line() {
            Ok(Some(line)) => {
                let arrived = Instant::now();
                let Some((id, mode, img, due_at)) = pending.pop_front() else {
                    break Err(format!("response nobody asked for: {line}"));
                };
                let served = match check_response(&line, id, MODES[mode], at.version) {
                    Ok(s) => s,
                    Err(e) => break Err(e),
                };
                at.version = served.version;
                load.ok += 1;
                load.lat_ms.push(ms(due_at, arrived));
                if (id & 0xffff_ffff).is_multiple_of(SAMPLE_EVERY) {
                    let replies = [(arrived, served)];
                    load.sampled
                        .extend(Sampled::of(MODES[mode], vec![img], &replies));
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        if due >= end && pending.is_empty() {
            break Ok(());
        }
        if due >= end && now > end + GRACE {
            break Err(format!("{} responses never arrived", pending.len()));
        }
        std::thread::sleep(if due < end {
            (due - now).min(POLL)
        } else {
            POLL
        });
    };
    let restored = conn.set_polling(false);
    if let Err(e) = result.and(restored) {
        load.failures.push(format!("conn {c}: {e}"));
    }
    load
}

/// Runs `body` on every load connection at once, one thread each.
fn on_all<F>(conns: &mut [Conn], cursors: &mut [Cursor], body: F) -> ConnLoad
where
    F: Fn(&mut Conn, usize, &mut Cursor) -> ConnLoad + Sync,
{
    let loads = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, (conn, at))| {
                let body = &body;
                s.spawn(move || body(conn, c, at))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    ConnLoad::merge(loads)
}

/// `swaps` hot swaps on load connection 0: `RELOAD` the same snapshot (a
/// new version), then one request, which must be answered by that
/// version. Returns seconds from sending `RELOAD` to that answer, per
/// swap; the answers count as served responses.
fn reload_visibility(
    conn: &mut Conn,
    at: &mut Cursor,
    fx: &Fixture,
    swaps: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut times = Vec::new();
    for _ in 0..swaps {
        out.attempt(1);
        let started = Instant::now();
        let result = (|| {
            conn.send(format!("RELOAD default {}\n", fx.snapshot.display()).as_bytes())?;
            let reply: serde::Value = serde_json::from_str(&conn.read_line()?)
                .map_err(|e| format!("RELOAD reply: {e}"))?;
            let swapped = client::field_u64(&reply, "version")
                .filter(|_| client::field_bool(&reply, "ok") == Some(true))
                .ok_or(format!("RELOAD refused: {reply:?}"))?;
            if swapped <= at.version {
                return Err(format!(
                    "RELOAD made version {swapped}, not newer than {}",
                    at.version
                ));
            }
            let (id, img) = request(fx, 0, at.seq);
            at.seq += 1;
            client::window(conn, &[(id, &fx.tails[img][0])], MODES[0], &mut at.version)?;
            if at.version != swapped {
                return Err(format!(
                    "answered by version {} after RELOAD to {swapped}",
                    at.version
                ));
            }
            Ok(started.elapsed().as_secs_f64())
        })();
        match result {
            Ok(t) => times.push(t),
            Err(e) => out.fail(e),
        }
    }
    times
}

/// Re-predicts every sampled batch in-process on the served snapshot and
/// compares bit for bit.
fn check_sampled(fx: &Fixture, sampled: &[Sampled], out: &mut Outcome) {
    match CdclTrainer::resume_from(&fx.snapshot) {
        Ok(trainer) => {
            for s in sampled {
                s.check(&trainer, &fx.images, fx.hw, out);
            }
        }
        Err(e) => out.fail(format!("reload snapshot for checks: {e}")),
    }
}

/// Kernel and pool counters per served response, and the server-side
/// split of request latency, from the `/metrics` scrapes around the load.
/// The `swaps` hot-swap probes served in between count as responses (one
/// batch-1 forward each, next to the load's thousands).
fn server_metrics(
    before: &Scrape,
    after: &Scrape,
    load: &ConnLoad,
    swaps: usize,
    out: &mut Outcome,
) {
    let served = (load.ok + swaps as u64) as f64;
    let client_mean_ms = load.lat_ms.iter().sum::<f64>() / load.lat_ms.len() as f64;
    let per_op = |key: &str| after.delta(before, key) / served;
    out.layer(
        "kernels.gemm_fmas_per_op",
        "count",
        per_op("cdcl_kernel_gemm_fmas_total"),
    );
    out.layer(
        "kernels.gemm_calls_per_op",
        "count",
        per_op("cdcl_kernel_gemm_calls_total"),
    );
    out.layer(
        "kernels.spawns_per_op",
        "count",
        per_op("cdcl_kernel_pool_spawns_total"),
    );
    out.layer(
        "pool.alloc_bytes_per_op",
        "B",
        per_op("cdcl_alloc_bytes_total"),
    );
    let hits = after.delta(before, "cdcl_pool_hits_total");
    let misses = after.delta(before, "cdcl_pool_misses_total");
    out.layer("pool.hit_rate", "ratio", hits / (hits + misses).max(1.0));
    let forward = after.hist_delta(before, "cdcl_serve_batch_latency_us");
    let batch = after.hist_delta(before, "cdcl_serve_batch_size");
    let queue = after.hist_delta(before, "cdcl_serve_queue_depth");
    out.extra("serve.forward_ms_mean", "ms", forward.mean() / 1e3);
    out.extra("serve.forward_ms_p99", "ms", forward.percentile(0.99) / 1e3);
    out.extra(
        "serve.nonforward_ms_mean",
        "ms",
        client_mean_ms - forward.mean() / 1e3,
    );
    out.extra("serve.batch_fill", "ratio", batch.mean() / MAX_BATCH as f64);
    out.extra("serve.queue_depth_p50", "count", queue.percentile(0.5));
}

/// Stops the server (its budget is spent once the load connections close)
/// and runs the checks that need the CPU to themselves.
fn finish(serve: Daemon, conns: Vec<Conn>, fx: &Fixture, load: &ConnLoad, out: &mut Outcome) {
    drop(conns);
    if let Err(e) = serve.finish(Duration::from_secs(10)) {
        out.fail(e);
    }
    check_sampled(fx, &load.sampled, out);
}

pub fn serve_batch(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let (fx, serve) = setup(ctx, 32, out)?;
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::connect(&serve.addr))
        .collect::<Result<_, _>>()?;
    let mut cursors = vec![Cursor::default(); CONNS];
    let warm = Instant::now() + WARMUP;
    let warmup = on_all(&mut conns, &mut cursors, |conn, c, at| {
        closed_loop(conn, c, &fx, warm, at, WINDOW)
    });
    warmup.count_into(out);
    let slices = ((ctx.seconds / SLICE_S).round() as usize).max(1);
    let slice = Duration::from_secs_f64(ctx.seconds / slices as f64);
    let swaps = RELOADS.div_ceil(slices);
    let before = serve.scrape()?;
    let (mut throughput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut loads, mut reloads) = (Vec::new(), Vec::new());
    for _ in 0..slices {
        let started = Instant::now();
        let until = started + slice;
        let load = on_all(&mut conns, &mut cursors, |conn, c, at| {
            closed_loop(conn, c, &fx, until, at, WINDOW)
        });
        throughput.push(load.ok as f64 / started.elapsed().as_secs_f64());
        p50.push(percentile(&load.lat_ms, 0.5));
        p99.push(percentile(&load.lat_ms, 0.99));
        loads.push(load);
        reloads.extend(reload_visibility(
            &mut conns[0],
            &mut cursors[0],
            &fx,
            swaps,
            out,
        ));
    }
    let after = serve.scrape()?;
    let load = ConnLoad::merge(loads);
    load.count_into(out);
    out.e2e("throughput_per_s", "1/s", best_parts(&throughput, true));
    out.e2e("latency_p50_ms", "ms", best_parts(&p50, false));
    out.e2e("latency_p99_ms", "ms", best_parts(&p99, false));
    out.sample("slice_throughput_per_s", throughput);
    out.sample("slice_latency_p50_ms", p50);
    out.sample("slice_latency_p99_ms", p99);
    server_metrics(&before, &after, &load, slices * swaps, out);
    out.e2e("adapt_p50_s", "s", median(&reloads));
    out.sample("latency_ms", load.lat_ms.clone());
    out.sample("adapt_s", reloads);
    finish(serve, conns, &fx, &load, out);
    if ctx.trace {
        probe::run(ctx, &probe::Shape::serving(32, WINDOW), out)?;
    }
    Ok(())
}

pub fn serve_open(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let (fx, serve) = setup(ctx, 16, out)?;
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::connect(&serve.addr))
        .collect::<Result<_, _>>()?;
    let mut cursors = vec![Cursor::default(); CONNS];
    // Every (cycle, step, connection) draws its own arrival schedule.
    let run_step = |conns: &mut [Conn], cursors: &mut [Cursor], cycle: usize, step: usize, dur| {
        let rate = LADDER_RPS[step] / CONNS as f64;
        on_all(conns, cursors, |conn, c, at| {
            let seed = ctx.seed
                ^ ((cycle as u64 + 1) << 48)
                ^ ((step as u64 + 1) << 40)
                ^ ((c as u64 + 1) << 20);
            open_loop(conn, c, &fx, rate, dur, seed, at)
        })
    };
    run_step(&mut conns, &mut cursors, CYCLES, 0, WARMUP).count_into(out);
    let unit = ctx.seconds / (CYCLES as f64 * SEGMENT_WEIGHTS.iter().sum::<f64>());
    let segment = |i: usize| Duration::from_secs_f64(unit * SEGMENT_WEIGHTS[i]);
    let swaps = RELOADS.div_ceil(CYCLES);
    let before = serve.scrape()?;
    let (mut capacity, mut ref_p50, mut ref_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut all = Vec::new();
    let mut steps: Vec<Vec<ConnLoad>> = LADDER_RPS.iter().map(|_| Vec::new()).collect();
    let mut reloads = Vec::new();
    for cycle in 0..CYCLES {
        // Capacity: the server's batch-1 service rate on one connection.
        let started = Instant::now();
        let until = started + segment(0);
        let load = on_all(&mut conns[..1], &mut cursors[..1], |conn, c, at| {
            rolling_loop(conn, c, &fx, until, at)
        });
        capacity.push(load.ok as f64 / started.elapsed().as_secs_f64());
        all.push(load);
        for (i, step) in steps.iter_mut().enumerate() {
            let load = run_step(&mut conns, &mut cursors, cycle, i, segment(1 + i));
            if i == REFERENCE_STEP {
                ref_p50.push(percentile(&load.lat_ms, 0.5));
                ref_p99.push(percentile(&load.lat_ms, 0.99));
            }
            step.push(load);
        }
        reloads.extend(reload_visibility(
            &mut conns[0],
            &mut cursors[0],
            &fx,
            swaps,
            out,
        ));
    }
    let after = serve.scrape()?;
    out.e2e("throughput_per_s", "1/s", best_parts(&capacity, true));
    out.e2e("latency_p50_ms", "ms", best_parts(&ref_p50, false));
    out.e2e("latency_p99_ms", "ms", best_parts(&ref_p99, false));
    out.sample("cycle_capacity_per_s", capacity);
    out.sample("cycle_latency_p50_ms", ref_p50);
    out.sample("cycle_latency_p99_ms", ref_p99);
    let mut ladder = Vec::new();
    for (i, (rate, loads)) in LADDER_RPS.iter().zip(steps).enumerate() {
        let load = ConnLoad::merge(loads);
        let p99 = percentile(&load.lat_ms, 0.99);
        out.extra(&format!("step{i}.rps"), "1/s", *rate);
        out.extra(
            &format!("step{i}.latency_p50_ms"),
            "ms",
            percentile(&load.lat_ms, 0.5),
        );
        out.extra(&format!("step{i}.latency_p99_ms"), "ms", p99);
        out.extra(
            &format!("step{i}.lag_p99_ms"),
            "ms",
            percentile(&load.lag_ms, 0.99),
        );
        ladder.push((*rate, p99));
        if i == REFERENCE_STEP {
            out.sample("latency_ms", load.lat_ms.clone());
        }
        all.push(load);
    }
    let load = ConnLoad::merge(all);
    load.count_into(out);
    out.extra("rps_at_slo", "1/s", rps_at_slo(&ladder));
    out.extra("loadgen.lag_p99_ms", "ms", percentile(&load.lag_ms, 0.99));
    server_metrics(&before, &after, &load, CYCLES * swaps, out);
    out.e2e("adapt_p50_s", "s", median(&reloads));
    out.sample("lag_ms", load.lag_ms.clone());
    out.sample("adapt_s", reloads);
    finish(serve, conns, &fx, &load, out);
    if ctx.trace {
        probe::run(ctx, &probe::Shape::serving(16, 1), out)?;
    }
    Ok(())
}

/// The rate at which the p99 crosses `SLO_P99_MS`, interpolated linearly
/// between the ladder steps on either side of the crossing.
fn rps_at_slo(steps: &[(f64, f64)]) -> f64 {
    match steps.iter().position(|&(_, p99)| p99 > SLO_P99_MS) {
        None => steps.last().map_or(f64::NAN, |s| s.0),
        Some(0) => steps[0].0 * SLO_P99_MS / steps[0].1,
        Some(i) => {
            let ((r0, l0), (r1, l1)) = (steps[i - 1], steps[i]);
            r0 + (r1 - r0) * (SLO_P99_MS - l0) / (l1 - l0)
        }
    }
}
