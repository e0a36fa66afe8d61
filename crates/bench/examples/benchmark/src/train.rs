//! `train-stream`: continual learning in this process on the paper's
//! MNIST→USPS smoke stream with `CdclConfig::smoke()`, the second task
//! learned on top of the first, over and over. Backward, the optimizer,
//! replay, the cross path and pseudo-labelling do the work; no serving code
//! runs.
//!
//! Set-up generates the stream, builds the trainer, learns task 0 and keeps
//! the trainer as snapshot bytes. Each part of the timed run resumes from
//! those bytes — a restored trainer continues bitwise as the original would
//! — learns task 1, evaluates both tasks (the R-matrix row, whose ACC is
//! paper Eq. 33), then predicts one test image per call `LATENCY_CALLS`
//! times, cycling through both tasks' test sets in TIL and CIL mode. Every
//! part is the same work with the same results: its R-matrix row and every
//! prediction must equal the first part's bit for bit, and the ACC must be
//! the one the benchmark was defined with. `--seed` does not change this
//! workload.
//!
//! Parts last a few seconds each, so a run holds several; the end-to-end
//! values are taken from the fastest parts (`stats::best_parts`), and
//! `adapt_p50_s` is the median `learn_task` time over the parts.

use crate::client::check_bitwise;
use crate::report::Outcome;
use crate::stats::{best_parts, median, percentile};
use crate::trace::{mean_ms, phase_totals};
use crate::{probe, Ctx};
use cdcl_core::{CdclConfig, CdclTrainer, ContinualLearner};
use cdcl_data::{mnist_usps, CrossDomainStream, MnistUspsDirection, Scale};
use cdcl_tensor::kernels::{self, KernelCounters};
use cdcl_tensor::{pool, PoolStats, Tensor};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Tasks of the stream each part covers: task 0 in set-up, task 1 per part.
const TASKS: usize = 2;
/// Batch-1 predict calls per part (so its p99 has ten calls beyond it).
const LATENCY_CALLS: usize = 1000;
/// Fewest parts per run, even on a slow host.
const MIN_PARTS: usize = 4;
/// ACC (%) of the TIL and CIL R-matrix row after task 1 at the commit that
/// defined this benchmark. Results must not change with performance work.
const EXPECTED_ACC_PCT: (f64, f64) = (100.0, 100.0);
/// Trainer phases reported from the traced run.
const PHASES: [&str; 5] = [
    "pseudo_assign",
    "centroid_fit",
    "pair_filter",
    "replay",
    "memory_select",
];

/// One set-up: the stream, and the trainer after task 0 as snapshot bytes.
fn set_up() -> (CrossDomainStream, Vec<u8>) {
    let stream = mnist_usps(MnistUspsDirection::MnistToUsps, Scale::Smoke);
    let mut trainer = CdclTrainer::new(CdclConfig::smoke());
    trainer.learn_task(&stream.tasks[0]);
    (stream, trainer.snapshot_bytes())
}

/// What one part measured and produced.
struct Part {
    learn_s: f64,
    /// Seconds of `learn_task` plus the evaluation of both tasks.
    busy_s: f64,
    latency_ms: Vec<f64>,
    /// The R-matrix row after task 1: (TIL, CIL) accuracy per task.
    row: (Vec<f64>, Vec<f64>),
    probs: Vec<Vec<f32>>,
}

/// The batch-1 predict calls of a part: every (task, test image, mode).
fn predict_calls(stream: &CrossDomainStream) -> Vec<(usize, Tensor, bool)> {
    stream.tasks[..TASKS]
        .iter()
        .enumerate()
        .flat_map(|(t, task)| task.target_test.iter().map(move |s| (t, s)))
        .flat_map(|(t, s)| {
            let mut shape = vec![1];
            shape.extend_from_slice(s.image.shape());
            let image = Tensor::from_vec(s.image.data().to_vec(), &shape);
            [(t, image.clone(), true), (t, image, false)]
        })
        .collect()
}

fn part(
    stream: &CrossDomainStream,
    snapshot: &[u8],
    calls: &[(usize, Tensor, bool)],
) -> Result<Part, String> {
    let mut trainer = CdclTrainer::from_snapshot_bytes(snapshot)
        .map_err(|e| format!("resume after task 0: {e}"))?;
    let t = Instant::now();
    trainer.learn_task(&stream.tasks[1]);
    let learn_s = t.elapsed().as_secs_f64();
    let seen = stream.tasks[..TASKS].iter().enumerate();
    let row = (
        seen.clone()
            .map(|(j, s)| trainer.eval_til(j, &s.target_test))
            .collect(),
        seen.map(|(j, s)| trainer.eval_cil(j, &s.target_test))
            .collect(),
    );
    let busy_s = t.elapsed().as_secs_f64();
    let mut latency_ms = Vec::with_capacity(LATENCY_CALLS);
    let mut probs = Vec::with_capacity(calls.len());
    for i in 0..LATENCY_CALLS {
        let (task, image, til) = &calls[i % calls.len()];
        let t = Instant::now();
        let p = if *til {
            trainer.model().predict_til(image, *task)
        } else {
            trainer.model().predict_cil(image)
        };
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if i < calls.len() {
            probs.push(p.data().to_vec());
        }
    }
    Ok(Part {
        learn_s,
        busy_s,
        latency_ms,
        row,
        probs,
    })
}

/// A part must reproduce the first one bit for bit.
fn check_same(first: &Part, p: &Part, out: &mut Outcome) {
    out.check(if p.row == first.row {
        Ok(())
    } else {
        Err(format!(
            "R-matrix row {:?} differs from the first part's {:?}",
            p.row, first.row
        ))
    });
    for (got, want) in p.probs.iter().zip(&first.probs) {
        out.check(check_bitwise(got, want));
    }
}

pub fn run(ctx: &mut Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let (stream, snapshot) = set_up();
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((_, first)) = &ready {
            out.check(if &snapshot == first {
                Ok(())
            } else {
                Err("set-ups learned task 0 differently".to_string())
            });
        }
        ready = Some((stream, snapshot));
    }
    let (stream, snapshot) = ready.expect("at least one set-up");
    out.e2e("setup_s", "s", median(&setup_s));
    out.sample("setup_s", setup_s);
    let config = CdclConfig::smoke();
    let task = &stream.tasks[1];
    let work = (task.source_train.len() * config.epochs
        + task.target_train.len() * (config.epochs - config.warmup_epochs)) as f64;
    let calls = predict_calls(&stream);

    let trace = ctx.work.join("train-trace.jsonl");
    if ctx.trace {
        cdcl_telemetry::set_trace_file(Some(&trace));
        cdcl_obs::set_enabled(true);
    }
    let (k0, p0) = (kernels::counter_snapshot(), pool::pool_stats());
    let started = Instant::now();
    let mut parts: Vec<Part> = Vec::new();
    // Another part starts only if the run then ends nearer `--seconds`.
    let mut last_s = 0.0;
    while parts.len() < MIN_PARTS || started.elapsed().as_secs_f64() + last_s / 2.0 < ctx.seconds {
        out.attempt(1);
        let t = Instant::now();
        let p = part(&stream, &snapshot, &calls)?;
        last_s = t.elapsed().as_secs_f64();
        if let Some(first) = parts.first() {
            check_same(first, &p, out);
        }
        parts.push(p);
    }
    // The counters cover the predict calls too: per training sample × epoch
    // they are the whole part's work.
    let (k, p): (KernelCounters, PoolStats) = (
        kernels::counter_snapshot().delta_since(&k0),
        pool::pool_stats().delta_since(&p0),
    );
    if ctx.trace {
        cdcl_telemetry::flush();
        cdcl_telemetry::set_trace_file(None);
    }

    // ACC (Eq. 33): mean of the R-matrix row, in percent.
    let acc = |row: &[f64]| 100.0 * row.iter().sum::<f64>() / row.len() as f64;
    let row = &parts[0].row;
    let accs = (acc(&row.0), acc(&row.1));
    out.check(check_acc(accs));

    let per_part = |f: &dyn Fn(&Part) -> f64| parts.iter().map(f).collect::<Vec<f64>>();
    let throughput = per_part(&|p| work / p.busy_s);
    let p50 = per_part(&|p| percentile(&p.latency_ms, 0.5));
    let p99 = per_part(&|p| percentile(&p.latency_ms, 0.99));
    let learn_s = per_part(&|p| p.learn_s);
    out.e2e("throughput_per_s", "1/s", best_parts(&throughput, true));
    out.e2e("latency_p50_ms", "ms", best_parts(&p50, false));
    out.e2e("latency_p99_ms", "ms", best_parts(&p99, false));
    out.e2e("adapt_p50_s", "s", median(&learn_s));
    out.extra("acc_til_pct", "%", accs.0);
    out.extra("acc_cil_pct", "%", accs.1);
    out.extra("parts", "count", parts.len() as f64);
    let ops = work * parts.len() as f64;
    out.layer(
        "kernels.gemm_fmas_per_op",
        "count",
        k.gemm_fmas as f64 / ops,
    );
    out.layer(
        "kernels.gemm_calls_per_op",
        "count",
        k.gemm_calls as f64 / ops,
    );
    out.layer("kernels.spawns_per_op", "count", k.pool_spawns as f64 / ops);
    out.layer("pool.hit_rate", "ratio", p.hit_rate());
    out.layer("pool.alloc_bytes_per_op", "B", p.alloc_bytes as f64 / ops);
    out.sample("part_throughput_per_s", throughput);
    out.sample("part_latency_p50_ms", p50);
    out.sample("part_latency_p99_ms", p99);
    out.sample("learn_task_s", learn_s);
    if ctx.trace {
        let totals = phase_totals(
            &ctx.bins,
            &trace,
            &ctx.work.join("train-trace.summary.json"),
        )?;
        for phase in PHASES {
            out.extra(
                &format!("trainer.phase_ms.{phase}"),
                "ms",
                mean_ms(&totals, phase),
            );
        }
        let shape = probe::Shape {
            hw: config.backbone.in_hw.0,
            batch: config.batch_size,
            tasks: TASKS,
        };
        probe::run(ctx, &shape, out)?;
    }
    Ok(())
}

/// The R-matrix row's ACC must be exactly what it was when the benchmark
/// was defined: any change is a change to the reproduction's results.
pub fn check_acc(acc: (f64, f64)) -> Result<(), String> {
    if acc == EXPECTED_ACC_PCT {
        Ok(())
    } else {
        Err(format!(
            "ACC (TIL, CIL) = {acc:?} %, expected {EXPECTED_ACC_PCT:?} %"
        ))
    }
}
