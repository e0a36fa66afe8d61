//! The layer probe of traced runs: times calls into each layer's public
//! functions at the workload's own shapes, from outside the program.
//!
//! Every probed call runs inside one of the benchmark's spans; the span
//! file is folded by `trace-summary`, and each layer's time is the mean of
//! its spans. Modules the `Backbone` keeps private (tokenizer, pooling,
//! heads, MLP, LayerNorm) are built same-shaped through their public
//! `new`. Layer times are per model forward: attention and MLP run once
//! per encoder layer, LayerNorm twice.

use crate::daemon::Scrape;
use crate::report::Outcome;
use crate::trace::{mean_ms, phase_totals, Spans};
use crate::Ctx;
use cdcl_autograd::{Graph, Var};
use cdcl_core::{CdclConfig, CdclModel, CdclTrainer, ContinualLearner};
use cdcl_data::DomainPairConfig;
use cdcl_nn::{
    BackboneConfig, ConvTokenizer, GrowingLinear, InterIntraAttention, LayerNorm, Mlp, SeqPool,
    TilHeads,
};
use cdcl_tensor::{kernels, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Timed calls per probed function (after one untimed warm-up call).
const REPS: usize = 30;
/// Target samples per drift-scored window (as `cdcl-traind` windows).
const DRIFT_WINDOW: usize = 6;

/// The shapes a workload runs at.
pub struct Shape {
    pub hw: usize,
    /// Images per forward.
    pub batch: usize,
    pub tasks: usize,
}

impl Shape {
    /// A two-task serving model.
    pub fn serving(hw: usize, batch: usize) -> Self {
        Self {
            hw,
            batch,
            tasks: 2,
        }
    }
}

/// Runs `f` once untimed, then `REPS` times in spans named `name`.
fn repeat<T>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) {
    black_box(f());
    for _ in 0..REPS {
        spans.time(name, || black_box(f()));
    }
}

/// One forward of a module on a fresh tape, the tape outside the span.
fn forward(
    spans: &mut Spans,
    name: &'static str,
    input: &Tensor,
    f: impl Fn(&mut Graph, Var) -> Var,
) {
    black_box(run_forward(input, &f));
    for _ in 0..REPS {
        let mut g = Graph::new();
        let x = g.input(input.clone());
        let id = spans.begin(name);
        let y = f(&mut g, x);
        black_box(g.value(y));
        spans.end(id);
    }
}

fn run_forward(input: &Tensor, f: &impl Fn(&mut Graph, Var) -> Var) -> f32 {
    let mut g = Graph::new();
    let x = g.input(input.clone());
    let y = f(&mut g, x);
    g.value(y).data()[0]
}

/// A small two-task stream at the probe's shape for the trainer probes.
fn stream(shape: &Shape, seed: u64) -> cdcl_data::CrossDomainStream {
    DomainPairConfig {
        name: "probe".into(),
        num_classes: 2 * shape.tasks,
        tasks: shape.tasks,
        channels: 1,
        hw: (shape.hw, shape.hw),
        latent_dim: 8,
        domain_gap: 0.3,
        task_drift: 0.9,
        within_class_std: 0.3,
        source_noise_std: 0.05,
        target_noise_std: 0.05,
        train_per_class: 16,
        target_train_per_class: 16,
        test_per_class: 2,
        seed,
    }
    .generate()
}

pub fn run(ctx: &mut Ctx, shape: &Shape, out: &mut Outcome) -> Result<(), String> {
    cdcl_telemetry::set_trace_file(None);
    cdcl_obs::set_enabled(true);
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x05ee_d0f9_a0be);
    let config = BackboneConfig {
        in_hw: (shape.hw, shape.hw),
        ..BackboneConfig::default()
    };
    let (b, d, depth) = (shape.batch, config.embed_dim, config.depth);
    let hidden = d * config.mlp_ratio;
    let task = shape.tasks - 1;
    let tokenizer = ConvTokenizer::new(
        &mut rng,
        config.in_channels,
        config.in_hw,
        d,
        config.tokenizer_stages,
        config.tokenizer_kernel,
    );
    let n = tokenizer.token_count();
    let images = Tensor::randn(&mut rng, &[b, config.in_channels, shape.hw, shape.hw], 1.0);
    let images2 = Tensor::randn(&mut rng, &[b, config.in_channels, shape.hw, shape.hw], 1.0);
    let tokens = Tensor::randn(&mut rng, &[b, n, d], 1.0);
    let pooled = Tensor::randn(&mut rng, &[b, d], 1.0);
    let mut attn = InterIntraAttention::new(
        &mut rng,
        "probe.attn",
        d,
        config.attention,
        config.attn_softmax,
    );
    let mut til = TilHeads::new(d);
    let mut cil = GrowingLinear::new(&mut rng, "probe.cil", d, 0);
    let mut model = CdclModel::new(&mut rng, config);
    for _ in 0..shape.tasks {
        attn.add_task(&mut rng);
        til.add_task(&mut rng, 2);
        cil.grow(&mut rng, 2);
        model.add_task(&mut rng, 2);
    }
    let mlp = Mlp::new(&mut rng, "probe.mlp", d, hidden);
    let norm = LayerNorm::new("probe.norm", d);
    let pool = SeqPool::new(&mut rng, d);
    let labels = vec![0usize; b];

    let spans = &mut ctx.spans;
    let root = spans.begin("probe");
    forward(spans, "nn.tokenizer", &images, |g, x| {
        tokenizer.forward(g, x)
    });
    forward(spans, "nn.attention", &tokens, |g, x| {
        attn.forward_self(g, x, task)
    });
    forward(spans, "nn.mlp", &tokens, |g, x| mlp.forward(g, x));
    forward(spans, "nn.layernorm", &tokens, |g, x| norm.forward(g, x));
    forward(spans, "nn.seqpool", &tokens, |g, x| pool.forward(g, x));
    forward(spans, "nn.heads", &pooled, |g, x| til.forward(g, x, task));
    forward(spans, "nn.heads", &pooled, |g, x| cil.forward(g, x));
    repeat(spans, "model.predict", || model.predict_cil(&images));
    let before = kernels::counter_snapshot();
    black_box(model.predict_cil(&images));
    let fmas_per_forward = kernels::counter_snapshot().delta_since(&before).gemm_fmas as f64;
    let mut g = Graph::new();
    let x = g.input(images.clone());
    let z = model.features_self(&mut g, x, task);
    black_box(model.cil_logits(&mut g, z));
    let tape_nodes = g.len() as f64;
    for rep in 0..=REPS {
        let mut g = Graph::new();
        let x = g.input(images.clone());
        let z = model.features_self(&mut g, x, task);
        let logits = model.til_logits(&mut g, z, task);
        let lp = g.log_softmax_last(logits);
        let loss = g.nll_loss(lp, &labels);
        if rep == 0 {
            g.backward(loss);
        } else {
            spans.time("autograd.backward", || g.backward(loss));
        }
    }
    repeat(spans, "nn.cross_step", || {
        let mut g = Graph::new();
        let xs = g.input(images.clone());
        let xt = g.input(images2.clone());
        let z = model.features_cross(&mut g, xs, xt, task);
        let logits = model.cil_logits(&mut g, z);
        let lp = g.log_softmax_last(logits);
        let loss = g.nll_loss(lp, &labels);
        g.backward(loss);
    });

    // GEMMs at the workload's shapes: MLP expansion (nn), attention
    // scores per image (nt), and the MLP weight gradient (tn).
    let m = b * n;
    let mut buf = |len: usize| Tensor::randn(&mut rng, &[len], 1.0).data().to_vec();
    let (a_nn, b_nn, mut c_nn) = (buf(m * d), buf(d * hidden), vec![0.0f32; m * hidden]);
    let (q, k, mut s) = (buf(m * d), buf(m * d), vec![0.0f32; b * n * n]);
    let (x_tn, dy_tn, mut dw) = (buf(m * d), buf(m * hidden), vec![0.0f32; d * hidden]);
    repeat(spans, "kernels.gemm_nn", || {
        kernels::gemm_nn(&mut c_nn, &a_nn, &b_nn, m, d, hidden)
    });
    repeat(spans, "kernels.gemm_nt", || {
        kernels::gemm_nt_batched(&mut s, &q, &k, b, n, d, n)
    });
    repeat(spans, "kernels.gemm_tn", || {
        kernels::gemm_tn(&mut dw, &x_tn, &dy_tn, d, m, hidden)
    });

    // A trainer at the workload's shape: step times from its registry
    // histograms, then drift scoring and snapshot I/O on the result.
    let data = stream(shape, ctx.seed);
    let mut cfg = CdclConfig::smoke();
    cfg.backbone.in_hw = (shape.hw, shape.hw);
    cfg.epochs = 2;
    cfg.warmup_epochs = 1;
    cfg.seed = ctx.seed;
    let registry = || Scrape::parse(&cdcl_obs::global().render_prometheus());
    let reg_before = registry();
    let mut trainer = CdclTrainer::new(cfg);
    for t in &data.tasks {
        trainer.learn_task(t);
    }
    let reg_after = registry();
    let window = &data.tasks[task].target_train[..DRIFT_WINDOW];
    repeat(spans, "drift.score", || trainer.drift_score(window));
    let path = ctx.work.join("probe.cdclsnap");
    let mut io_error = None;
    repeat(spans, "snapshot.save", || {
        if let Err(e) = trainer.save_snapshot(&path) {
            io_error = Some(e.to_string());
        }
    });
    repeat(spans, "snapshot.load", || {
        CdclTrainer::resume_from(&path).is_ok()
    });
    spans.end(root);
    if let Some(e) = io_error {
        return Err(format!("probe snapshot save: {e}"));
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;

    let span_file = ctx.work.join("benchmark-spans.jsonl");
    ctx.spans.write(&span_file)?;
    let totals = phase_totals(
        &ctx.bins,
        &span_file,
        &ctx.work.join("benchmark-spans.summary.json"),
    )?;
    let ms = |name: &str| mean_ms(&totals, name);
    let layers = [
        ("nn.tokenizer_ms", ms("nn.tokenizer")),
        ("nn.attention_ms", ms("nn.attention") * depth as f64),
        ("nn.mlp_ms", ms("nn.mlp") * depth as f64),
        ("nn.layernorm_ms", ms("nn.layernorm") * 2.0 * depth as f64),
        ("nn.seqpool_ms", ms("nn.seqpool")),
        ("nn.heads_ms", ms("nn.heads")),
    ];
    let total: f64 = layers.iter().map(|l| l.1).sum();
    for (name, v) in layers {
        out.layer(name, "ms", v);
    }
    out.layer("nn.attention_share", "ratio", layers[1].1 / total);
    out.layer("nn.cross_step_ms", "ms", ms("nn.cross_step"));
    out.layer("model.predict_ms", "ms", ms("model.predict"));
    out.layer("autograd.tape_nodes_per_forward", "count", tape_nodes);
    out.layer("autograd.backward_ms", "ms", ms("autograd.backward"));
    let gfmas = |fmas: usize, name: &str| fmas as f64 / (ms(name) * 1e6);
    let nn_rate = gfmas(m * d * hidden, "kernels.gemm_nn");
    out.layer("kernels.gemm_nn_gfmas", "GFMA/s", nn_rate);
    out.layer(
        "kernels.gemm_nt_gfmas",
        "GFMA/s",
        gfmas(b * n * d * n, "kernels.gemm_nt"),
    );
    out.layer(
        "kernels.gemm_tn_gfmas",
        "GFMA/s",
        gfmas(d * m * hidden, "kernels.gemm_tn"),
    );
    // Share of a forward the GEMMs would take at the nn rate (an estimate:
    // the forward's GEMMs have several shapes).
    out.layer(
        "kernels.gemm_share",
        "ratio",
        fmas_per_forward / (nn_rate * 1e6) / ms("model.predict"),
    );
    out.layer("drift.score_ms", "ms", ms("drift.score"));
    out.layer("snapshot.save_ms", "ms", ms("snapshot.save"));
    out.layer("snapshot.load_ms", "ms", ms("snapshot.load"));
    out.layer("snapshot.bytes", "B", bytes);
    for (metric, hist) in [
        ("trainer.warmup_step_ms", "cdcl_train_warmup_step_us"),
        (
            "trainer.adaptation_step_ms",
            "cdcl_train_adaptation_step_us",
        ),
    ] {
        out.layer(
            metric,
            "ms",
            reg_after.hist_delta(&reg_before, hist).mean() / 1e3,
        );
    }
    Ok(())
}
