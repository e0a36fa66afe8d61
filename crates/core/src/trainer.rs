//! Algorithm 1: the CDCL training loop.
//!
//! Per task: instantiate `K_i`/`b_i` + heads, warm up on the labelled source
//! (Eqs. 9, 12), then alternate — rebuild centroids and pseudo-labels every
//! epoch (Eqs. 17–19), optimize the CIL/TIL loss triples on matched pairs
//! (Eqs. 9–16) plus the rehearsal losses on memory records (Eqs. 20–23) —
//! and finally store the task's highest-confidence pairs in memory.

use cdcl_autograd::{Graph, Var};
use cdcl_data::{stack, Batcher, Sample, TaskData};
use cdcl_nn::Module;
use cdcl_optim::{AdamW, LrSchedule, Optimizer, WarmupCosine};
use cdcl_telemetry as telemetry;
use cdcl_tensor::{kernels, PooledBuf, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::health;
use crate::memory::{MemoryRecord, RehearsalMemory};
use crate::model::CdclModel;
use crate::protocol::{accuracy_from_predictions, ContinualLearner};
use crate::pseudo::{
    build_pairs, label_flip_rate, nearest_centroid_labels, weighted_centroids, Pair,
};
use crate::CdclConfig;

/// Inference chunk size (bounds peak memory during evaluation).
const EVAL_CHUNK: usize = 32;

/// One drift-scored window: the nearest archived task under the cosine
/// centroid match of [`CdclTrainer::drift_score`], its distance
/// (`1 − mean max-cosine`, the [`crate::DriftDetector`] input), and the
/// margin to the runner-up task (0 when only one task has centroids).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftScore {
    /// Nearest archived task id.
    pub task: usize,
    /// Distance of the window to that task's centroid set.
    pub distance: f64,
    /// Runner-up distance minus best distance (task-ID confidence).
    pub margin: f64,
}

/// The CDCL learner: model + memory + optimizer + Algorithm 1.
///
/// Fields are `pub(crate)` so the snapshot module (`crate::snapshot`) can
/// export and reassemble the full state without widening the public API.
pub struct CdclTrainer {
    pub(crate) config: CdclConfig,
    pub(crate) model: CdclModel,
    pub(crate) memory: RehearsalMemory,
    pub(crate) optimizer: AdamW,
    pub(crate) rng: SmallRng,
    pub(crate) replay_cursor: usize,
    /// Pairs built during the last adaptation epoch (reused for memory
    /// candidate selection at task end).
    pub(crate) last_pairs: Vec<Pair>,
    /// Whether the current task's first training graph has already been
    /// through the full verifier (reset by `learn_task`).
    pub(crate) graph_verified: bool,
    /// Final pseudo-label centroids (Eq. 17, second center-aware round) of
    /// each completed task: `centroids[t]` is `[u_t, d]`, or `[0, d]` when
    /// the task trained without an adaptation epoch. Persisted in snapshots
    /// for TADIL-style serve-time task inference.
    pub(crate) centroids: Vec<Tensor>,
    /// Second-round centroids of the most recent `refresh_pairs` call —
    /// promoted into `centroids` when the task ends.
    pub(crate) last_centroids: Option<Tensor>,
    /// Per-step tape arena: reset (capacity retained) at the top of every
    /// warm-up/adaptation step instead of constructing a fresh `Graph`, so
    /// steady-state steps record and differentiate without allocating
    /// (DESIGN.md §12). Not part of snapshots — it carries no learner state
    /// between steps.
    pub(crate) step_graph: Graph,
}

impl CdclTrainer {
    /// Builds a fresh CDCL learner.
    pub fn new(config: CdclConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let model = CdclModel::new(&mut rng, config.backbone);
        let optimizer = AdamW::with_weight_decay(model.params(), config.weight_decay);
        Self {
            config,
            model,
            memory: RehearsalMemory::new(config.memory_size),
            optimizer,
            rng,
            replay_cursor: 0,
            last_pairs: Vec::new(),
            graph_verified: false,
            centroids: Vec::new(),
            last_centroids: None,
            step_graph: Graph::new(),
        }
    }

    /// The underlying model (for tests and analysis).
    pub fn model(&self) -> &CdclModel {
        &self.model
    }

    /// The rehearsal memory (for tests and analysis).
    pub fn memory(&self) -> &RehearsalMemory {
        &self.memory
    }

    /// The active configuration.
    pub fn config(&self) -> &CdclConfig {
        &self.config
    }

    /// Final pseudo-label centroids (Eq. 17) per completed task:
    /// `task_centroids()[t]` is `[u_t, d]` (`[0, d]` for tasks that never
    /// ran an adaptation epoch). These are what `cdcl-serve` uses for
    /// nearest-centroid task-ID inference.
    pub fn task_centroids(&self) -> &[Tensor] {
        &self.centroids
    }

    /// The `(channels, height, width)` shape one inference image must
    /// flatten to. Serving code (request validation, snapshot-registry
    /// compatibility checks) routes through this instead of reaching into
    /// the backbone config.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        let (h, w) = self.config.backbone.in_hw;
        (self.config.backbone.in_channels, h, w)
    }

    /// Re-verifies every task of a restored model through the graph
    /// verifier before it is put behind a serving endpoint: one
    /// forward-only graph per task (through that task's `K_i`/`b_i` and
    /// TIL head) is checked for shape consistency and the §IV-A freezing
    /// contract over [`CdclModel::expected_frozen_params`]. A snapshot that
    /// passed the loader's structural validation but violates the freezing
    /// invariants is refused here.
    pub fn verify_frozen_serving(&self) -> Result<(), String> {
        let frozen = self.model.expected_frozen_params();
        let (c, h, w) = self.input_dims();
        for t in 0..self.model.num_tasks() {
            let mut g = Graph::new();
            let x = g.input(Tensor::zeros(&[1, c, h, w]));
            let z = self.model.features_self(&mut g, x, t);
            let til = self.model.til_logits(&mut g, z, t);
            let lp = g.log_softmax_last(til);
            let loss = g.nll_loss(lp, &[0]);
            g.verify(loss, &frozen)
                .map_err(|e| format!("snapshot failed graph re-verification for task {t}: {e}"))?;
        }
        if telemetry::enabled() {
            telemetry::Event::new("serve")
                .name("frozen_reverified")
                .u64_field("tasks", self.model.num_tasks() as u64)
                .u64_field("frozen_params", frozen.len() as u64)
                .emit();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Feature / probability extraction (inference mode, chunked)
    // ------------------------------------------------------------------

    fn stack_batch(samples: &[Sample], idx: &[usize]) -> (Tensor, Vec<usize>) {
        let refs: Vec<&Sample> = idx.iter().map(|&i| &samples[i]).collect();
        stack(&refs)
    }

    /// `√(Σ_θ ‖∇θ‖²)` over all model parameters. Telemetry-only work —
    /// call sites gate it on [`telemetry::enabled`], so untraced runs never
    /// touch the gradients outside the optimizer.
    fn grad_norm(&self) -> f64 {
        self.model
            .params()
            .iter()
            .map(cdcl_autograd::Param::grad_norm_sq)
            .sum::<f64>()
            .sqrt()
    }

    /// Records one optimizer step's signals, each computed once and fed to
    /// every enabled sink: the step counter, the loss (`cdcl_train_loss`
    /// and the `loss_name` scalar) and the global gradient norm
    /// (`cdcl_train_grad_norm` and the `grad_norm` scalar). The NaN/Inf
    /// watchdog runs on both when tracing is on. Callers gate on
    /// [`health::recording`], so with both layers off nothing is read.
    fn record_step(&self, loss_name: &'static str, loss: f64, at: telemetry::WatchdogCtx) {
        let record = |name: &'static str, gauge, value: f64| {
            health::record(name, Some(gauge), value, at.task, at.epoch, Some(at.step));
            telemetry::check_finite(name, value, at);
        };
        health::STEPS_TOTAL.inc();
        record(loss_name, &health::LOSS, loss);
        record("grad_norm", &health::GRAD_NORM, self.grad_norm());
    }

    /// Runs `body` on each `EVAL_CHUNK`-sized sub-range of `0..len`, in
    /// ascending order, and collects the per-chunk results.
    fn eval_chunks<T>(&self, len: usize, body: impl Fn(std::ops::Range<usize>) -> T) -> Vec<T> {
        (0..len)
            .step_by(EVAL_CHUNK)
            .map(|start| body(start..(start + EVAL_CHUNK).min(len)))
            .collect()
    }

    fn extract_features(&self, samples: &[Sample], task: usize) -> Tensor {
        let parts = self.eval_chunks(samples.len(), |range| {
            let idx: Vec<usize> = range.collect();
            let (imgs, _) = Self::stack_batch(samples, &idx);
            self.model.extract_features(&imgs, task)
        });
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat0(&refs)
    }

    fn til_probabilities(&self, samples: &[Sample], task: usize) -> Tensor {
        let parts = self.eval_chunks(samples.len(), |range| {
            let idx: Vec<usize> = range.collect();
            let (imgs, _) = Self::stack_batch(samples, &idx);
            self.model.predict_til(&imgs, task)
        });
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat0(&refs)
    }

    /// Scores one window of unlabeled samples against every completed
    /// task's archived Eq.-17 centroids: for each task `t` with a non-empty
    /// centroid set, the window's features (extracted through task `t`'s
    /// frozen `K_t`/`b_t` path, as at pseudo-labeling time) are cosine-
    /// matched to the centroids, and the task's distance is
    /// `1 − mean_i max_u cos(z_i, c_u)` — small when the window looks like
    /// task `t`, approaching 1 (or beyond, for anti-aligned features) when
    /// it does not. Returns the best task, its distance (the
    /// [`crate::DriftDetector`] input), and the runner-up margin, or `None`
    /// when the window is empty or no task has centroids yet (all-warm-up
    /// models cannot anchor drift scoring). Ties break toward the older
    /// task id, keeping the score deterministic.
    pub fn drift_score(&self, samples: &[Sample]) -> Option<DriftScore> {
        if samples.is_empty() {
            return None;
        }
        let _s = telemetry::span("drift_detect").task(self.model.num_tasks());
        let mut ranked: Vec<(usize, f64)> = Vec::new();
        for (t, cents) in self.centroids.iter().enumerate() {
            if cents.shape()[0] == 0 {
                continue;
            }
            let feats = self.extract_features(samples, t).l2_normalize_last();
            let sims = feats.matmul(&cents.l2_normalize_last().transpose_last2());
            let (n, u) = (sims.shape()[0], sims.shape()[1]);
            let data = sims.data();
            let mut total = 0.0f64;
            for i in 0..n {
                let row = &data[i * u..(i + 1) * u];
                let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                total += f64::from(best);
            }
            ranked.push((t, 1.0 - total / n as f64));
        }
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let &(task, distance) = ranked.first()?;
        let margin = ranked.get(1).map_or(0.0, |&(_, d)| d - distance);
        Some(DriftScore {
            task,
            distance,
            margin,
        })
    }

    // ------------------------------------------------------------------
    // Loss assembly
    // ------------------------------------------------------------------

    /// Adds the CIL or TIL loss triple `L_S + L_T + L_D` (Eqs. 15/16) for a
    /// batch of matched pairs. `heads` maps pooled features to logits.
    fn loss_triple(
        &self,
        g: &mut Graph,
        z_src: Var,
        z_tgt: Var,
        z_mixed: Var,
        labels: &[usize],
        til_task: Option<usize>,
    ) -> Var {
        let (logits_s, logits_t, logits_m) = match til_task {
            Some(t) => (
                self.model.til_logits(g, z_src, t),
                self.model.til_logits(g, z_tgt, t),
                self.model.til_logits(g, z_mixed, t),
            ),
            None => (
                self.model.cil_logits(g, z_src),
                self.model.cil_logits(g, z_tgt),
                self.model.cil_logits(g, z_mixed),
            ),
        };
        let lp_s = g.log_softmax_last(logits_s);
        let lp_t = g.log_softmax_last(logits_t);
        let lp_m = g.log_softmax_last(logits_m);
        // L_S (Eq. 9/12): supervised CE on the source.
        let l_s = g.nll_loss(lp_s, labels);
        // L_T (Eq. 10/13): CE of the target prediction against the *paired
        // source label* (= matching pseudo-label per Eq. 19).
        let l_t = g.nll_loss(lp_t, labels);
        // L_D (Eq. 11/14): align the mixed cross-attention prediction with
        // the target prediction — symmetric distillation with detached
        // teachers (see DESIGN.md §2 on the sign of Eq. 11).
        let teacher_m = g.value(logits_m).softmax_last();
        let teacher_t = g.value(logits_t).softmax_last();
        let l_d1 = g.ce_soft(lp_t, teacher_m);
        let l_d2 = g.ce_soft(lp_m, teacher_t);
        let l_d1 = g.scale(l_d1, 0.5);
        let l_d2 = g.scale(l_d2, 0.5);
        let st = g.add(l_s, l_t);
        let d = g.add(l_d1, l_d2);
        g.add(st, d)
    }

    /// Adds the rehearsal losses (Eqs. 20–23) for one group of memory
    /// records that share an origin task. Returns `None` when the group is
    /// empty.
    fn rehearsal_loss(&self, g: &mut Graph, records: &[&MemoryRecord]) -> Option<Var> {
        if records.is_empty() {
            return None;
        }
        let task = records[0].task;
        // Memory-record staging goes through the tensor pool: rehearsal
        // batches share shapes across steps, so these buffers recycle.
        let stack_records = |pick: fn(&MemoryRecord) -> &Tensor| {
            let shape = pick(records[0]).shape().to_vec();
            let per = pick(records[0]).len();
            let mut data = PooledBuf::take_uninit(records.len() * per);
            for (i, r) in records.iter().enumerate() {
                data[i * per..(i + 1) * per].copy_from_slice(pick(r).data());
            }
            let mut s = vec![records.len()];
            s.extend_from_slice(&shape);
            Tensor::from_buf(data, &s)
        };
        let src_imgs = stack_records(|r| &r.x_source);
        let tgt_imgs = stack_records(|r| &r.x_target);
        let globals: Vec<usize> = records.iter().map(|r| r.global_label).collect();

        let xs = g.input(src_imgs);
        let xt = g.input(tgt_imgs);
        let zs = self.model.features_self(g, xs, task);
        let zt = self.model.features_self(g, xt, task);
        let zm = if self.config.cross_attention {
            self.model.features_cross(g, xs, xt, task)
        } else {
            zs
        };
        let cil_s = self.model.cil_logits(g, zs);
        let cil_t = self.model.cil_logits(g, zt);
        let cil_m = self.model.cil_logits(g, zm);
        let lp_s = g.log_softmax_last(cil_s);
        let lp_t = g.log_softmax_last(cil_t);
        let lp_m = g.log_softmax_last(cil_m);

        // L_R^ST (Eq. 20): CE of both replayed streams against the stored
        // source label, through the inter-task (CIL) head.
        let l_st_s = g.nll_loss(lp_s, &globals);
        let l_st_t = g.nll_loss(lp_t, &globals);
        let l_st = g.add(l_st_s, l_st_t);

        // L_R^D (Eq. 21): align the replayed mixed signal with the replayed
        // target prediction.
        let teacher_t = g.value(cil_t).softmax_last();
        let l_d = g.ce_soft(lp_m, teacher_t);

        // L_R^Z (Eq. 22): logit replay — KL between the stored distributions
        // and the current ones. Stored vectors cover only the classes known
        // at storage time; pad with zeros (zero-mass terms contribute
        // nothing to KL).
        let total = self.model.total_classes();
        let pad = |probs: &[f32]| {
            let mut row = vec![0.0f32; total];
            row[..probs.len()].copy_from_slice(probs);
            row
        };
        let stored_s: Vec<f32> = records
            .iter()
            .flat_map(|r| pad(&r.cil_probs_source))
            .collect();
        let stored_t: Vec<f32> = records
            .iter()
            .flat_map(|r| pad(&r.cil_probs_target))
            .collect();
        let n = records.len();
        let p_s = Tensor::from_vec(stored_s, &[n, total]);
        let p_t = Tensor::from_vec(stored_t, &[n, total]);
        let l_z_s = g.kl_div(lp_s, p_s);
        let l_z_t = g.kl_div(lp_t, p_t);
        let l_z = g.add(l_z_s, l_z_t);

        // L_R = L_R^ST + L_R^D + L_R^Z (Eq. 23).
        let partial = g.add(l_st, l_d);
        Some(g.add(partial, l_z))
    }

    /// Runs the full graph verifier (shape inference + gradient-flow audit,
    /// DESIGN.md §9) once per task, on the first training graph built after
    /// `add_task`. Called right after `backward`, so the frozen-zero-grad
    /// audit sees exactly what this step accumulated. The verifier is
    /// read-only, so training stays bitwise identical with it compiled in.
    fn verify_first_graph(&mut self, g: &Graph, loss: Var, task: usize, epoch: usize) {
        if self.graph_verified {
            return;
        }
        self.graph_verified = true;
        let _s = telemetry::span("graph_check").task(task).epoch(epoch);
        let frozen = self.model.expected_frozen_params();
        match g.verify(loss, &frozen) {
            Ok(report) => {
                if telemetry::enabled() {
                    telemetry::Event::new("graph_report")
                        .task(task)
                        .u64_field("graph_nodes", report.nodes as u64)
                        .u64_field("graph_param_leaves", report.param_leaves as u64)
                        .u64_field("graph_frozen_verified", report.frozen_verified as u64)
                        .u64_field("graph_dead_nodes", report.dead_nodes.len() as u64)
                        .emit();
                }
            }
            // lint-allow: verifier escalation — a violated shape or freezing
            // contract is a programming bug and must fail fast (see
            // lint-allow.txt).
            Err(e) => panic!("{e}"),
        }
    }

    /// One warm-up step: source-only supervised training of both heads.
    fn warmup_step(&mut self, task: &TaskData, idx: &[usize], lr: f32, epoch: usize, step: usize) {
        let _timer = health::WARMUP_STEP_US.time();
        let t = task.task_id;
        let (imgs, labels) = Self::stack_batch(&task.source_train, idx);
        let globals: Vec<usize> = labels
            .iter()
            .map(|&l| self.model.class_offset(t) + l)
            .collect();
        // Reuse the per-trainer tape arena (take/put-back so `self` stays
        // free for the model calls below).
        let mut g = std::mem::take(&mut self.step_graph);
        g.reset_for_step();
        let x = g.input(imgs);
        let z = self.model.features_self(&mut g, x, t);
        let mut loss = None;
        if self.config.losses.til {
            let logits = self.model.til_logits(&mut g, z, t);
            let lp = g.log_softmax_last(logits);
            let l = g.nll_loss(lp, &labels);
            loss = Some(l);
        }
        if self.config.losses.cil {
            let logits = self.model.cil_logits(&mut g, z);
            let lp = g.log_softmax_last(logits);
            let l = g.nll_loss(lp, &globals);
            loss = Some(match loss {
                Some(prev) => g.add(prev, l),
                None => l,
            });
        }
        let Some(loss) = loss else {
            self.step_graph = g;
            return;
        };
        self.optimizer.zero_grad();
        g.backward(loss);
        self.verify_first_graph(&g, loss, t, epoch);
        if health::recording() {
            let at = telemetry::WatchdogCtx {
                phase: "warmup",
                task: t,
                epoch,
                step,
            };
            self.record_step("loss_warmup", f64::from(g.value(loss).item()), at);
        }
        self.optimizer.step(lr);
        self.step_graph = g;
    }

    /// One adaptation step on a batch of matched pairs (+ rehearsal).
    fn adaptation_step(
        &mut self,
        task: &TaskData,
        pairs: &[Pair],
        lr: f32,
        epoch: usize,
        step: usize,
    ) {
        let _timer = health::ADAPTATION_STEP_US.time();
        let t = task.task_id;
        let src_refs: Vec<&Sample> = pairs.iter().map(|p| &task.source_train[p.source]).collect();
        let tgt_refs: Vec<&Sample> = pairs.iter().map(|p| &task.target_train[p.target]).collect();
        let (src_imgs, _) = stack(&src_refs);
        let (tgt_imgs, _) = stack(&tgt_refs);
        let labels: Vec<usize> = pairs.iter().map(|p| p.label).collect();
        let globals: Vec<usize> = labels
            .iter()
            .map(|&l| self.model.class_offset(t) + l)
            .collect();

        let mut g = std::mem::take(&mut self.step_graph);
        g.reset_for_step();
        let xs = g.input(src_imgs);
        let xt = g.input(tgt_imgs);
        let zs = self.model.features_self(&mut g, xs, t);
        let zt = self.model.features_self(&mut g, xt, t);
        // The "simple attention" ablation removes the mixed cross-attention
        // signal entirely; the source stream stands in for it.
        let zm = if self.config.cross_attention {
            self.model.features_cross(&mut g, xs, xt, t)
        } else {
            zs
        };

        let mut loss: Option<Var> = None;
        let add = |g: &mut Graph, loss: &mut Option<Var>, l: Var| {
            *loss = Some(match *loss {
                Some(prev) => g.add(prev, l),
                None => l,
            });
        };
        // Per-term loss vars retained for telemetry; the aggregation into
        // `loss` is unchanged, so the graph (and its rounding) is identical
        // whether or not tracing is on.
        let mut l_til: Option<Var> = None;
        let mut l_cil: Option<Var> = None;
        let mut l_reh: Vec<Var> = Vec::new();
        if self.config.losses.til {
            let l = self.loss_triple(&mut g, zs, zt, zm, &labels, Some(t));
            l_til = Some(l);
            add(&mut g, &mut loss, l);
        }
        if self.config.losses.cil {
            let l = self.loss_triple(&mut g, zs, zt, zm, &globals, None);
            l_cil = Some(l);
            add(&mut g, &mut loss, l);
        }
        if self.config.losses.rehearsal && !self.memory.is_empty() {
            let _replay = telemetry::span("replay").task(t).epoch(epoch);
            let idx = self
                .memory
                .replay_indices(self.replay_cursor, self.config.rehearsal_batch);
            self.replay_cursor = self.replay_cursor.wrapping_add(idx.len());
            // Group by origin task so each group uses its frozen keys.
            let mut by_task: Vec<(usize, Vec<&MemoryRecord>)> = Vec::new();
            for &i in &idx {
                let r = &self.memory.records()[i];
                match by_task.iter_mut().find(|(t, _)| *t == r.task) {
                    Some((_, v)) => v.push(r),
                    None => by_task.push((r.task, vec![r])),
                }
            }
            for (_, group) in &by_task {
                if let Some(l) = self.rehearsal_loss(&mut g, group) {
                    l_reh.push(l);
                    add(&mut g, &mut loss, l);
                }
            }
        }
        let Some(loss) = loss else {
            self.step_graph = g;
            return;
        };
        self.optimizer.zero_grad();
        g.backward(loss);
        self.verify_first_graph(&g, loss, t, epoch);
        if health::recording() {
            let item = |l: Var| f64::from(g.value(l).item());
            // The per-term losses feed the trace only.
            if telemetry::enabled() {
                let terms = [
                    ("loss_til", l_til.map(item)),
                    ("loss_cil", l_cil.map(item)),
                    (
                        "loss_rehearsal",
                        (!l_reh.is_empty()).then(|| l_reh.iter().map(|&l| item(l)).sum()),
                    ),
                ];
                for (name, v) in terms {
                    if let Some(v) = v {
                        health::record(name, None, v, t, epoch, Some(step));
                    }
                }
            }
            let at = telemetry::WatchdogCtx {
                phase: "adaptation",
                task: t,
                epoch,
                step,
            };
            self.record_step("loss_total", item(loss), at);
        }
        self.optimizer.step(lr);
        self.step_graph = g;
    }

    /// Rebuilds centroids, pseudo-labels, and the pair set for the epoch
    /// (Eqs. 17–19). Falls back to index-aligned pairing when no pair
    /// survives the label filter (never returns an empty set for non-empty
    /// data).
    fn refresh_pairs(&mut self, task: &TaskData, epoch: usize) -> Vec<Pair> {
        let t = task.task_id;
        let src_feats = self.extract_features(&task.source_train, t);
        let src_labels: Vec<usize> = task.source_train.iter().map(|s| s.label).collect();
        let tgt_feats = self.extract_features(&task.target_train, t);
        let tgt_probs = self.til_probabilities(&task.target_train, t);
        let (centroids, first) = {
            let _s = telemetry::span("centroid_fit").task(t).epoch(epoch);
            let c = weighted_centroids(&tgt_probs, &tgt_feats);
            let p = nearest_centroid_labels(&tgt_feats, &c);
            (c, p)
        };
        // Second center-aware round (as in SHOT [26], which §IV-B extends):
        // rebuild the centroids from the hard assignments and re-assign —
        // stabilises the labels when the warm-up classifier is weak.
        let pseudo = {
            let _s = telemetry::span("pseudo_assign").task(t).epoch(epoch);
            let hard = cdcl_tensor::Tensor::one_hot(&first, centroids.shape()[0]);
            let centroids = weighted_centroids(&hard, &tgt_feats);
            let labels = nearest_centroid_labels(&tgt_feats, &centroids);
            // Keep the refined centroids: the last epoch's set is promoted
            // into `self.centroids` at task end and persisted in snapshots.
            self.last_centroids = Some(centroids);
            labels
        };
        if health::recording() {
            // How much the assignments moved between the two rounds: high
            // flip rates flag unstable centroids / noisy pseudo-labels.
            let flip = label_flip_rate(&first, &pseudo);
            let gauge = Some(&health::PSEUDO_FLIP_RATE);
            health::record("pseudo_flip_rate", gauge, flip, t, epoch, None);
        }
        let pairs = {
            let _s = telemetry::span("pair_filter").task(t).epoch(epoch);
            build_pairs(&src_feats, &src_labels, &tgt_feats, &pseudo)
        };
        if health::recording() {
            // Eq. 19 agreement: the fraction of target samples whose
            // pseudo-label found a matching source sample.
            let agreement = pairs.len() as f64 / task.target_train.len().max(1) as f64;
            let gauge = Some(&health::PAIR_AGREEMENT);
            health::record("pair_agreement", gauge, agreement, t, epoch, None);
        }
        if !pairs.is_empty() {
            return pairs;
        }
        // Degenerate fallback (e.g. a collapsed warm-up): pair by index.
        (0..task.target_train.len().min(task.source_train.len()))
            .map(|i| Pair {
                source: i,
                target: i,
                label: task.source_train[i].label,
            })
            .collect()
    }

    /// Builds memory candidates from the final pair set, scoring each by
    /// intra-task confidence `max(y_S^TIL) ∨ max(y_T^TIL)` and recording
    /// current CIL probabilities for logit replay.
    fn memory_candidates(&self, task: &TaskData) -> Vec<MemoryRecord> {
        let t = task.task_id;
        let pairs = &self.last_pairs;
        self.eval_chunks(pairs.len(), |range| {
            let chunk = &pairs[range];
            let src_refs: Vec<&Sample> =
                chunk.iter().map(|p| &task.source_train[p.source]).collect();
            let tgt_refs: Vec<&Sample> =
                chunk.iter().map(|p| &task.target_train[p.target]).collect();
            let (src_imgs, _) = stack(&src_refs);
            let (tgt_imgs, _) = stack(&tgt_refs);
            let til_s = self.model.predict_til(&src_imgs, t);
            let til_t = self.model.predict_til(&tgt_imgs, t);
            let cil_s = self.model.predict_cil(&src_imgs);
            let cil_t = self.model.predict_cil(&tgt_imgs);
            let u = til_s.shape()[1];
            let total = cil_s.shape()[1];
            let mut out = Vec::with_capacity(chunk.len());
            for (i, p) in chunk.iter().enumerate() {
                let conf_s = til_s.data()[i * u..(i + 1) * u]
                    .iter()
                    .copied()
                    .fold(0.0f32, f32::max);
                let conf_t = til_t.data()[i * u..(i + 1) * u]
                    .iter()
                    .copied()
                    .fold(0.0f32, f32::max);
                out.push(MemoryRecord {
                    task: t,
                    x_source: src_refs[i].image.clone(),
                    x_target: tgt_refs[i].image.clone(),
                    label: p.label,
                    global_label: self.model.class_offset(t) + p.label,
                    cil_probs_source: cil_s.data()[i * total..(i + 1) * total].to_vec(),
                    cil_probs_target: cil_t.data()[i * total..(i + 1) * total].to_vec(),
                    confidence: conf_s.max(conf_t),
                });
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Crash-safe checkpointing: when `CDCL_CKPT_DIR` is set, every
    /// finished task writes `task{NNN}.cdclsnap` there through the
    /// atomic write-temp-then-rename helper, under the `checkpoint`
    /// telemetry span. A crash mid-write leaves the previous snapshot
    /// intact; [`CdclTrainer::resume_latest`] picks up from the newest
    /// complete one.
    fn maybe_checkpoint(&self, task: usize) {
        let Some(dir) = std::env::var_os("CDCL_CKPT_DIR") else {
            return;
        };
        let _s = telemetry::span("checkpoint").task(task);
        let path = std::path::PathBuf::from(dir).join(format!("task{task:03}.cdclsnap"));
        let bytes = self.snapshot_bytes();
        if telemetry::enabled() {
            telemetry::Event::new("checkpoint")
                .task(task)
                .u64_field("snapshot_bytes", bytes.len() as u64)
                .str_field("path", &path.to_string_lossy())
                .emit();
        }
        if let Err(e) = cdcl_snapshot::atomic_write(&path, &bytes) {
            // lint-allow: checkpoint escalation — the user explicitly asked
            // for durable checkpoints via CDCL_CKPT_DIR; silently dropping
            // one is data loss, so fail fast (same contract as the
            // telemetry trace file).
            panic!("checkpoint write failed for {}: {e}", path.display());
        }
    }
}

impl ContinualLearner for CdclTrainer {
    fn name(&self) -> String {
        let l = &self.config.losses;
        let mut name = "CDCL".to_string();
        if !l.cil {
            name.push_str("-noCIL");
        }
        if !l.til {
            name.push_str("-noTIL");
        }
        if !l.rehearsal {
            name.push_str("-noR");
        }
        if !self.config.cross_attention {
            name.push_str("-simpleAttn");
        }
        name
    }

    fn learn_task(&mut self, task: &TaskData) {
        assert_eq!(
            task.task_id,
            self.model.num_tasks(),
            "tasks must arrive in order"
        );
        self.model.add_task(&mut self.rng, task.num_classes());
        self.optimizer.rebind(self.model.params());
        self.last_pairs.clear();
        self.last_centroids = None;
        // Re-verify on the new task's first graph: add_task changed the
        // frozen set and the head shapes.
        self.graph_verified = false;
        let counters_before = telemetry::enabled().then(kernels::counter_snapshot);

        let schedule = WarmupCosine {
            warmup_lr: self.config.warmup_lr,
            peak_lr: self.config.peak_lr,
            min_lr: self.config.min_lr,
            warmup_epochs: self.config.warmup_epochs,
            total_epochs: self.config.epochs,
        };
        let mut src_batcher = Batcher::new(
            task.source_train.len(),
            self.config.batch_size,
            self.config.seed ^ (task.task_id as u64) << 16,
        );

        for epoch in 0..self.config.epochs {
            let lr = schedule.lr(epoch);
            if epoch < self.config.warmup_epochs {
                let _s = telemetry::span("warmup").task(task.task_id).epoch(epoch);
                for (step, batch) in src_batcher.epoch().into_iter().enumerate() {
                    self.warmup_step(task, &batch, lr, epoch, step);
                }
            } else {
                // Eqs. 17–19: rebuild centroids/pseudo-labels every epoch.
                let pairs = self.refresh_pairs(task, epoch);
                let _s = telemetry::span("adaptation")
                    .task(task.task_id)
                    .epoch(epoch);
                let mut pair_batcher = Batcher::new(
                    pairs.len(),
                    self.config.batch_size,
                    self.config.seed ^ ((task.task_id as u64) << 16 | epoch as u64),
                );
                for (step, batch) in pair_batcher.epoch().into_iter().enumerate() {
                    let subset: Vec<Pair> = batch.iter().map(|&i| pairs[i]).collect();
                    self.adaptation_step(task, &subset, lr, epoch, step);
                }
                self.last_pairs = pairs;
            }
            if cdcl_obs::enabled() {
                health::MEMORY_OCCUPANCY.set(self.memory.records().len() as f64);
                health::MEMORY_CAPACITY.set(self.memory.capacity() as f64);
                health::emit_health_event(task.task_id, epoch);
            }
        }
        if self.last_pairs.is_empty() {
            // All-warm-up configuration: fall back to index pairing so the
            // memory still receives records.
            self.last_pairs = (0..task.target_train.len().min(task.source_train.len()))
                .map(|i| Pair {
                    source: i,
                    target: i,
                    label: task.source_train[i].label,
                })
                .collect();
        }
        let candidates = {
            let _s = telemetry::span("memory_select").task(task.task_id);
            self.memory_candidates(task)
        };
        self.memory.finish_task(task.task_id, candidates);
        // Promote the last adaptation epoch's refined centroids (Eq. 17) to
        // the per-task archive; an all-warm-up task stores an empty `[0, d]`
        // marker so indices stay aligned with task ids.
        let d = self.model.backbone().embed_dim();
        self.centroids.push(
            self.last_centroids
                .take()
                .unwrap_or_else(|| Tensor::zeros(&[0, d])),
        );
        if cdcl_obs::enabled() {
            health::TASKS_TOTAL.inc();
            health::MEMORY_OCCUPANCY.set(self.memory.records().len() as f64);
            health::MEMORY_CAPACITY.set(self.memory.capacity() as f64);
            kernels::publish_registry();
        }
        if let Some(before) = counters_before {
            let d = kernels::counter_snapshot().delta_since(&before);
            telemetry::Event::new("counters")
                .task(task.task_id)
                .u64_field("gemm_calls", d.gemm_calls)
                .u64_field("gemm_fmas", d.gemm_fmas)
                .emit();
        }
        self.maybe_checkpoint(task.task_id);
    }

    fn eval_til(&self, task_id: usize, test: &[Sample]) -> f64 {
        let _s = telemetry::span("eval_til").task(task_id);
        let predictions: Vec<usize> = self
            .eval_chunks(test.len(), |range| {
                let idx: Vec<usize> = range.collect();
                let (imgs, _) = Self::stack_batch(test, &idx);
                self.model.predict_til(&imgs, task_id).argmax_last()
            })
            .into_iter()
            .flatten()
            .collect();
        accuracy_from_predictions(&predictions, test)
    }

    fn eval_cil(&self, task_id: usize, test: &[Sample]) -> f64 {
        let _s = telemetry::span("eval_cil").task(task_id);
        let offset = self.model.class_offset(task_id);
        let hits: usize = self
            .eval_chunks(test.len(), |range| {
                let idx: Vec<usize> = range.collect();
                let (imgs, labels) = Self::stack_batch(test, &idx);
                let pred = self.model.predict_cil(&imgs).argmax_last();
                pred.iter()
                    .zip(labels.iter())
                    .filter(|&(p, l)| *p == offset + l)
                    .count()
            })
            .into_iter()
            .sum();
        if test.is_empty() {
            0.0
        } else {
            hits as f64 / test.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_constructs_with_defaults() {
        let t = CdclTrainer::new(CdclConfig::smoke());
        assert_eq!(t.model().num_tasks(), 0);
        assert_eq!(t.memory().capacity(), 60);
        assert_eq!(t.name(), "CDCL");
    }

    #[test]
    fn ablated_names_reflect_toggles() {
        let mut c = CdclConfig::smoke();
        c.losses.rehearsal = false;
        assert_eq!(CdclTrainer::new(c).name(), "CDCL-noR");
        let mut c = CdclConfig::smoke();
        c.losses.cil = false;
        c.losses.til = false;
        assert_eq!(CdclTrainer::new(c).name(), "CDCL-noCIL-noTIL");
        let mut c = CdclConfig::smoke();
        c.cross_attention = false;
        assert_eq!(CdclTrainer::new(c).name(), "CDCL-simpleAttn");
    }

    #[test]
    #[should_panic(expected = "tasks must arrive in order")]
    fn out_of_order_task_panics() {
        let mut t = CdclTrainer::new(CdclConfig::smoke());
        let task = TaskData {
            task_id: 3,
            global_classes: vec![0, 1],
            source_train: vec![],
            target_train: vec![],
            target_test: vec![],
        };
        t.learn_task(&task);
    }
}
