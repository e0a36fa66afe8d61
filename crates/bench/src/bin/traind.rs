//! `cdcl-traind`: online trainer daemon with task-free drift detection,
//! closing the train→serve loop (DESIGN.md §15).
//!
//! Ingests labeled-source / unlabeled-target sample batches as JSON lines
//! (blank line = commit one window), scores each committed window's target
//! samples against the archived per-task Eq.-17 centroids, and feeds the
//! distance into a CUSUM/EWMA drift detector. A sustained excursion
//! declares a new task at the window where the statistic left zero; the
//! staged windows from that boundary onward then run one online round
//! through the full `CdclTrainer` pipeline (fresh `(K_i, b_i)`, warm-up,
//! adaptation, pseudo-labeling, rehearsal, `CDCL_CKPT_DIR` checkpoints),
//! and the post-round snapshot is atomically published to `--publish-dir`
//! and `RELOAD`ed into every `--notify` cdcl-serve instance.
//!
//! ```text
//! cargo run --release -p cdcl-bench --bin cdcl-traind -- \
//!     --listen 127.0.0.1:7401 --publish-dir publish \
//!     --notify 127.0.0.1:7400 --ckpt-dir ckpts
//! ```
//!
//! Without `--listen` the same protocol runs over stdin/stdout; the drift
//! detector runs with `DriftConfig::default()`. `STATUS` / `METRICS` verbs
//! and HTTP `GET /metrics` scrapes work on any connection. The engine lives in `cdcl_bench::traind` so the
//! integration tests can drive it in-process; `traind-stream` is the
//! companion two-task stream driver used by CI.

fn main() {
    let args = cdcl_bench::traind::parse_args();
    cdcl_bench::traind::run(args);
}
