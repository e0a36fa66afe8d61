//! `cdcl-serve`: multi-tenant batched TIL/CIL inference over a registry of
//! `cdcl-snapshot` files (DESIGN.md §13).
//!
//! Loads one checkpoint per `--model <id>=<path>` (or one under the id
//! `default` via `--snapshot <path>`), re-runs the graph verifier over
//! every task's frozen `K_i`/`b_i` before answering anything, then serves
//! JSON-lines prediction requests with a dynamic micro-batching queue —
//! requests accumulate until `--max-batch` is reached, a blank line
//! arrives, or the stream ends, and each flush stacks same-shaped work
//! into one forward pass per `(model version, mode, task)` group.
//!
//! ```text
//! cargo run --release -p cdcl-bench --bin cdcl-serve -- \
//!     --snapshot ckpts/task001.cdclsnap --bench-out BENCH_serve.json \
//!     < requests.jsonl > responses.jsonl
//! ```
//!
//! Request lines (`id` echoes back; `task` is required for `"til"`;
//! `model` may be omitted when exactly one model is loaded):
//!
//! ```text
//! {"id": 1, "mode": "til", "task": 0, "image": [0.0, ...]}   // c*h*w floats
//! {"id": 2, "model": "default", "mode": "cil", "image": [0.0, ...]}
//! ```
//!
//! Responses carry `pred` (argmax class — task-local for TIL, global for
//! CIL), the answering `model`/`version`, and the full probability row;
//! malformed requests get `{"ok": false, "error": ...}` instead of
//! aborting the server, and a batch whose output probabilities contain
//! NaN/Inf is answered with errors (counted in
//! `cdcl_serve_nonfinite_total`) rather than garbage predictions. With
//! `--tcp ADDR` the same protocol runs over a `std::net` accept loop with
//! `--threads` workers; a failed accept is logged and counted
//! (`cdcl_serve_accept_errors_total`), never fatal, and a connection
//! opening with `GET /metrics` is answered with the Prometheus exposition
//! of the `cdcl_serve_*` registry metrics (including the per-model
//! `cdcl_serve_model_*{model="…"}` families). On any stream the bare
//! line `METRICS` returns the registry as one JSON object, `MODELS` lists
//! the loaded models/versions, and `RELOAD <model> <path>` atomically
//! hot-swaps a newer snapshot into a model's slot — in-flight requests
//! complete on the version they started with. Admission control
//! (`--max-inflight`, `--max-queue`) sheds excess load with
//! `{"ok":false,"error":"busy: …"}` responses instead of queueing
//! unboundedly. Per-batch latency goes to `cdcl-telemetry` as
//! `serve_batch` events and is summarized in `--bench-out`
//! (`BENCH_serve.json`, with throughput measured over wall-clock serving
//! time). The engine lives in `cdcl_bench::serve` so the integration
//! tests can drive it in-process; the repository benchmark
//! (`crates/bench/examples/benchmark`) drives it under load.

fn main() {
    let args = cdcl_bench::serve::parse_args();
    cdcl_bench::serve::run(&args);
}
