//! `benchmark`: the repository benchmark of the CDCL stack — `cdcl-serve`,
//! `cdcl-traind` and the trainer — end to end and layer by layer.
//!
//! ```text
//! benchmark [run] [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>]
//! benchmark compare <results-A>... -- <results-B>...
//! benchmark self-test
//! ```
//!
//! Run from the repository root (it builds the daemons with cargo and
//! reads `BENCHMARK.json`). Without `--workload` every workload runs. Each
//! run prints every metric by name and unit, then one JSON line with
//! `correct`, `attempted`, `failed` and the end-to-end metrics (`--trace
//! 0`) or the per-layer metrics of a traced run (`--trace 1`). `--out`
//! appends one JSON record per workload with the seed, host and raw
//! samples, which `compare` reads. See README.md for the workloads, the
//! metrics and the seeds.

mod adapt;
mod client;
mod compare;
mod daemon;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use daemon::Bins;
use report::{Kind, Outcome};
use serde::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use trace::Spans;

const WORKLOADS: [&str; 4] = [
    "serve-batch-n64",
    "serve-open-n16",
    "train-stream",
    "adapt-under-load",
];
/// Seed of `run` when none is given (the held-out seed is 2, see README).
const PRIMARY_SEED: u64 = 1;
/// Where runs keep their snapshots, logs and traces, inside the checkout.
const WORK_ROOT: &str = ".bench_work";

/// What a workload run needs from its surroundings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// This run's working directory (snapshots, logs, traces).
    pub work: PathBuf,
    pub bins: Bins,
    pub spans: Spans,
}

impl Ctx {
    /// `CDCL_TRACE` for a child process named `name`, on traced runs.
    pub fn trace_env(&self, name: &str) -> Vec<(&'static str, String)> {
        if self.trace {
            let file = self.work.join(format!("{name}.trace.jsonl"));
            vec![("CDCL_TRACE", file.to_string_lossy().into_owned())]
        } else {
            Vec::new()
        }
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: benchmark [run] [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>]\n\
         \x20      benchmark compare <results-A>... -- <results-B>...\n\
         \x20      benchmark self-test",
        WORKLOADS.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: PRIMARY_SEED,
        seconds: 22.0,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or(format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| *w == value)
                    .ok_or(format!("unknown workload {value}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("CDCL_THREADS").unwrap_or_else(|_| "unset".into());
    vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("traced".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cdcl_threads".into(), Value::Str(threads)),
        ("git_rev".into(), Value::Str(git_rev())),
    ]
}

fn run(argv: &[String]) -> i32 {
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return 2;
        }
    };
    let (kind, key) = if args.trace {
        (Kind::Layer, "per_layer")
    } else {
        (Kind::EndToEnd, "end_to_end")
    };
    let setup = report::benchmark_spec(Path::new("BENCHMARK.json"), key)
        .and_then(|(wanted, _)| Ok((wanted, Bins::build()?)));
    let (wanted, bins) = match setup {
        Ok(x) => x,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: PathBuf::new(),
        bins,
        spans: Spans::new(),
    };
    for &workload in &args.workloads {
        ctx.work = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        ctx.spans = Spans::new();
        let mut out = Outcome::new(workload);
        let result = std::fs::create_dir_all(&ctx.work)
            .map_err(|e| format!("{}: {e}", ctx.work.display()))
            .and_then(|()| match workload {
                "serve-batch-n64" => serve::serve_batch(&mut ctx, &mut out),
                "serve-open-n16" => serve::serve_open(&mut ctx, &mut out),
                "train-stream" => train::run(&mut ctx, &mut out),
                _ => adapt::run(&mut ctx, &mut out),
            });
        if let Err(e) = result {
            out.fail(e);
        }
        out.print(kind, &wanted);
        if let Some(path) = &args.out {
            let record = out.record(provenance(&args));
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{record}"));
            if let Err(e) = written {
                eprintln!("benchmark: {}: {e}", path.display());
                return 1;
            }
        }
        // Logs and traces of a failed run stay for inspection.
        if out.failed == 0 {
            let _ = std::fs::remove_dir_all(&ctx.work);
        }
    }
    let _ = std::fs::remove_dir(WORK_ROOT);
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("self-test") => compare::self_test(),
        Some("run") => run(&argv[1..]),
        _ => run(&argv),
    };
    std::process::exit(code);
}
