//! Experiment harness shared by the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §5):
//!
//! | binary    | paper artifact |
//! |-----------|----------------|
//! | `table1`  | Table I — Office-31, MNIST↔USPS, VisDA-2017 (TIL + CIL, + TVT static row) |
//! | `table2`  | Table II — Office-Home (12 pairs) |
//! | `table3`  | Table III — DomainNet source→target matrices |
//! | `table4`  | Table IV — loss/attention ablation on MNIST↔USPS |
//! | `figure2` | Figure 2 — per-task accuracy evolution on VisDA-2017 |
//!
//! Every binary accepts `--scale smoke|standard`, an optional
//! `--methods a,b,c` filter, and `--out <path>` for a JSON dump next to the
//! printed table.

pub mod net;
pub mod serve;
pub mod trace;
pub mod traind;

use cdcl_baselines::{
    run_static_uda, BaselineConfig, CdTransSize, CdTransTrainer, DerTrainer, DerVariant,
    HalTrainer, MlsTrainer,
};
use cdcl_core::{run_stream, CdclConfig, CdclTrainer, StreamResult};
use cdcl_data::{CrossDomainStream, Scale};
use serde::Serialize;

/// The continual methods compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// DER (logit replay).
    Der,
    /// DER++ (logit + label replay).
    DerPlusPlus,
    /// HAL (replay + anchors).
    Hal,
    /// MLS (supervised cross-domain CL).
    Mls,
    /// CDTrans small.
    CdTransS,
    /// CDTrans base.
    CdTransB,
    /// CDCL (ours).
    Cdcl,
}

impl Method {
    /// Every method, in the paper's row order.
    pub const ALL: [Method; 7] = [
        Method::Der,
        Method::DerPlusPlus,
        Method::Hal,
        Method::Mls,
        Method::CdTransS,
        Method::CdTransB,
        Method::Cdcl,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Der => "DER",
            Method::DerPlusPlus => "DER++",
            Method::Hal => "HAL",
            Method::Mls => "MLS",
            Method::CdTransS => "CDTrans-S",
            Method::CdTransB => "CDTrans-B",
            Method::Cdcl => "Ours",
        }
    }

    /// Parses a comma-separated `--methods` filter entry.
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_lowercase().as_str() {
            "der" => Some(Method::Der),
            "der++" | "derpp" => Some(Method::DerPlusPlus),
            "hal" => Some(Method::Hal),
            "mls" | "msl" => Some(Method::Mls),
            "cdtrans-s" | "cdtranss" => Some(Method::CdTransS),
            "cdtrans-b" | "cdtransb" => Some(Method::CdTransB),
            "cdcl" | "ours" => Some(Method::Cdcl),
            _ => None,
        }
    }
}

/// Experiment configuration derived from the CLI.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Data scale.
    pub scale: Scale,
    /// Epochs per task.
    pub epochs: usize,
    /// Warm-up epochs per task.
    pub warmup_epochs: usize,
    /// Memory size (records).
    pub memory_size: usize,
    /// Methods to run.
    pub methods: Vec<Method>,
    /// JSON output path.
    pub out: Option<String>,
    /// Run the full pair set where the binary defaults to a subset.
    pub full: bool,
}

impl ExperimentConfig {
    /// Parses the common CLI arguments; unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let mut cfg = Self {
            scale: Scale::Standard,
            epochs: 10,
            warmup_epochs: 3,
            memory_size: 200,
            methods: Method::ALL.to_vec(),
            out: None,
            full: false,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    cfg.scale = match args.get(i).map(String::as_str) {
                        Some("smoke") => Scale::Smoke,
                        Some("standard") => Scale::Standard,
                        Some("paper") => Scale::Paper,
                        other => panic!("unknown scale {other:?} (smoke|standard|paper)"),
                    };
                    if cfg.scale == Scale::Smoke {
                        cfg.epochs = 8;
                        cfg.warmup_epochs = 2;
                    }
                }
                "--epochs" => {
                    i += 1;
                    cfg.epochs = args[i].parse().expect("--epochs <n>");
                }
                "--warmup" => {
                    i += 1;
                    cfg.warmup_epochs = args[i].parse().expect("--warmup <n>");
                }
                "--memory" => {
                    i += 1;
                    cfg.memory_size = args[i].parse().expect("--memory <n>");
                }
                "--methods" => {
                    i += 1;
                    cfg.methods = args[i]
                        .split(',')
                        .map(|m| Method::parse(m).unwrap_or_else(|| panic!("unknown method {m}")))
                        .collect();
                }
                "--out" => {
                    i += 1;
                    cfg.out = Some(args[i].clone());
                }
                "--full" => cfg.full = true,
                other => panic!(
                    "unknown argument {other}; known: --scale --epochs --warmup --memory --methods --out --full"
                ),
            }
            i += 1;
        }
        cfg
    }

    /// CDCL configuration at this experiment scale.
    pub fn cdcl(&self, stream: &CrossDomainStream) -> CdclConfig {
        let mut c = CdclConfig {
            epochs: self.epochs,
            warmup_epochs: self.warmup_epochs,
            memory_size: self.memory_size,
            ..CdclConfig::default()
        };
        c.backbone.in_channels = stream.image_layout.0;
        c.backbone.in_hw = stream.image_layout.1;
        c
    }

    /// Baseline configuration at this experiment scale.
    pub fn baseline(&self, stream: &CrossDomainStream) -> BaselineConfig {
        let mut c = BaselineConfig {
            epochs: self.epochs,
            warmup_epochs: self.warmup_epochs,
            memory_size: self.memory_size,
            ..BaselineConfig::default()
        };
        c.backbone.in_channels = stream.image_layout.0;
        c.backbone.in_hw = stream.image_layout.1;
        c
    }
}

/// Runs one method over one stream, printing a progress line.
pub fn run_method(
    method: Method,
    stream: &CrossDomainStream,
    cfg: &ExperimentConfig,
) -> StreamResult {
    let start = std::time::Instant::now();
    let result = match method {
        Method::Der => run_stream(
            &mut DerTrainer::new(DerVariant::Der, cfg.baseline(stream)),
            stream,
        ),
        Method::DerPlusPlus => run_stream(
            &mut DerTrainer::new(DerVariant::DerPlusPlus, cfg.baseline(stream)),
            stream,
        ),
        Method::Hal => run_stream(&mut HalTrainer::new(cfg.baseline(stream)), stream),
        Method::Mls => run_stream(&mut MlsTrainer::new(cfg.baseline(stream)), stream),
        Method::CdTransS => run_stream(
            &mut CdTransTrainer::new(CdTransSize::Small, cfg.baseline(stream)),
            stream,
        ),
        Method::CdTransB => run_stream(
            &mut CdTransTrainer::new(CdTransSize::Base, cfg.baseline(stream)),
            stream,
        ),
        Method::Cdcl => run_stream(&mut CdclTrainer::new(cfg.cdcl(stream)), stream),
    };
    eprintln!(
        "[{}] {} TIL {:.1}% CIL {:.1}% ({:.0}s)",
        stream.name,
        method.label(),
        result.til_acc_pct(),
        result.cil_acc_pct(),
        start.elapsed().as_secs_f64()
    );
    result
}

/// Runs the TVT-style static upper bound on one stream.
pub fn run_upper_bound(
    stream: &CrossDomainStream,
    cfg: &ExperimentConfig,
) -> cdcl_baselines::StaticUdaResult {
    let start = std::time::Instant::now();
    let r = run_static_uda(stream, cfg.baseline(stream));
    eprintln!(
        "[{}] TVT(static) TIL {:.1}% ({:.0}s)",
        stream.name,
        r.til_acc_pct(),
        start.elapsed().as_secs_f64()
    );
    r
}

/// Serializable cell of a results dump.
#[derive(Debug, Serialize)]
pub struct ResultCell {
    /// Stream / transfer-pair name.
    pub stream: String,
    /// Method label.
    pub method: String,
    /// TIL average accuracy (percent).
    pub til_acc: f64,
    /// TIL forgetting (percent).
    pub til_fgt: f64,
    /// CIL average accuracy (percent).
    pub cil_acc: f64,
    /// CIL forgetting (percent).
    pub cil_fgt: f64,
}

impl From<&StreamResult> for ResultCell {
    fn from(r: &StreamResult) -> Self {
        Self {
            stream: r.stream.clone(),
            method: r.method.clone(),
            til_acc: r.til_acc_pct(),
            til_fgt: r.til_fgt_pct(),
            cil_acc: r.cil_acc_pct(),
            cil_fgt: r.cil_fgt_pct(),
        }
    }
}

/// Writes a JSON dump when `--out` was given.
pub fn maybe_write_json<T: Serialize>(out: &Option<String>, value: &T) {
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("results written to {path}");
    }
}

/// Parses the process arguments with `parse`, exiting with status 2 and
/// the usage error (prefixed by the binary's `name`) on any CLI mistake —
/// a diagnosis, never a panic.
pub fn parse_cli<T>(name: &str, parse: fn(&[String]) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    })
}

/// Returns the value following flag `argv[i]`, or a usage error when the
/// flag is the last argument — the bug class where `--snapshot` as the
/// final token used to die with an out-of-bounds panic.
pub fn flag_value(argv: &[String], i: usize, usage: fn() -> String) -> Result<&str, String> {
    argv.get(i + 1)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{} needs a value\n{}", argv[i], usage()))
}

/// [`flag_value`] parsed as a non-negative integer.
pub fn flag_usize(argv: &[String], i: usize, usage: fn() -> String) -> Result<usize, String> {
    let v = flag_value(argv, i, usage)?;
    v.parse().map_err(|_| {
        format!(
            "{} expects a non-negative integer, got {v:?}\n{}",
            argv[i],
            usage()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parse_round_trips() {
        for m in Method::ALL {
            assert_eq!(Method::parse(&m.label().to_ascii_lowercase()), Some(m));
        }
        assert_eq!(Method::parse("msl"), Some(Method::Mls)); // paper's typo alias
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Method::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Method::ALL.len());
    }
}
