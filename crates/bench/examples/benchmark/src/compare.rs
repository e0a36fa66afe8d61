//! `compare` judges two sets of runs by the rule the benchmark is defined
//! with, and `self-test` proves that it and the output checks can fail.
//!
//! For each workload and metric: medians and quartiles of both sets, how
//! many runs of B beat the run of A at the same position (ties count for
//! neither), and a verdict against the metric's bound in `BENCHMARK.json`:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a set's spread (interquartile range over median) is
//!   wider than the bound, unless every run of B beats every run of A;
//! * `better` — B wins at least nine tenths of the pairs and the medians
//!   differ by more than A's interquartile range;
//! * `same` — otherwise.
//!
//! `error_rate` (failed / attempted) may not rise at all, and the exact
//! results — `detect_windows`, `acc_til_pct`, `acc_cil_pct` — may not
//! change at all. Any `worse` row makes `compare` exit 1.

use crate::client::{check_bitwise, check_response, Mode};
use crate::report::benchmark_spec;
use crate::stats::{median, quartiles, spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Results that must repeat exactly.
const EXACT: [&str; 3] = ["detect_windows", "acc_til_pct", "acc_cil_pct"];

#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// May worsen by at most this share of A's median.
    Bound(f64),
    /// May not change.
    Exact,
    /// May not rise above A (an absolute bound of zero).
    NoRise,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// A gated metric: its gate and direction.
#[derive(Clone, Copy)]
pub struct Rule {
    pub gate: Gate,
    pub higher_is_better: bool,
}

/// workload → metric → values, in run order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("{file}: {e}"))?;
            let Some(Value::Str(w)) = v.field("workload") else {
                return Err(format!("{file}: record without workload"));
            };
            let entry = runs.entry(w.clone()).or_default();
            for group in ["metrics", "extras"] {
                if let Some(Value::Obj(ms)) = v.field(group) {
                    for (name, m) in ms {
                        if let Some(Value::Num(x)) = m.field("value") {
                            entry.entry(name.clone()).or_default().push(*x);
                        }
                    }
                }
            }
            let count = |k| match v.field(k) {
                Some(Value::Num(x)) => *x,
                _ => 0.0,
            };
            let rate = count("failed") / count("attempted").max(1.0);
            entry.entry("error_rate".into()).or_default().push(rate);
        }
    }
    Ok(runs)
}

/// The gated metrics: `BENCHMARK.json`'s end-to-end list with its bounds,
/// the exact results, and `error_rate`.
fn rules(spec: &Value) -> BTreeMap<String, Rule> {
    let mut rules = BTreeMap::new();
    if let Some(Value::Arr(items)) = spec.field("end_to_end") {
        for m in items {
            if let (Some(Value::Str(name)), Some(Value::Num(bound)), Some(Value::Str(better))) =
                (m.field("name"), m.field("bound"), m.field("better"))
            {
                let rule = Rule {
                    gate: Gate::Bound(*bound),
                    higher_is_better: better == "higher",
                };
                rules.insert(name.clone(), rule);
            }
        }
    }
    for name in EXACT {
        let rule = Rule {
            gate: Gate::Exact,
            higher_is_better: true,
        };
        rules.insert(name.to_string(), rule);
    }
    let no_rise = Rule {
        gate: Gate::NoRise,
        higher_is_better: false,
    };
    rules.insert("error_rate".into(), no_rise);
    rules
}

/// The verdict on one metric, and B's wins over the pairs run.
pub fn judge(rule: Rule, a: &[f64], b: &[f64]) -> (Verdict, usize, usize) {
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let (ma, mb) = (median(a), median(b));
    let verdict = match rule.gate {
        Gate::Exact if a.iter().chain(b).all(|&x| x == a[0]) => Verdict::Same,
        Gate::Exact => Verdict::Worse,
        Gate::NoRise
            if mb > ma
                || b.iter().cloned().fold(0.0, f64::max)
                    > a.iter().cloned().fold(0.0, f64::max) =>
        {
            Verdict::Worse
        }
        Gate::NoRise => Verdict::Same,
        Gate::Bound(bound) => {
            let worse_by = if rule.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
            let iqr_a = quartiles(a).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
            if [a, b].iter().any(|v| spread(v).is_none_or(|s| s > bound)) {
                if all_better {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if worse_by > bound {
                Verdict::Worse
            } else if wins * 10 >= pairs * 9 && pairs > 0 && (mb - ma).abs() > iqr_a {
                Verdict::Better
            } else {
                Verdict::Same
            }
        }
    };
    (verdict, wins, pairs)
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len()),
        None => format!("{:.6} n={}", median(v), v.len()),
    }
}

/// `compare <A files…> -- <B files…>`: one row per (workload, metric).
pub fn main(argv: &[String]) -> i32 {
    let Some(split) = argv.iter().position(|a| a == "--") else {
        eprintln!("usage: benchmark compare <results-A.jsonl>... -- <results-B.jsonl>...");
        return 2;
    };
    let loaded = (|| {
        let (_, spec) = benchmark_spec(Path::new("BENCHMARK.json"), "end_to_end")?;
        Ok::<_, String>((
            rules(&spec),
            read_runs(&argv[..split])?,
            read_runs(&argv[split + 1..])?,
        ))
    })();
    let (rules, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!("| workload | metric | A median [q1, q3] | B median [q1, q3] | B wins | verdict |");
    println!("|---|---|---|---|---|---|");
    let mut worse = 0;
    for (workload, ma) in &a {
        let Some(mb) = b.get(workload) else { continue };
        for (metric, rule) in &rules {
            let (Some(va), Some(vb)) = (ma.get(metric), mb.get(metric)) else {
                continue;
            };
            let (verdict, wins, pairs) = judge(*rule, va, vb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "| {workload} | {metric} | {} | {} | {wins}/{pairs} | {verdict:?} |",
                summary(va),
                summary(vb)
            );
        }
    }
    i32::from(worse > 0)
}

/// Plants faults the checks exist to catch and fails unless each is
/// caught (and the unplanted control passes). `compare` is tried with the
/// rules of `BENCHMARK.json`.
pub fn self_test() -> i32 {
    let gates = match benchmark_spec(Path::new("BENCHMARK.json"), "end_to_end") {
        Ok((_, spec)) => rules(&spec),
        Err(e) => {
            eprintln!("self-test: {e}");
            return 2;
        }
    };
    let (Some(&latency), Some(&errors)) = (gates.get("latency_p50_ms"), gates.get("error_rate"))
    else {
        eprintln!("self-test: BENCHMARK.json has no latency_p50_ms");
        return 2;
    };
    let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i % 3)).collect();
    let doubled: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
    let clean = vec![0.0; 10];
    let mut erring = clean.clone();
    erring[4] = 0.001;

    let response = |id: u64, probs: &str, pred: u64| {
        format!(
            "{{\"id\":{id},\"ok\":true,\"model\":\"default\",\"version\":1,\"mode\":\"cil\",\"task\":null,\"pred\":{pred},\"probs\":{probs},\"error\":null,\"trace\":null}}"
        )
    };
    let good = response(7, "[0.25,0.75]", 1);
    let reference = [0.25f32, 0.75];
    let mut off_by_one_ulp = reference;
    off_by_one_ulp[1] = f32::from_bits(off_by_one_ulp[1].to_bits() + 1);
    let ack = |boundary: u64| {
        let text = format!(
            "{{\"ok\":true,\"boundary\":{boundary},\"publish\":{{\"ok\":true,\"reloads\":[{{\"version\":2}}]}}}}"
        );
        serde_json::from_str::<Value>(&text).expect("planted ack parses")
    };

    let cases: Vec<(&str, bool)> = vec![
        (
            "compare: unchanged latency is not worse",
            judge(latency, &base, &base).0 != Verdict::Worse,
        ),
        (
            "compare: 2x latency is worse",
            judge(latency, &base, &doubled).0 == Verdict::Worse,
        ),
        (
            "compare: error_rate rise is worse",
            judge(errors, &clean, &erring).0 == Verdict::Worse,
        ),
        (
            "checker: good response passes",
            check_response(&good, 7, Mode::Cil, 1).is_ok(),
        ),
        (
            "checker: out-of-order id",
            check_response(&good, 6, Mode::Cil, 1).is_err(),
        ),
        (
            "checker: pred that is not the argmax",
            check_response(&response(7, "[0.25,0.75]", 0), 7, Mode::Cil, 1).is_err(),
        ),
        (
            "checker: bitwise-equal probs pass",
            check_bitwise(&reference, &reference).is_ok(),
        ),
        (
            "checker: wrong probability (1 ulp)",
            check_bitwise(&off_by_one_ulp, &reference).is_err(),
        ),
        (
            "checker: true drift boundary passes",
            crate::adapt::check_round(&ack(8), 8, 2).is_ok(),
        ),
        (
            "checker: wrong drift boundary",
            crate::adapt::check_round(&ack(9), 8, 2).is_err(),
        ),
        (
            "checker: changed ACC",
            crate::train::check_acc((100.0, 87.5)).is_err(),
        ),
    ];
    let mut failed = 0;
    for (name, ok) in cases {
        failed += usize::from(!ok);
        println!("{} {name}", if ok { "ok  " } else { "FAIL" });
    }
    println!("self-test: {failed} failed");
    i32::from(failed > 0)
}
