//! Workspace invariant linter (DESIGN.md §9).
//!
//! A line-oriented scanner over `crates/*/src` that enforces the coding
//! contracts the workspace relies on but the compiler cannot check:
//!
//! * **no-panic** — no `.unwrap()` / `.expect(` / `panic!` in library code
//!   outside `#[cfg(test)]`; shape violations must route through
//!   `cdcl_tensor::check` and the few sanctioned escalation points are
//!   enumerated (with justification) in `lint-allow.txt`;
//! * **no-hashmap** — no `std::collections::HashMap` in non-test library
//!   code: its iteration order is random-seeded per process, which silently
//!   breaks the workspace's bitwise-determinism contract (DESIGN.md §7);
//! * **no-raw-timing** — no `Instant::now` / `thread::spawn` outside
//!   `crates/telemetry` and `crates/obs`: ad-hoc timing belongs in
//!   telemetry spans, and kernels run on their calling thread;
//! * **phase-spans** — every trainer phase listed in DESIGN.md §8 must be
//!   wrapped in a `telemetry::span("<name>")` somewhere in `crates/core/src`
//!   so traced runs always observe the full Algorithm-1 breakdown; the
//!   §16 traind pipeline stages are held to the same rule inside
//!   `crates/bench/src/traind`;
//! * **atomic-write** — inside `crates/snapshot`, every file write/rename
//!   must go through the `atomic::atomic_write` helper (write temp, fsync,
//!   then rename): a raw `File::create`/`fs::write`/`fs::rename` on a
//!   final path can tear a checkpoint mid-crash, which is precisely what
//!   the crate exists to prevent. Only `src/atomic.rs` itself may touch
//!   the filesystem primitives;
//! * **metric-names** — every `Counter::new("…")` / `Gauge::new("…")` /
//!   `Histogram::new("…")` registration must use a `cdcl_`-prefixed
//!   snake_case name (counters additionally end in `_total`, the Prometheus
//!   convention), and outside `crates/obs` no code may look a metric up by
//!   string at the record site (`.counter("…")` etc.) — record through the
//!   static handle so the name exists in exactly one place;
//! * **pooled-alloc** — no raw `vec![0.0; …]` / `Vec::with_capacity` in the
//!   hot-path crates (tensor, autograd, nn, optim) outside the buffer pool
//!   itself: steady-state f32 storage must come from
//!   `cdcl_tensor::PooledBuf` (`take_uninit` / `take_zeroed`) so training
//!   reaches a zero-alloc steady state (DESIGN.md §12). Vetted cold paths
//!   (construction-time, per-run setup) are enumerated in `lint-allow.txt`.
//!
//! Before pattern matching, each file is *masked*: the contents of string
//! literals, char literals, and comments are blanked out (newlines kept), so
//! a pattern inside a doc comment or an error message never trips a rule.
//! `#[cfg(test)]` items are excluded by real token-tree tracking. The
//! phase-spans rule is the one exception — span names live inside string
//! literals, so it scans the raw text.
//!
//! Since PR 8 the engine is token-based: every file is lexed once by
//! [`lexer`] (zero-dep, handles raw strings, nested block comments, and the
//! char/lifetime ambiguity) and masking, test regions, and the deeper
//! concurrency passes — [`lockorder`] (lock-order graph, deadlock cycles,
//! guards across blocking calls), [`atomics`] (ordering-contract audit),
//! and the [`witness`] runtime recorder — all read the same token stream.
//! It is still not a Rust parser, and the approximations are chosen to err
//! on the side of flagging.

pub mod atomics;
pub mod lexer;
pub mod lockorder;
pub mod witness;

use std::fmt;
use std::path::{Path, PathBuf};

/// The trainer phases DESIGN.md §8 requires a telemetry span for
/// (`drift_detect` added by §15's task-free boundary inference).
pub const REQUIRED_SPANS: [&str; 13] = [
    "warmup",
    "adaptation",
    "centroid_fit",
    "pseudo_assign",
    "pair_filter",
    "replay",
    "memory_select",
    "memory_rebalance",
    "eval_til",
    "eval_cil",
    "graph_check",
    "checkpoint",
    "drift_detect",
];

/// The traind pipeline stages DESIGN.md §16's distributed trace observes
/// inside `crates/bench/src/traind`: the per-window root plus the staging,
/// training, and publication children (the serve-side `reload` /
/// `first_serve` spans live in the serve plane, outside this scope).
pub const TRAIND_REQUIRED_SPANS: [&str; 4] = ["window_commit", "ingest", "online_round", "publish"];

/// One rule violation at a specific line of a specific file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-indexed line (0 for file/workspace-level findings).
    pub line: usize,
    /// Rule identifier (`no-panic`, `no-hashmap`, `no-raw-timing`,
    /// `phase-spans`, `atomic-write`, `metric-names`, `pooled-alloc`).
    pub rule: &'static str,
    /// The pattern text that matched.
    pub needle: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.file, self.line, self.rule, self.needle, self.excerpt
        )
    }
}

/// Minimal JSON string escaping (the check crate is dependency-free by
/// design, so it cannot use the vendored serde).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Finding {
    /// One-line JSON object for `--json` output modes (and CI artifacts).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"needle\":\"{}\",\"excerpt\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            json_escape(self.rule),
            json_escape(&self.needle),
            json_escape(&self.excerpt)
        )
    }
}

/// Parsed `lint-allow.txt`: each entry vets one (path prefix, needle) pair.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    path: String,
    needle: String,
}

impl Allowlist {
    /// Parses the allowlist format: one `path-prefix: needle` per line,
    /// `#` comments (the per-entry justification) and blank lines skipped.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, needle)) = line.split_once(": ") {
                entries.push(AllowEntry {
                    path: path.trim().to_string(),
                    needle: needle.trim().to_string(),
                });
            }
        }
        Self { entries }
    }

    /// Whether `f` is vetted: some entry's path is a prefix of the finding's
    /// file and its needle appears in the offending line.
    pub fn allows(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|e| f.file.starts_with(&e.path) && f.excerpt.contains(&e.needle))
    }

    /// Entries that vetted no finding in `all` — stale allowances worth
    /// pruning (reported as warnings, not failures).
    pub fn unused(&self, all: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| {
                !all.iter()
                    .any(|f| f.file.starts_with(&e.path) && f.excerpt.contains(&e.needle))
            })
            .map(|e| format!("{}: {}", e.path, e.needle))
            .collect()
    }
}

// ----------------------------------------------------------------------
// Source masking
// ----------------------------------------------------------------------

/// Replaces the *contents* of string literals, char literals, and comments
/// with spaces (newlines kept), so char offsets and line numbers survive but
/// text inside them can never match a rule pattern. Implemented on the
/// token stream from [`lexer`] — one lex serves masking, test-region
/// exclusion, and the concurrency passes alike.
pub fn mask_source(src: &str) -> String {
    lexer::mask(src)
}

// ----------------------------------------------------------------------
// Rules
// ----------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Occurrences of `needle` in `line` that are not part of a longer
/// identifier (checked one char left of the match).
fn word_hits(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let prev_ok = line[..at]
            .chars()
            .next_back()
            .map_or(true, |c| !is_ident_char(c));
        if prev_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Paths exempt from the no-raw-timing rule: the telemetry and obs crates
/// own timing (spans and histogram timers).
fn raw_timing_exempt(rel_path: &str) -> bool {
    rel_path.starts_with("crates/telemetry/") || rel_path.starts_with("crates/obs/")
}

/// Filesystem primitives the atomic-write rule bans inside
/// `crates/snapshot`: each can publish a torn file on a final path.
const RAW_FS_NEEDLES: [&str; 4] = ["File::create", "fs::write", "fs::rename", "OpenOptions"];

/// Whether the atomic-write rule applies to `rel_path`: all of
/// `crates/snapshot/src` except the helper module that *implements*
/// write-temp-then-rename.
fn atomic_write_applies(rel_path: &str) -> bool {
    rel_path.starts_with("crates/snapshot/src/") && rel_path != "crates/snapshot/src/atomic.rs"
}

/// Metric handle constructors whose first argument registers the name.
const METRIC_CTORS: [(&str, &str); 6] = [
    ("Counter::new(\"", "counter"),
    ("Gauge::new(\"", "gauge"),
    ("Histogram::new(\"", "histogram"),
    ("CounterFamily::new(\"", "counter family"),
    ("GaugeFamily::new(\"", "gauge family"),
    ("HistogramFamily::new(\"", "histogram family"),
];

/// Registry string lookups banned outside `crates/obs`: recording through
/// an ad-hoc name bypasses the single static registration point, so a typo
/// silently forks the time series.
const METRIC_LOOKUPS: [&str; 3] = [".counter(\"", ".gauge(\"", ".histogram(\""];

/// Whether the metric-names rule applies: everywhere except the crate that
/// implements the registry (whose accessors legitimately take name strings).
fn metric_rule_applies(rel_path: &str) -> bool {
    !rel_path.starts_with("crates/obs/")
}

/// Allocation primitives the pooled-alloc rule bans in hot-path crates:
/// steady-state f32 storage must be recycled through the buffer pool, not
/// freshly heap-allocated every step.
const POOLED_ALLOC_NEEDLES: [&str; 2] = ["vec![0.0", "Vec::with_capacity"];

/// Whether the pooled-alloc rule applies to `rel_path`: the four crates on
/// the per-step hot path, except the buffer pool, which *is* the sanctioned
/// allocator.
fn pooled_alloc_applies(rel_path: &str) -> bool {
    const HOT: [&str; 4] = [
        "crates/tensor/src/",
        "crates/autograd/src/",
        "crates/nn/src/",
        "crates/optim/src/",
    ];
    HOT.iter().any(|p| rel_path.starts_with(p)) && rel_path != "crates/tensor/src/pool.rs"
}

/// A well-formed workspace metric name: `cdcl_`-prefixed snake_case;
/// counters additionally carry the Prometheus `_total` suffix.
fn metric_name_ok(kind: &str, name: &str) -> bool {
    name.starts_with("cdcl_")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && (!kind.starts_with("counter") || name.ends_with("_total"))
}

/// Applies the metric-names rule to one line. Constructor calls and lookups
/// are located on the MASKED line (so doc comments and string literals that
/// merely mention them cannot trip the rule — masking keeps the delimiter
/// quotes, blanking only their contents), while the registered name itself
/// is read back from the RAW line at the same char offset (masking is
/// char-for-char, so offsets align). Returns the needles to report:
/// malformed names as `` counter name `x` `` and banned record-site lookups
/// verbatim.
fn metric_line_findings(masked_line: &str, raw_line: &str) -> Vec<String> {
    let raw: Vec<char> = raw_line.chars().collect();
    let mut out = Vec::new();
    for (ctor, kind) in METRIC_CTORS {
        let mut from = 0;
        while let Some(rel) = masked_line[from..].find(ctor) {
            let at = from + rel;
            let prev_ok = masked_line[..at]
                .chars()
                .next_back()
                .map_or(true, |c| !is_ident_char(c));
            let name_start = masked_line[..at + ctor.len()].chars().count();
            let name: String = raw
                .get(name_start..)
                .unwrap_or(&[])
                .iter()
                .take_while(|&&c| c != '"')
                .collect();
            if prev_ok && !metric_name_ok(kind, &name) {
                out.push(format!("{kind} name `{name}`"));
            }
            from = at + ctor.len();
        }
    }
    for needle in METRIC_LOOKUPS {
        if masked_line.contains(needle) {
            out.push(needle.to_string());
        }
    }
    out
}

/// Scans one file's source, returning every rule violation outside
/// `#[cfg(test)]` regions. `rel_path` is the workspace-relative path with
/// forward slashes.
pub fn scan_file(rel_path: &str, source: &str) -> Vec<Finding> {
    let toks = lexer::lex(source);
    let masked = lexer::mask_with(source, &toks);
    let regions = lexer::test_line_regions(&toks);
    let mut findings = Vec::new();

    for (lineno, line) in masked.lines().enumerate() {
        if lexer::line_in_regions(&regions, lineno + 1) {
            continue;
        }
        let mut push = |rule: &'static str, needle: &str| {
            // Excerpt from the RAW source so allowlist needles can match
            // message text (e.g. `.expect("param lock poisoned")`).
            let raw_line = source.lines().nth(lineno).unwrap_or(line).trim();
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno + 1,
                rule,
                needle: needle.to_string(),
                excerpt: raw_line.to_string(),
            });
        };
        for needle in [".unwrap()", ".expect("] {
            if line.contains(needle) {
                push("no-panic", needle);
            }
        }
        if word_hits(line, "panic!") {
            push("no-panic", "panic!");
        }
        if word_hits(line, "HashMap") {
            push("no-hashmap", "HashMap");
        }
        if !raw_timing_exempt(rel_path) {
            for needle in ["Instant::now", "thread::spawn"] {
                if line.contains(needle) {
                    push("no-raw-timing", needle);
                }
            }
        }
        if atomic_write_applies(rel_path) {
            for needle in RAW_FS_NEEDLES {
                if line.contains(needle) {
                    push("atomic-write", needle);
                }
            }
        }
        if metric_rule_applies(rel_path) {
            let raw_line = source.lines().nth(lineno).unwrap_or("");
            for needle in metric_line_findings(line, raw_line) {
                push("metric-names", &needle);
            }
        }
        if pooled_alloc_applies(rel_path) {
            for needle in POOLED_ALLOC_NEEDLES {
                if line.contains(needle) {
                    push("pooled-alloc", needle);
                }
            }
        }
    }
    findings
}

/// Workspace-level rule: every [`REQUIRED_SPANS`] phase must appear as a
/// contiguous `span("<name>")` call somewhere in `crates/core/src`. Scans
/// the RAW text — span names live inside string literals, which masking
/// would hide.
pub fn check_phase_spans(core_sources: &[(String, String)]) -> Vec<Finding> {
    check_spans_in(&REQUIRED_SPANS, "crates/core/src", "§8", core_sources)
}

/// Same rule scoped to the traind daemon: every [`TRAIND_REQUIRED_SPANS`]
/// stage must appear in `crates/bench/src/traind`, or a distributed trace
/// loses a stage of its critical path (DESIGN.md §16).
pub fn check_traind_spans(traind_sources: &[(String, String)]) -> Vec<Finding> {
    check_spans_in(
        &TRAIND_REQUIRED_SPANS,
        "crates/bench/src/traind",
        "§16",
        traind_sources,
    )
}

fn check_spans_in(
    required: &[&str],
    scope: &str,
    section: &str,
    sources: &[(String, String)],
) -> Vec<Finding> {
    required
        .iter()
        .filter(|name| {
            let call = format!("span(\"{name}\")");
            !sources.iter().any(|(_, text)| text.contains(&call))
        })
        .map(|name| Finding {
            file: scope.to_string(),
            line: 0,
            rule: "phase-spans",
            needle: format!("span(\"{name}\")"),
            excerpt: format!("DESIGN.md {section} phase `{name}` has no telemetry span"),
        })
        .collect()
}

// ----------------------------------------------------------------------
// File walking
// ----------------------------------------------------------------------

/// All `.rs` files under `crates/*/src`, workspace-relative with forward
/// slashes, in sorted (deterministic) order.
pub fn collect_rs_files(workspace_root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = workspace_root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir);
    crate_dirs.retain(|p| p.is_dir());
    for krate in crate_dirs {
        let src = krate.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out);
        }
    }
    out.sort();
    out
}

fn read_dir_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    v.sort();
    v
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for p in read_dir_sorted(dir) {
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Strips `workspace_root` and normalizes to forward slashes.
pub fn rel_path(workspace_root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(workspace_root).unwrap_or(p);
    rel.to_string_lossy().replace('\\', "/")
}

/// Full workspace lint: walks `crates/*/src`, applies the per-file rules
/// plus the phase-spans rule, and splits results into (violations,
/// allowed) under `allow`. Files that fail to read are reported as
/// findings rather than silently skipped.
pub fn lint_workspace(workspace_root: &Path, allow: &Allowlist) -> (Vec<Finding>, Vec<Finding>) {
    let mut all = Vec::new();
    let mut core_sources = Vec::new();
    let mut traind_sources = Vec::new();
    for path in collect_rs_files(workspace_root) {
        let rel = rel_path(workspace_root, &path);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                all.push(Finding {
                    file: rel,
                    line: 0,
                    rule: "io",
                    needle: String::new(),
                    excerpt: format!("cannot read file: {e}"),
                });
                continue;
            }
        };
        all.extend(scan_file(&rel, &source));
        if rel.starts_with("crates/core/src") {
            core_sources.push((rel, source));
        } else if rel.starts_with("crates/bench/src/traind") {
            traind_sources.push((rel, source));
        }
    }
    all.extend(check_phase_spans(&core_sources));
    all.extend(check_traind_spans(&traind_sources));
    all.into_iter().partition(|f| !allow.allows(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_strings_comments_and_chars() {
        let src = "let a = \"panic!()\"; // .unwrap()\nlet c = '\\n'; /* HashMap */ let l: &'static str = x;";
        let m = mask_source(src);
        assert!(!m.contains("panic!"));
        assert!(!m.contains(".unwrap()"));
        assert!(!m.contains("HashMap"));
        assert!(m.contains("'static"), "lifetimes must survive masking");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_preserves_string_line_continuations() {
        // `\<newline>` inside a string must keep its newline, or every
        // finding below it reports the wrong line.
        let src = "let s = \"head \\\n tail\";\nx.unwrap();\n";
        let m = mask_source(src);
        assert_eq!(m.lines().count(), src.lines().count());
        let f = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn masking_handles_raw_strings() {
        let src = "let s = r#\"panic! .unwrap()\"#; let t = self.unwrap();";
        let m = mask_source(src);
        // The raw string's content is blanked; the real call survives.
        assert_eq!(m.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn flags_panic_unwrap_expect_outside_tests() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"boom\");\n    panic!(\"no\");\n    unreachable!();\n    assert!(true);\n}\n";
        let f = scan_file("crates/x/src/lib.rs", src);
        let needles: Vec<&str> = f.iter().map(|f| f.needle.as_str()).collect();
        assert_eq!(needles, [".unwrap()", ".expect(", "panic!"]);
        assert!(f.iter().all(|f| f.rule == "no-panic"));
        // Provenance: 1-indexed lines.
        assert_eq!(f[0].line, 2);
        assert_eq!(f[2].excerpt, "panic!(\"no\");");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); panic!(); }\n}\nfn tail() { y.unwrap(); }\n";
        let f = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn hashmap_and_timing_rules() {
        let src =
            "use std::collections::HashMap;\nlet t = Instant::now();\nstd::thread::spawn(f);\n";
        let f = scan_file("crates/x/src/lib.rs", src);
        let rules: Vec<&str> = f.iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["no-hashmap", "no-raw-timing", "no-raw-timing"]);
        // Exempt paths skip only the timing rule.
        let f = scan_file("crates/telemetry/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-hashmap");
    }

    #[test]
    fn longer_identifiers_do_not_trip_word_rules() {
        let src = "fn my_panic!_not_really() {}\nlet x = FxHashMap::default();\n";
        // `FxHashMap` must not match `HashMap` (prev char is ident).
        let f = scan_file("crates/x/src/lib.rs", src);
        assert!(f.iter().all(|f| f.rule != "no-hashmap"), "{f:?}");
    }

    #[test]
    fn atomic_write_rule_guards_the_snapshot_crate() {
        let src = "let f = std::fs::File::create(path)?;\nfs::write(p, b)?;\nfs::rename(a, b)?;\nlet o = OpenOptions::new();\n";
        // Inside crates/snapshot: every raw primitive is flagged.
        let f = scan_file("crates/snapshot/src/format.rs", src);
        let needles: Vec<&str> = f.iter().map(|f| f.needle.as_str()).collect();
        assert_eq!(
            needles,
            ["File::create", "fs::write", "fs::rename", "OpenOptions"]
        );
        assert!(f.iter().all(|f| f.rule == "atomic-write"));
        // The helper module that implements write-temp-then-rename is the
        // sanctioned exception.
        assert!(scan_file("crates/snapshot/src/atomic.rs", src).is_empty());
        // Other crates are out of scope for this rule.
        assert!(scan_file("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn atomic_write_rule_ignores_masked_and_test_code() {
        let src = "// File::create is documented here\nlet s = \"fs::rename\";\n#[cfg(test)]\nmod tests {\n    fn t() { fs::write(p, b); }\n}\n";
        assert!(scan_file("crates/snapshot/src/wire.rs", src).is_empty());
    }

    #[test]
    fn metric_names_rule_enforces_convention_and_static_registration() {
        // Well-formed registrations pass.
        let ok = "static A: Counter = Counter::new(\"cdcl_kernel_gemm_calls_total\");\n\
                  static B: Gauge = Gauge::new(\"cdcl_train_loss\");\n\
                  static C: Histogram = Histogram::new(\"cdcl_serve_batch_latency_us\");\n";
        assert!(scan_file("crates/core/src/health.rs", ok).is_empty());
        // Bad names: missing prefix, camelCase, counter without _total.
        let bad = "static A: Counter = Counter::new(\"gemm_calls_total\");\n\
                   static B: Gauge = Gauge::new(\"cdcl_trainLoss\");\n\
                   static C: Counter = Counter::new(\"cdcl_serve_requests\");\n";
        let f = scan_file("crates/core/src/health.rs", bad);
        let needles: Vec<&str> = f.iter().map(|f| f.needle.as_str()).collect();
        assert_eq!(
            needles,
            [
                "counter name `gemm_calls_total`",
                "gauge name `cdcl_trainLoss`",
                "counter name `cdcl_serve_requests`",
            ],
            "{f:?}"
        );
        assert!(f.iter().all(|f| f.rule == "metric-names"));
        // Ad-hoc string lookups at record sites are banned outside obs.
        let lookup = "fn f() { cdcl_obs::global().counter(\"cdcl_x_total\").inc(); }\n";
        let f = scan_file("crates/bench/src/serve.rs", lookup);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].needle, ".counter(\"");
        // The registry crate itself is exempt (its accessors take names).
        assert!(scan_file("crates/obs/src/lib.rs", lookup).is_empty());
        // A doc comment mentioning a constructor must not trip the rule.
        let doc = "/// Register with `Counter::new(\"whatever\")` or `.gauge(\"x\")`.\nfn f() {}\n";
        assert!(scan_file("crates/core/src/health.rs", doc).is_empty());
        // Labeled families are held to the same naming convention.
        let fam_ok = "static A: CounterFamily = CounterFamily::new(\"cdcl_serve_model_requests_total\");\n\
                      static B: GaugeFamily = GaugeFamily::new(\"cdcl_serve_model_inflight\");\n\
                      static C: HistogramFamily = HistogramFamily::new(\"cdcl_serve_model_latency_us\");\n";
        assert!(scan_file("crates/bench/src/serve/metrics.rs", fam_ok).is_empty());
        let fam_bad = "static A: CounterFamily = CounterFamily::new(\"model_requests\");\n\
                       static B: HistogramFamily = HistogramFamily::new(\"cdcl_modelLatency\");\n";
        let f = scan_file("crates/bench/src/serve/metrics.rs", fam_bad);
        let needles: Vec<&str> = f.iter().map(|f| f.needle.as_str()).collect();
        assert_eq!(
            needles,
            [
                "counter family name `model_requests`",
                "histogram family name `cdcl_modelLatency`",
            ],
            "{f:?}"
        );
    }

    #[test]
    fn pooled_alloc_rule_guards_hot_path_crates() {
        let src = "let a = vec![0.0f32; n];\nlet b = Vec::with_capacity(n);\n";
        for file in [
            "crates/tensor/src/matmul.rs",
            "crates/autograd/src/graph.rs",
            "crates/nn/src/layers.rs",
            "crates/optim/src/optimizer.rs",
        ] {
            let f = scan_file(file, src);
            let needles: Vec<&str> = f.iter().map(|f| f.needle.as_str()).collect();
            assert_eq!(needles, ["vec![0.0", "Vec::with_capacity"], "{file}");
            assert!(f.iter().all(|f| f.rule == "pooled-alloc"));
        }
        // The buffer pool is the sanctioned allocator; crates off the hot
        // path are out of scope.
        assert!(scan_file("crates/tensor/src/pool.rs", src).is_empty());
        assert!(scan_file("crates/data/src/batch.rs", src).is_empty());
        assert!(scan_file("crates/bench/src/serve.rs", src).is_empty());
    }

    #[test]
    fn pooled_alloc_rule_ignores_masked_and_test_code() {
        let src = "// vec![0.0; n] is documented here\n#[cfg(test)]\nmod tests {\n    fn t() { let v = Vec::with_capacity(3); }\n}\n";
        assert!(scan_file("crates/tensor/src/tensor.rs", src).is_empty());
    }

    #[test]
    fn obs_crate_is_exempt_from_raw_timing() {
        let src = "let t = Instant::now();\n";
        assert!(scan_file("crates/obs/src/lib.rs", src).is_empty());
        assert_eq!(scan_file("crates/core/src/trainer.rs", src).len(), 1);
    }

    #[test]
    fn phase_span_rule_reports_missing_spans() {
        let have = REQUIRED_SPANS
            .iter()
            .take(REQUIRED_SPANS.len() - 1)
            .map(|n| format!("let _s = telemetry::span(\"{n}\");"))
            .collect::<Vec<_>>()
            .join("\n");
        let sources = vec![("crates/core/src/trainer.rs".to_string(), have)];
        let f = check_phase_spans(&sources);
        assert_eq!(f.len(), 1);
        assert!(f[0]
            .needle
            .contains(REQUIRED_SPANS[REQUIRED_SPANS.len() - 1]));
    }

    #[test]
    fn traind_span_rule_reports_missing_stages() {
        let have = "let root = telemetry::span(\"window_commit\");\n\
                    let _s = telemetry::span(\"ingest\");\n\
                    let _s = telemetry::span(\"online_round\");\n"
            .to_string();
        let sources = vec![("crates/bench/src/traind/mod.rs".to_string(), have)];
        let f = check_traind_spans(&sources);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].needle, "span(\"publish\")");
        assert_eq!(f[0].file, "crates/bench/src/traind");
        assert!(check_traind_spans(&[(
            "crates/bench/src/traind/mod.rs".to_string(),
            TRAIND_REQUIRED_SPANS
                .iter()
                .map(|n| format!("telemetry::span(\"{n}\")"))
                .collect::<Vec<_>>()
                .join("\n"),
        )])
        .is_empty());
    }

    #[test]
    fn allowlist_vets_by_path_prefix_and_needle() {
        let allow = Allowlist::parse(
            "# justification comment\ncrates/autograd/src/param.rs: param lock poisoned\n",
        );
        let vetted = Finding {
            file: "crates/autograd/src/param.rs".to_string(),
            line: 46,
            rule: "no-panic",
            needle: ".expect(".to_string(),
            excerpt: "self.inner.read().expect(\"param lock poisoned\")".to_string(),
        };
        let other = Finding {
            file: "crates/core/src/trainer.rs".to_string(),
            ..vetted.clone()
        };
        assert!(allow.allows(&vetted));
        assert!(!allow.allows(&other));
        assert!(allow.unused(&[vetted]).is_empty());
        assert_eq!(allow.unused(&[]).len(), 1);
    }
}
