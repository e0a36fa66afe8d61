//! Static lock-order analysis (DESIGN.md §14).
//!
//! Three questions about every function in the workspace, answered from the
//! token stream alone:
//!
//! 1. **Which locks does it acquire, and with what held?** An acquisition
//!    is either an *empty-paren* guard method — `x.lock()` / `x.read()` /
//!    `x.write()` (the empty parens disambiguate `RwLock::read` from
//!    `io::Read::read`, which takes a buffer) — or a call to one of the
//!    workspace's poison-tolerant wrapper fns ([`WRAPPER_FNS`]), whose
//!    `&'static str` name argument at the call site *is* the canonical
//!    lock label shared with the runtime witness.
//! 2. **How long is the guard held?** A `let`-bound guard lives until its
//!    enclosing block closes or an explicit `drop(guard)`; a temporary
//!    guard lives to the end of its statement (the `;` at acquisition
//!    depth), or through the brace tree that starts first — which keeps a
//!    `match m.lock() { … }` scrutinee or an
//!    `if let Some(v) = lock(…).pop() { … }` temporary alive through the
//!    body, exactly as Rust does.
//! 3. **What do calls made under a guard acquire, transitively?** A call
//!    edge is followed only when exactly one workspace `fn` bears the
//!    callee's name and the name is not on [`CALL_STOPLIST`] (ubiquitous
//!    trait-method names whose resolution by bare name would be a guess).
//!    Acquire-sets propagate to a fixpoint; held-lock × callee-acquire
//!    products become lock-order edges.
//!
//! The cross-crate edge graph then yields the two failure classes:
//! deadlock *cycles* (any strongly-connected acquisition order, including
//! self-edges — re-entering a non-reentrant `Mutex`), and *guards held
//! across blocking calls* ([`BLOCKING_CALLS`]) inside the latency-critical
//! paths ([`BLOCKING_SCOPES`]: the daemons' shared line server, the serve
//! and traind planes, and the buffer pool), where the multi-tenant
//! contract is "load off-lock, swap atomically".
//!
//! Like the rest of the linter this is an approximation — closures are
//! treated as executing inline, branch-local guards look held through the
//! whole statement tree — chosen so the *static graph over-approximates
//! the runtime graph*: every edge the witness can observe must exist here.

use crate::lexer::{lex, test_line_regions, Tok, TokKind};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Guard methods that take no arguments: `Mutex::lock`, `RwLock::read`,
/// `RwLock::write`.
const LOCK_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Workspace wrapper fns that acquire and return a guard. Their bodies are
/// skipped (the interior `m.lock()` would double-count) and their call
/// sites are acquisitions, labeled by the first string-literal argument.
pub const WRAPPER_FNS: [&str; 6] = [
    "lock",
    "read_lock",
    "write_lock",
    "lock_first_serve",
    "lock_sink",
    "lock_traind",
];

/// Receivers whose `.lock()` is not a contended workspace lock: stdio
/// handles (re-entrant per-thread buffers, held across I/O by design).
const EXEMPT_LABELS: [&str; 3] = ["stdin", "stdout", "stderr"];

/// Calls that can block on I/O, time, or another thread. `read`/`write`
/// appear here too: with *arguments* they are `io::Read`/`io::Write`
/// (the empty-paren guard form is consumed by acquisition matching first).
pub const BLOCKING_CALLS: [&str; 15] = [
    "accept",
    "bind",
    "connect",
    "flush",
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "resume_from",
    "sleep",
    "write",
    "write_all",
    "writeln",
];

/// Path prefixes where a guard held across a blocking call is an error:
/// the daemons' shared accept and line-reading path, the serve request
/// plane, the traind ingest/publish plane, and the buffer pool's
/// free-list mutex.
pub const BLOCKING_SCOPES: [&str; 4] = [
    "crates/bench/src/net.rs",
    "crates/bench/src/serve/",
    "crates/bench/src/traind/",
    "crates/tensor/src/pool.rs",
];

/// Callee names never resolved by bare name: trait methods and collection
/// verbs so common that a single-definition match would still usually be
/// the wrong target (e.g. `Iterator::find` vs `SnapshotRegistry::find`).
const CALL_STOPLIST: [&str; 34] = [
    "add",
    "clear",
    "clone",
    "cmp",
    "collect",
    "flush",
    "compare_exchange",
    "compare_exchange_weak",
    "default",
    "deref",
    "deref_mut",
    "drop",
    "eq",
    "fetch_add",
    "fetch_sub",
    "find",
    "fmt",
    "from",
    "get",
    "hash",
    "inc",
    "insert",
    "into",
    "is_empty",
    "iter",
    "len",
    "load",
    "map",
    "new",
    "next",
    "observe",
    "push",
    "set",
    "store",
];

/// Rust keywords that look like `ident (` at a call site but are not calls.
const KEYWORDS: [&str; 14] = [
    "box", "break", "continue", "else", "for", "if", "in", "loop", "match", "move", "return",
    "unsafe", "while", "yield",
];

/// One lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Canonical lock label (string-literal argument of a wrapper call,
    /// or the receiver's final identifier for a direct guard method).
    pub label: String,
    pub line: usize,
    /// Labels already held when this one was acquired.
    pub held: Vec<String>,
}

/// One call made inside a function body, with the guards held around it.
#[derive(Debug, Clone)]
pub struct HeldCall {
    pub callee: String,
    pub line: usize,
    pub held: Vec<String>,
    /// `name!(…)` macro invocation — participates in the blocking check
    /// but never in name resolution.
    pub is_macro: bool,
}

/// Per-function lock facts extracted from one file.
#[derive(Debug, Clone)]
pub struct FnLockInfo {
    pub name: String,
    pub file: String,
    pub line: usize,
    pub acquisitions: Vec<Acquisition>,
    pub calls: Vec<HeldCall>,
}

/// One directed lock-order edge with provenance: `from` was held while
/// `to` was acquired (directly, or transitively through `via`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// Callee the acquisition was reached through (empty for direct).
    pub via: String,
}

/// The whole-workspace report: per-fn facts, the deduplicated edge graph,
/// and the findings from the two failure checks.
#[derive(Debug, Default)]
pub struct LockReport {
    pub fns: Vec<FnLockInfo>,
    pub edges: Vec<LockEdge>,
    pub findings: Vec<Finding>,
}

impl LockReport {
    /// Whether the static graph contains `from -> to` (the witness's
    /// validation question).
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

// ----------------------------------------------------------------------
// Per-function extraction
// ----------------------------------------------------------------------

/// A live guard while walking a function body.
struct Guard {
    label: String,
    /// `let`-binding name, when the statement was `let [mut] name = …`.
    bind: Option<String>,
    /// Brace depth (relative to the fn body) at acquisition.
    depth: usize,
    /// Temporary (not `let`-bound): released at the `;` of its statement.
    temp: bool,
}

/// Extracts [`FnLockInfo`] for every non-test function in `source`.
/// Wrapper fns themselves are skipped — their interior `m.lock()` is
/// represented by the labels at their call sites.
pub fn analyze_source(rel_path: &str, source: &str) -> Vec<FnLockInfo> {
    let all = lex(source);
    let regions = test_line_regions(&all);
    let t: Vec<&Tok> = all.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        if !(t[i].is_ident("fn") && i + 1 < t.len() && t[i + 1].kind == TokKind::Ident) {
            i += 1;
            continue;
        }
        let name = t[i + 1].text.clone();
        let fn_line = t[i].line;
        // Find the body: the first `{` before a `;` (a `;` first means a
        // trait-method declaration with no body).
        let mut j = i + 2;
        let mut body_start = None;
        while j < t.len() {
            if t[j].is_punct(';') {
                break;
            }
            if t[j].is_punct('{') {
                body_start = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = body_start else {
            i = j.max(i + 1);
            continue;
        };
        // Matching close brace.
        let mut depth = 0usize;
        let mut k = open;
        while k < t.len() {
            if t[k].is_punct('{') {
                depth += 1;
            } else if t[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        let in_test = crate::lexer::line_in_regions(&regions, fn_line);
        if !in_test && !WRAPPER_FNS.contains(&name.as_str()) {
            let (acquisitions, calls) = walk_body(&t[open..=k.min(t.len() - 1)]);
            // Record even lock-free fns: the by-name census in
            // [`build_report`] must see every definition, or a common
            // method name (`shape`) with one lock-touching and one plain
            // definition would look unique and mis-resolve.
            out.push(FnLockInfo {
                name,
                file: rel_path.to_string(),
                line: fn_line,
                acquisitions,
                calls,
            });
        }
        i = k.max(i + 1);
    }
    out
}

/// Walks one brace-delimited body, tracking guard liveness.
fn walk_body(t: &[&Tok]) -> (Vec<Acquisition>, Vec<HeldCall>) {
    let mut acquisitions = Vec::new();
    let mut calls = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < t.len() {
        let tok = t[i];
        if tok.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            // Any guard acquired inside the block that just closed dies,
            // temporaries included (their statement tree cannot extend
            // past the enclosing block).
            guards.retain(|g| g.depth <= depth);
            i += 1;
            continue;
        }
        if tok.is_punct(';') {
            // End of statement at this depth: temporaries acquired at
            // this depth die with their statement.
            guards.retain(|g| !(g.temp && g.depth == depth));
            i += 1;
            continue;
        }
        // Explicit `drop(guard)` releases a let-bound guard early.
        if tok.is_ident("drop")
            && i + 3 < t.len()
            && t[i + 1].is_punct('(')
            && t[i + 2].kind == TokKind::Ident
            && t[i + 3].is_punct(')')
        {
            let name = &t[i + 2].text;
            guards.retain(|g| g.bind.as_deref() != Some(name.as_str()));
            i += 4;
            continue;
        }
        // Direct guard method: `recv.lock()` / `recv.read()` / `recv.write()`
        // with EMPTY parens.
        if tok.is_punct('.')
            && i + 3 < t.len()
            && t[i + 1].kind == TokKind::Ident
            && LOCK_METHODS.contains(&t[i + 1].text.as_str())
            && t[i + 2].is_punct('(')
            && t[i + 3].is_punct(')')
        {
            if let Some(label) = receiver_label(t, i) {
                if !EXEMPT_LABELS.contains(&label.as_str()) {
                    acquire(&mut acquisitions, &mut guards, label, t, i, depth);
                }
            }
            i += 4;
            continue;
        }
        // Wrapper call: `read_lock(&self.models, "registry.models")`.
        if tok.kind == TokKind::Ident
            && WRAPPER_FNS.contains(&tok.text.as_str())
            && i + 1 < t.len()
            && t[i + 1].is_punct('(')
            && (i == 0 || !(t[i - 1].is_punct('.') || t[i - 1].is_ident("fn")))
        {
            let label = wrapper_label(t, i);
            if !EXEMPT_LABELS.contains(&label.as_str()) {
                acquire(&mut acquisitions, &mut guards, label, t, i, depth);
            }
            i += 2;
            continue;
        }
        // Plain or method call (`foo(…)` / `x.foo(…)`), and macro
        // invocations (`writeln!(…)`).
        if tok.kind == TokKind::Ident && i + 1 < t.len() {
            let is_macro = t[i + 1].is_punct('!')
                && i + 2 < t.len()
                && (t[i + 2].is_punct('(') || t[i + 2].is_punct('[') || t[i + 2].is_punct('{'));
            let is_call = t[i + 1].is_punct('(');
            let prev_fn = i > 0 && t[i - 1].is_ident("fn");
            if (is_macro || is_call) && !prev_fn && !KEYWORDS.contains(&tok.text.as_str()) {
                let held: Vec<String> = guards.iter().map(|g| g.label.clone()).collect();
                if !held.is_empty() || !is_macro {
                    calls.push(HeldCall {
                        callee: tok.text.clone(),
                        line: tok.line,
                        held,
                        is_macro,
                    });
                }
            }
        }
        i += 1;
    }
    (acquisitions, calls)
}

/// Records an acquisition at token index `i`: emits the held-set snapshot
/// and registers the new guard with its liveness class.
fn acquire(
    acquisitions: &mut Vec<Acquisition>,
    guards: &mut Vec<Guard>,
    label: String,
    t: &[&Tok],
    i: usize,
    depth: usize,
) {
    let held: Vec<String> = guards.iter().map(|g| g.label.clone()).collect();
    acquisitions.push(Acquisition {
        label: label.clone(),
        line: t[i].line,
        held,
    });
    let bind = let_binding(t, i, depth);
    guards.push(Guard {
        label,
        temp: bind.is_none(),
        bind,
        depth,
    });
}

/// The receiver label of a direct guard method at the `.` token `i`:
/// the identifier closest to the dot, skipping one index group —
/// `self.classes[class].lock()` → `classes`, `SINK.lock()` → `SINK`.
fn receiver_label(t: &[&Tok], dot: usize) -> Option<String> {
    let mut j = dot;
    loop {
        if j == 0 {
            return None;
        }
        j -= 1;
        if t[j].is_punct(']') {
            // Skip the index expression back to its `[`.
            let mut d = 0usize;
            while j > 0 {
                if t[j].is_punct(']') {
                    d += 1;
                } else if t[j].is_punct('[') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            continue;
        }
        if t[j].kind == TokKind::Ident {
            if t[j].text == "self" {
                return None;
            }
            return Some(t[j].text.clone());
        }
        return None;
    }
}

/// The lock label of a wrapper call at ident token `i`: the first
/// string-literal argument (the canonical name, shared with the runtime
/// witness), else the last non-`self` identifier among the arguments,
/// else the wrapper's own name (`lock_sink()` → `lock_sink`).
fn wrapper_label(t: &[&Tok], i: usize) -> String {
    let mut j = i + 1;
    let mut d = 0usize;
    let mut last_ident = None;
    while j < t.len() {
        if t[j].is_punct('(') {
            d += 1;
        } else if t[j].is_punct(')') {
            d -= 1;
            if d == 0 {
                break;
            }
        } else if t[j].kind == TokKind::StrLit {
            let text = &t[j].text;
            let inner = text.trim_start_matches('b').trim_matches('"');
            return inner.to_string();
        } else if t[j].kind == TokKind::Ident && t[j].text != "self" && t[j].text != "mut" {
            last_ident = Some(t[j].text.clone());
        }
        j += 1;
    }
    last_ident.unwrap_or_else(|| t[i].text.clone())
}

/// When the statement containing token `i` is `let [mut] name = …` at the
/// current depth, returns the binding name (the guard then lives to end of
/// block); otherwise `None` (a temporary).
fn let_binding(t: &[&Tok], i: usize, _depth: usize) -> Option<String> {
    // Scan back to the start of the statement: the token after the
    // previous `;`, `{`, or `}`.
    let mut j = i;
    while j > 0 {
        let p = t[j - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !t.get(j)?.is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if t.get(k)?.is_ident("mut") {
        k += 1;
    }
    let name = t.get(k)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    if !t.get(k + 1)?.is_punct('=') {
        // `let Some(g) = …` and friends: treat as a temporary (the
        // conservative direction — it lives through the statement tree).
        return None;
    }
    Some(name.text.clone())
}

// ----------------------------------------------------------------------
// Whole-workspace graph
// ----------------------------------------------------------------------

/// Builds the cross-crate lock-order graph from per-fn facts and runs the
/// cycle and guard-across-blocking checks.
pub fn build_report(fns: Vec<FnLockInfo>) -> LockReport {
    // Name → fn indices, for single-definition resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
    }
    let resolve = |callee: &str| -> Option<usize> {
        if CALL_STOPLIST.contains(&callee) {
            return None;
        }
        match by_name.get(callee) {
            Some(v) if v.len() == 1 => Some(v[0]),
            _ => None,
        }
    };

    // Transitive acquire-sets, to a fixpoint.
    let mut acq: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.acquisitions.iter().map(|a| a.label.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for (idx, f) in fns.iter().enumerate() {
            for c in &f.calls {
                if c.is_macro {
                    continue;
                }
                let Some(callee) = resolve(&c.callee) else {
                    continue;
                };
                if callee == idx {
                    continue;
                }
                let add: Vec<String> = acq[callee].difference(&acq[idx]).cloned().collect();
                if !add.is_empty() {
                    acq[idx].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: direct (held at acquisition) + interprocedural (held at a
    // resolvable call × the callee's transitive acquires).
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    for f in &fns {
        for a in &f.acquisitions {
            // `h == a.label` is a self-edge: the same lock acquired while
            // already held (std Mutex/RwLock are not re-entrant).
            for h in &a.held {
                edges.insert(LockEdge {
                    from: h.clone(),
                    to: a.label.clone(),
                    file: f.file.clone(),
                    line: a.line,
                    via: String::new(),
                });
            }
        }
        for c in &f.calls {
            if c.held.is_empty() || c.is_macro {
                continue;
            }
            let Some(callee) = resolve(&c.callee) else {
                continue;
            };
            for to in &acq[callee] {
                for h in &c.held {
                    edges.insert(LockEdge {
                        from: h.clone(),
                        to: to.clone(),
                        file: f.file.clone(),
                        line: c.line,
                        via: c.callee.clone(),
                    });
                }
            }
        }
    }

    let mut findings = cycle_findings(&edges);
    findings.extend(blocking_findings(&fns));
    LockReport {
        fns,
        edges: edges.into_iter().collect(),
        findings,
    }
}

/// Lexes and analyzes a set of (rel_path, source) pairs.
pub fn analyze_sources(sources: &[(String, String)]) -> LockReport {
    let mut fns = Vec::new();
    for (rel, src) in sources {
        fns.extend(analyze_source(rel, src));
    }
    build_report(fns)
}

/// Walks `crates/*/src` under `root` and analyzes the whole workspace.
pub fn analyze_workspace(root: &std::path::Path) -> LockReport {
    let mut sources = Vec::new();
    for path in crate::collect_rs_files(root) {
        let rel = crate::rel_path(root, &path);
        if let Ok(src) = std::fs::read_to_string(&path) {
            sources.push((rel, src));
        }
    }
    analyze_sources(&sources)
}

/// DFS cycle detection over the label graph; one finding per back edge.
fn cycle_findings(edges: &BTreeSet<LockEdge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut findings = Vec::new();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        if done.contains(start) {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut path: Vec<&str> = vec![start];
        let mut iters: Vec<usize> = vec![0];
        while let Some(&node) = path.last() {
            let idx = *iters.last().unwrap_or(&0);
            let next = adj.get(node).and_then(|v| v.get(idx));
            match next {
                Some(e) => {
                    if let Some(last) = iters.last_mut() {
                        *last += 1;
                    }
                    if let Some(pos) = path.iter().position(|&n| n == e.to) {
                        let mut cyc: Vec<&str> = path[pos..].to_vec();
                        cyc.push(e.to.as_str());
                        findings.push(Finding {
                            file: e.file.clone(),
                            line: e.line,
                            rule: "lock-order",
                            needle: cyc.join(" -> "),
                            excerpt: format!(
                                "lock-order cycle (potential deadlock); closing edge `{} -> {}`{}",
                                e.from,
                                e.to,
                                if e.via.is_empty() {
                                    String::new()
                                } else {
                                    format!(" via `{}()`", e.via)
                                }
                            ),
                        });
                    } else if !done.contains(e.to.as_str()) {
                        path.push(e.to.as_str());
                        iters.push(0);
                    }
                }
                None => {
                    done.insert(node);
                    path.pop();
                    iters.pop();
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.needle).cmp(&(&b.file, b.line, &b.needle)));
    findings.dedup_by(|a, b| a.needle == b.needle && a.file == b.file);
    findings
}

/// Guards held across blocking calls inside [`BLOCKING_SCOPES`].
fn blocking_findings(fns: &[FnLockInfo]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in fns {
        if !BLOCKING_SCOPES.iter().any(|s| f.file.starts_with(s)) {
            continue;
        }
        for c in &f.calls {
            if c.held.is_empty() || !BLOCKING_CALLS.contains(&c.callee.as_str()) {
                continue;
            }
            findings.push(Finding {
                file: f.file.clone(),
                line: c.line,
                rule: "guard-blocking",
                needle: format!("{}() under {}", c.callee, c.held.join("+")),
                excerpt: format!(
                    "guard(s) [{}] held across blocking call `{}` in `{}` — \
                     release the lock first (load off-lock, swap atomically)",
                    c.held.join(", "),
                    c.callee,
                    f.name
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str) -> LockReport {
        analyze_sources(&[("crates/x/src/lib.rs".to_string(), src.to_string())])
    }

    #[test]
    fn direct_nesting_produces_edge() {
        let src = "
            fn ab(s: &S) {
                let ga = s.a.lock();
                let gb = s.b.lock();
            }
        ";
        let r = report(src);
        assert!(r.has_edge("a", "b"), "{:?}", r.edges);
        assert!(!r.has_edge("b", "a"));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn opposite_orders_cycle() {
        let src = "
            fn ab(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }
            fn ba(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); }
        ";
        let r = report(src);
        let cycles: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == "lock-order")
            .collect();
        assert!(!cycles.is_empty(), "{:?}", r.findings);
        assert!(cycles[0].needle.contains("a") && cycles[0].needle.contains("b"));
    }

    #[test]
    fn guard_released_by_scope_drop_and_semicolon() {
        // Block scoping: a dies with its block, so b is not nested under it.
        let scoped = "
            fn f(s: &S) {
                { let ga = s.a.lock(); }
                let gb = s.b.lock();
            }
        ";
        assert!(report(scoped).edges.is_empty());
        // Temporary: dies at its `;`.
        let temp = "
            fn f(s: &S) {
                s.a.lock().push(1);
                let gb = s.b.lock();
            }
        ";
        assert!(report(temp).edges.is_empty());
        // Explicit drop.
        let dropped = "
            fn f(s: &S) {
                let ga = s.a.lock();
                drop(ga);
                let gb = s.b.lock();
            }
        ";
        assert!(report(dropped).edges.is_empty());
    }

    #[test]
    fn scrutinee_temporary_lives_through_the_body() {
        // `if let` over a guard temporary: the guard is live inside the
        // body (Rust keeps scrutinee temporaries alive), so the inner
        // acquisition is a real edge.
        let src = "
            fn f(s: &S) {
                if let Some(v) = s.a.lock().pop() {
                    let gb = s.b.lock();
                }
            }
        ";
        assert!(report(src).has_edge("a", "b"));
    }

    #[test]
    fn wrapper_call_sites_use_string_label() {
        let src = r#"
            fn read_lock<T>(l: &RwLock<T>, name: &'static str) -> G<'_, T> { l.read().ok() }
            fn f(s: &S) {
                let models = read_lock(&s.models, "registry.models");
                let cur = read_lock(&s.current, "registry.current");
            }
        "#;
        let r = report(src);
        assert!(
            r.has_edge("registry.models", "registry.current"),
            "{:?}",
            r.edges
        );
        // The wrapper body's own `l.read()` is not double-counted.
        assert!(r.fns.iter().all(|f| f.name != "read_lock"));
    }

    #[test]
    fn interprocedural_edge_through_unique_callee() {
        let src = r#"
            fn leaf(s: &S) -> u32 { let g = s.inner.lock(); 0 }
            fn top(s: &S) {
                let gm = read_lock(&s.models, "registry.models");
                let v = leaf(s);
            }
        "#;
        let r = report(src);
        assert!(r.has_edge("registry.models", "inner"), "{:?}", r.edges);
    }

    #[test]
    fn stoplisted_and_ambiguous_callees_do_not_resolve() {
        let src = r#"
            fn clone(s: &S) { let g = s.inner.lock(); }
            fn dup(s: &S) { let g = s.other.lock(); }
            fn dup(s: &T) { let g = s.other2.lock(); }
            fn top(s: &S) {
                let gm = read_lock(&s.models, "registry.models");
                let a = s.clone();
                let b = dup(s);
            }
        "#;
        let r = report(src);
        assert!(!r.has_edge("registry.models", "inner"));
        assert!(!r.has_edge("registry.models", "other"));
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let src = "
            fn f(s: &S) {
                let g1 = s.a.lock();
                let g2 = s.a.lock();
            }
        ";
        let r = report(src);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "lock-order" && f.needle.contains("a -> a")));
    }

    #[test]
    fn blocking_call_under_guard_flagged_only_in_scope() {
        let src = "
            fn f(m: &M, l: &L) {
                let g = m.lock();
                let c = l.accept();
            }
        ";
        let in_scope =
            analyze_sources(&[("crates/bench/src/serve/x.rs".to_string(), src.to_string())]);
        assert!(
            in_scope.findings.iter().any(|f| f.rule == "guard-blocking"),
            "{:?}",
            in_scope.findings
        );
        let out_of_scope =
            analyze_sources(&[("crates/core/src/x.rs".to_string(), src.to_string())]);
        assert!(out_of_scope
            .findings
            .iter()
            .all(|f| f.rule != "guard-blocking"));
    }

    #[test]
    fn stdio_and_io_with_args_are_not_acquisitions() {
        let src = "
            fn f() {
                let stdin = io::stdin();
                let mut reader = BufReader::new(stdin.lock());
                let n = reader.read(&mut buf);
            }
        ";
        let r = analyze_sources(&[("crates/bench/src/serve/x.rs".to_string(), src.to_string())]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn test_functions_are_excluded() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn f(s: &S) { let a = s.a.lock(); let b = s.b.lock(); }
                fn g(s: &S) { let b = s.b.lock(); let a = s.a.lock(); }
            }
        ";
        assert!(report(src).findings.is_empty());
    }
}
