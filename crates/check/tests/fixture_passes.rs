//! The concurrency passes against their planted fixtures and the live
//! workspace (DESIGN.md §14).
//!
//! Mirrors `cdcl-analyze --self-test` as a cargo test, then asserts the
//! real tree is clean — the same pair of gates CI runs, kept here so
//! `cargo test` alone catches a regression in either direction (a pass
//! going blind, or a new violation landing in the tree).

use std::path::{Path, PathBuf};

use cdcl_check::{atomics, lockorder};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => PathBuf::from("."),
    }
}

fn read_fixture(name: &str) -> String {
    let path = fixtures_dir().join(name);
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => unreachable!("fixture {name} must exist: {e}"),
    }
}

#[test]
fn lock_cycle_fixture_trips_lock_order() {
    let src = read_fixture("lock_cycle.rs");
    let report =
        lockorder::analyze_sources(&[("crates/fixture/src/lock_cycle.rs".to_string(), src)]);
    assert!(
        report.findings.iter().any(|f| f.rule == "lock-order"),
        "expected a lock-order cycle, got {:?}",
        report.findings
    );
    assert!(report.has_edge("a", "b") && report.has_edge("b", "a"));
}

#[test]
fn guard_blocking_fixture_trips_in_scope_only() {
    let src = read_fixture("guard_blocking.rs");
    // Mapped into the watched serve/ directory: must fire.
    let in_scope = lockorder::analyze_sources(&[(
        "crates/bench/src/serve/fixture_guard_blocking.rs".to_string(),
        src.clone(),
    )]);
    assert!(
        in_scope.findings.iter().any(|f| f.rule == "guard-blocking"),
        "expected guard-blocking in scope, got {:?}",
        in_scope.findings
    );
    // The same code outside the blocking-sensitive scopes is advisory-free.
    let out_of_scope =
        lockorder::analyze_sources(&[("crates/fixture/src/other.rs".to_string(), src)]);
    assert!(
        !out_of_scope
            .findings
            .iter()
            .any(|f| f.rule == "guard-blocking"),
        "guard-blocking must be scope-limited, got {:?}",
        out_of_scope.findings
    );
}

#[test]
fn atomic_fixtures_trip_audit() {
    let undoc = read_fixture("atomic_undocumented.rs");
    let f1 = atomics::audit_source("crates/fixture/src/atomic_undocumented.rs", &undoc);
    assert!(
        f1.iter().any(|f| f.rule == "atomic-ordering"),
        "undocumented site must be flagged, got {f1:?}"
    );

    let publish = read_fixture("atomic_relaxed_publish.rs");
    let f2 = atomics::audit_source("crates/fixture/src/atomic_relaxed_publish.rs", &publish);
    assert!(
        f2.iter()
            .any(|f| f.rule == "atomic-ordering" && f.excerpt.contains("publish")),
        "Relaxed publication must be flagged, got {f2:?}"
    );
}

#[test]
fn clean_fixture_stays_clean() {
    let src = read_fixture("clean.rs");
    let rel = "crates/bench/src/serve/fixture_clean.rs".to_string();
    let report = lockorder::analyze_sources(&[(rel.clone(), src.clone())]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    let audit = atomics::audit_source(&rel, &src);
    assert!(audit.is_empty(), "{audit:?}");
}

/// The live tree is concurrency-clean: no lock-order cycles, no guards
/// across blocking calls in the watched scopes, every atomic documented.
#[test]
fn workspace_passes_are_clean() {
    let root = workspace_root();
    let report = lockorder::analyze_workspace(&root);
    assert!(
        report.findings.is_empty(),
        "lock-order findings: {:#?}",
        report.findings
    );
    let audit = atomics::audit_workspace(&root);
    assert!(audit.is_empty(), "atomic-ordering findings: {audit:#?}");
    // The instrumented wrappers must be visible to the graph: these are
    // the canonical labels the runtime witness reports under.
    let labels: std::collections::BTreeSet<&str> = report
        .fns
        .iter()
        .flat_map(|f| f.acquisitions.iter().map(|a| a.label.as_str()))
        .collect();
    for expected in ["pool.classes", "registry.models", "registry.current"] {
        assert!(
            labels.contains(expected),
            "label {expected} missing from {labels:?}"
        );
    }
}
