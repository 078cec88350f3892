//! End-to-end coverage for the workspace-graph rules (R9–R11) on
//! committed fixture trees: each rule has a violating tree that fails
//! with the expected witness and a clean twin that passes. The CLI
//! half drives the built binary: exit codes and the printed lock-cycle
//! witness path.

use std::path::PathBuf;
use std::process::{Command, Output};

use enki_lint::{run_check, RuleId};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_tree(name: &str) -> enki_lint::Report {
    run_check(&fixture_root(name)).expect("fixture tree checks")
}

fn rules_of(report: &enki_lint::Report) -> Vec<RuleId> {
    report.violations.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// Engine-level: one violating tree and one clean twin per rule.
// ---------------------------------------------------------------------------

#[test]
fn r9_cycle_tree_fails_with_the_full_witness_path() {
    let report = check_tree("ws_r9_cycle_bad");
    assert_eq!(rules_of(&report), vec![RuleId::LockOrder], "{:#?}", report.violations);
    let msg = &report.violations[0].message;
    assert!(msg.contains("lock-order cycle queues → slots → queues"), "{msg}");
    // Both hops of the witness, each with its acquisition site.
    assert!(msg.contains("holding `queues` (crates/solver/src/par.rs:6)"), "{msg}");
    assert!(msg.contains("acquires `slots` (crates/solver/src/par.rs:7)"), "{msg}");
    assert!(msg.contains("holding `slots` (crates/serve/src/edge.rs:5)"), "{msg}");
    assert!(msg.contains("acquires `queues` (crates/serve/src/edge.rs:6)"), "{msg}");
}

#[test]
fn r9_consistent_order_tree_passes() {
    let report = check_tree("ws_r9_cycle_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r10_taint_tree_fails_at_the_sink_call() {
    let report = check_tree("ws_r10_taint_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::DeterminismTaint],
        "{:#?}",
        report.violations
    );
    let v = &report.violations[0];
    assert_eq!(v.path, "crates/serve/src/edge.rs");
    assert!(v.message.contains("sink `append(…)`"), "{}", v.message);
    assert!(v.message.contains("Instant::now()"), "{}", v.message);
}

#[test]
fn r10_caller_supplied_time_tree_passes() {
    let report = check_tree("ws_r10_taint_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r11_layering_tree_fails_on_manifest_and_source_edges() {
    let report = check_tree("ws_r11_layering_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::Layering, RuleId::Layering],
        "{:#?}",
        report.violations
    );
    // The Cargo.toml edge and the `use` both get their own finding.
    assert_eq!(report.violations[0].path, "crates/core/Cargo.toml");
    assert!(
        report.violations[0].message.contains("must not depend on `enki-obs`"),
        "{}",
        report.violations[0].message
    );
    assert_eq!(report.violations[1].path, "crates/core/src/config.rs");
    assert!(
        report.violations[1].message.contains("must not reference `enki-obs`"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn r11_clean_dag_tree_passes() {
    let report = check_tree("ws_r11_layering_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

#[test]
fn r11_lints_tree_fails_at_each_package_that_skips_the_workspace_table() {
    let report = check_tree("ws_r11_lints_bad");
    assert_eq!(
        rules_of(&report),
        vec![RuleId::Layering, RuleId::Layering],
        "{:#?}",
        report.violations
    );
    // The root package and the member, each at its `[package]` header.
    let sites: Vec<(&str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.path.as_str(), v.line))
        .collect();
    assert_eq!(
        sites,
        vec![("Cargo.toml", 12), ("crates/core/Cargo.toml", 1)]
    );
    assert!(
        report.violations[1]
            .message
            .contains("`enki-core` does not inherit"),
        "{}",
        report.violations[1].message
    );
}

#[test]
fn r11_lints_inheriting_tree_passes() {
    let report = check_tree("ws_r11_lints_good");
    assert!(report.ok(), "{:#?}", report.violations);
}

// ---------------------------------------------------------------------------
// CLI-level: exit codes and the printed witness.
// ---------------------------------------------------------------------------

fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_enki-lint"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn cli_prints_the_lock_cycle_witness_and_exits_1() {
    let root = fixture_root("ws_r9_cycle_bad");
    let out = run_cli(&["check", "--root", root.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("R9 [lock-order]"), "{stdout}");
    assert!(stdout.contains("lock-order cycle queues → slots → queues"), "{stdout}");
    assert!(stdout.contains("holding `queues` (crates/solver/src/par.rs:6)"), "{stdout}");
    assert!(stdout.contains("acquires `queues` (crates/serve/src/edge.rs:6)"), "{stdout}");
}

#[test]
fn cli_exits_0_on_the_clean_twin_trees() {
    for tree in [
        "ws_r9_cycle_good",
        "ws_r10_taint_good",
        "ws_r11_layering_good",
        "ws_r11_lints_good",
    ] {
        let root = fixture_root(tree);
        let out = run_cli(&["check", "--root", root.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(0), "{tree}: {out:?}");
    }
}

#[test]
fn cli_rejects_unknown_options_and_formats_with_exit_2() {
    let root = fixture_root("ws_r9_cycle_good");
    let root = root.to_str().expect("utf8 path");
    for args in [
        vec!["check", "--root", root, "--no-baseline"],
        vec!["check", "--root", root, "--format", "sarif"],
        vec!["check", "--root"],
    ] {
        let out = run_cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
