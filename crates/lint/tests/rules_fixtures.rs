//! Fixture-driven rule tests: each per-file rule gets a positive
//! fixture (known violation count at known lines) and a negative
//! surface (the compliant forms in the same file stay silent).

use enki_lint::engine::classify;
use enki_lint::rules::{check_file, RuleId, Violation};

fn check_fixture(pretend_path: &str, fixture: &str) -> Vec<Violation> {
    check_file(&classify(pretend_path, fixture))
}

fn rule_counts(violations: &[Violation]) -> Vec<(RuleId, usize)> {
    let mut counts: std::collections::BTreeMap<RuleId, usize> = Default::default();
    for v in violations {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

#[test]
fn r3_float_fixture_flags_the_four_sites() {
    let v = check_fixture(
        "crates/stats/src/r3_float.rs",
        include_str!("fixtures/r3_float.rs"),
    );
    assert_eq!(rule_counts(&v), vec![(RuleId::FloatDiscipline, 4)], "{v:#?}");
}

#[test]
fn r8_fs_fixture_flags_the_three_touches_in_scope_only() {
    let fixture = include_str!("fixtures/r8_fs.rs");
    let v = check_fixture("crates/core/src/r8_fs.rs", fixture);
    assert_eq!(rule_counts(&v), vec![(RuleId::FsBoundary, 3)], "{v:#?}");
    let v = check_fixture("crates/durable/src/wal.rs", fixture);
    assert_eq!(rule_counts(&v), vec![(RuleId::FsBoundary, 3)], "{v:#?}");
    // Crates outside the deterministic envelope may touch the disk
    // (bench writes experiment JSON, lint reads sources).
    assert!(check_fixture("crates/bench/src/r8_fs.rs", fixture).is_empty());
    assert!(check_fixture("crates/lint/src/engine.rs", fixture).is_empty());
}

#[test]
fn fs_boundary_allowlist_is_path_exact() {
    let fixture = include_str!("fixtures/r8_fs.rs");
    // The real-file Storage backend is the one sanctioned boundary.
    assert!(check_fixture("crates/durable/src/file.rs", fixture).is_empty());
    // A file.rs anywhere else gets no special treatment…
    let v = check_fixture("crates/serve/src/file.rs", fixture);
    assert_eq!(rule_counts(&v), vec![(RuleId::FsBoundary, 3)], "{v:#?}");
    // …and neither does any sibling inside the durable crate.
    let v = check_fixture("crates/durable/src/storage.rs", fixture);
    assert_eq!(rule_counts(&v), vec![(RuleId::FsBoundary, 3)], "{v:#?}");
}

#[test]
fn violations_carry_one_based_lines_pointing_at_the_site() {
    let source = include_str!("fixtures/r3_float.rs");
    let v = check_fixture("crates/stats/src/r3_float.rs", source);
    assert_eq!(v.len(), 4, "{v:#?}");
    for violation in &v {
        let line = source
            .lines()
            .nth((violation.line - 1) as usize)
            .expect("line exists");
        assert!(
            line.contains("// violation"),
            "line {}: {line}",
            violation.line
        );
    }
}
