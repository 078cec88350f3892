//! The meta-tests: the committed workspace must pass its own linter,
//! and the clippy configuration that carries the retired per-file
//! rules must stay where the rules used to apply.

use std::path::{Path, PathBuf};

use enki_lint::report::to_text;
use enki_lint::run_check;

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn workspace_is_clean() {
    let report = run_check(&workspace_root()).expect("lint run succeeds");
    assert!(
        report.ok(),
        "workspace has lint findings:\n{}",
        to_text(&report)
    );
    // Sanity: the walk actually covered the workspace.
    assert!(
        report.files > 50,
        "suspiciously few files scanned: {}",
        report.files
    );
}

/// R1 and R12 now live as a lint-level header on the five mechanism
/// crate roots, and R2/R4/R5 as bans in the root clippy.toml. Clippy
/// only enforces what is configured, so losing a header or a ban would
/// pass CI silently; this pins both. The header must match the one the
/// clippy fixtures prove (`fixtures/clippy/src/bin/r1_panic_bad.rs`).
#[test]
fn retired_rules_stay_configured_for_clippy() {
    let fixture = include_str!("fixtures/clippy/src/bin/r1_panic_bad.rs");
    let start = fixture
        .find("#![cfg_attr(")
        .expect("fixture carries the header");
    let end = start + fixture[start..].find("\n)]").expect("header closes") + 3;
    let header = &fixture[start..end];
    for lint in [
        "unwrap_used",
        "expect_used",
        "panic",
        "cast_possible_truncation",
    ] {
        assert!(header.contains(&format!("clippy::{lint},")), "{header}");
    }
    for krate in ["core", "solver", "agents", "serve", "durable"] {
        let root = read(&format!("crates/{krate}/src/lib.rs"));
        assert!(
            root.contains(header),
            "crates/{krate}/src/lib.rs lost the header:\n{header}"
        );
    }

    let clippy = read("clippy.toml");
    for banned in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "parking_lot::Mutex",
    ] {
        assert!(
            clippy.contains(&format!("path = \"{banned}\"")),
            "clippy.toml no longer bans `{banned}`"
        );
    }
    assert!(read("Cargo.toml").contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
}
