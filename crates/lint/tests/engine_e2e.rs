//! End-to-end engine test on a synthetic mini-workspace: discovery,
//! rule scan, and the JSON report shape.

use std::fs;
use std::path::PathBuf;

use enki_lint::{report, run_check};

/// A scratch workspace under the target directory (unique per test so
/// they can run in parallel), cleaned up on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("enki-lint-{name}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/core/src")).expect("mkdir");
        Self { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, content).expect("write");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const DIRTY_LIB: &str = "pub fn free(bill: f64) -> bool { bill == 0.0 }\n";

const CLEAN_LIB: &str = "pub fn free(bill: f64) -> bool { bill.abs() < 1e-9 }\n";

#[test]
fn clean_tree_passes() {
    let ws = Scratch::new("clean");
    ws.write("crates/core/src/lib.rs", CLEAN_LIB);
    let report = run_check(&ws.root).expect("runs");
    assert!(report.ok(), "{:#?}", report.violations);
    assert_eq!(report.files, 1);
}

#[test]
fn injected_violation_fails_until_it_is_fixed() {
    let ws = Scratch::new("fix");
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    let dirty = run_check(&ws.root).expect("runs");
    assert!(!dirty.ok());
    assert_eq!(dirty.violations.len(), 1);
    assert_eq!(dirty.violations[0].path, "crates/core/src/lib.rs");

    ws.write("crates/core/src/lib.rs", CLEAN_LIB);
    let fixed = run_check(&ws.root).expect("runs");
    assert!(fixed.ok(), "{:#?}", fixed.violations);
}

#[test]
fn vendored_and_target_trees_are_never_scanned() {
    let ws = Scratch::new("skip");
    ws.write("crates/core/src/lib.rs", CLEAN_LIB);
    ws.write("vendor/dep/src/lib.rs", DIRTY_LIB);
    ws.write("target/debug/gen.rs", DIRTY_LIB);
    let report = run_check(&ws.root).expect("runs");
    assert!(report.ok(), "{:#?}", report.violations);
    assert_eq!(report.files, 1);
}

#[test]
fn json_report_is_deterministic_and_line_oriented() {
    let ws = Scratch::new("json");
    ws.write("crates/core/src/lib.rs", DIRTY_LIB);
    let a = run_check(&ws.root).expect("runs");
    let b = run_check(&ws.root).expect("runs");
    // git_rev is "unknown" (no .git) and run_id is a content hash, so
    // two runs over the same tree render byte-identically.
    assert_eq!(report::to_jsonl(&a), report::to_jsonl(&b));
    let json = report::to_jsonl(&a);
    let lines: Vec<&str> = json.lines().collect();
    assert!(lines[0].contains("\"schema\":\"enki-lint/1\""));
    assert!(lines[0].contains("\"git_rev\":\"unknown\""));
    assert!(lines.iter().any(|l| l.contains("\"type\":\"violation\"")));
    assert!(lines.last().expect("summary").contains("\"ok\":false"));
}
