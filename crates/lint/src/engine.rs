//! Workspace walking and check orchestration.

use std::path::{Path, PathBuf};

use crate::context::analyze;
use crate::graph;
use crate::lexer::tokenize;
use crate::report::{git_rev, Report};
use crate::rules::{check_file, SourceFile, Violation};
use crate::taint;

/// Directory names never descended into: build output, vendored
/// dependency stand-ins, VCS metadata, and the linter's own rule
/// fixtures (which violate rules on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Classifies one source file: which crate it belongs to, whether it
/// is a test target, and its analyzed token stream.
#[must_use]
pub fn classify(rel_path: &str, source: &str) -> SourceFile {
    let tokens = tokenize(source);
    let ctx = analyze(&tokens);
    let crate_dir = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(str::to_string);
    let is_test_target = rel_path
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples");
    SourceFile {
        rel_path: rel_path.to_string(),
        crate_dir,
        is_test_target,
        tokens,
        ctx,
    }
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, files)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Discovers every lintable `.rs` file under `root`, sorted for
/// deterministic reports.
///
/// # Errors
///
/// Returns a message when a directory cannot be read.
#[must_use = "dropping the Result discards the file list and hides walk errors"]
pub fn discover(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    Ok(files)
}

/// Discovers the root manifest and every internal crate manifest
/// (`crates/*/Cargo.toml`) under `root`, sorted for deterministic
/// reports.
fn discover_manifests(root: &Path) -> Vec<graph::Manifest> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path().join("Cargo.toml")))
        .collect();
    paths.sort();
    paths.insert(0, root.join("Cargo.toml"));
    paths
        .iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            std::fs::read_to_string(p)
                .ok()
                .map(|text| graph::parse_manifest(&rel, &text))
        })
        .collect()
}

/// Runs the full check on the workspace at `root`: walk, lex, per-file
/// rule scan, and the workspace passes (R9 lock-order, R10
/// determinism-taint, R11 layering).
///
/// # Errors
///
/// Returns a message on I/O failures (callers should treat this as a
/// configuration error, distinct from rule violations).
#[must_use = "dropping the report discards every finding and hides configuration errors"]
pub fn run_check(root: &Path) -> Result<Report, String> {
    let mut violations: Vec<Violation> = Vec::new();
    let files = discover(root)?;
    let mut sources: Vec<SourceFile> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let classified = classify(&rel, &source);
        violations.extend(check_file(&classified));
        sources.push(classified);
    }
    // Workspace passes see every file at once.
    let manifests = discover_manifests(root);
    violations.extend(graph::lock_order(&sources));
    violations.extend(graph::layering(&sources, &manifests));
    violations.extend(taint::determinism_taint(&sources));
    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });

    Ok(Report {
        files: files.len(),
        violations,
        git_rev: git_rev(root),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_workspace_layout() {
        let f = classify("crates/solver/src/exact.rs", "fn f() {}");
        assert_eq!(f.crate_dir.as_deref(), Some("solver"));
        assert!(!f.is_test_target);

        let f = classify("crates/agents/tests/chaos.rs", "fn f() {}");
        assert!(f.is_test_target);
        assert_eq!(classify("src/lib.rs", "").crate_dir, None);
    }
}
