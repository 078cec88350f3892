//! The rule catalog: the project invariants clippy cannot check.
//!
//! This module is the **single source of truth** for the catalog:
//! [`RuleId::code`], [`RuleId::name`], [`RuleId::rationale`],
//! [`RuleId::enforces`], and [`RuleId::protects`] feed the CLI `rules`
//! output, and [`markdown_table`] renders the DESIGN.md table — a
//! docs-sync test asserts both stay verbatim-identical to this
//! registry, so the documentation cannot drift.
//!
//! Rules R3 and R8 are per-file ([`check_file`]); R9–R11 need the whole
//! workspace at once and live in [`crate::graph`] (lock-order,
//! layering) and [`crate::taint`] (determinism taint). The other bans
//! the mechanism relies on — no panics, no ambient clock reads, no hash
//! iteration, thread and lock discipline, no dropped `Result`, no
//! `unsafe`, no truncating casts — are rustc/clippy configuration (the
//! root `clippy.toml` and `[workspace.lints]`); their codes R1, R2, R4–R7
//! and R12 are retired here. DESIGN.md § Static analysis maps each one
//! to its lint.
//!
//! R3 and R8 stay token rules because clippy cannot carry them
//! faithfully: `float_cmp` exempts comparisons with zero, a
//! `partial_cmp` method ban fires on every `derive(PartialOrd)`, and a
//! `std::fs` ban would be workspace-wide while the tool crates read and
//! write files legitimately.

use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No float `==`/`!=` literals, no `partial_cmp`.
    FloatDiscipline,
    /// `std::fs` only in the sanctioned storage backend.
    FsBoundary,
    /// The workspace lock-acquisition graph must be acyclic.
    LockOrder,
    /// Nondeterminism must not flow into encoders or trace derivation.
    DeterminismTaint,
    /// The declarative crate DAG must hold.
    Layering,
}

/// Every rule, in report order.
pub const ALL_RULES: [RuleId; 5] = [
    RuleId::FloatDiscipline,
    RuleId::FsBoundary,
    RuleId::LockOrder,
    RuleId::DeterminismTaint,
    RuleId::Layering,
];

impl RuleId {
    /// Short stable code used in reports (`R3`…`R11`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Self::FloatDiscipline => "R3",
            Self::FsBoundary => "R8",
            Self::LockOrder => "R9",
            Self::DeterminismTaint => "R10",
            Self::Layering => "R11",
        }
    }

    /// Human-readable rule slug.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FloatDiscipline => "float-discipline",
            Self::FsBoundary => "fs-boundary",
            Self::LockOrder => "lock-order",
            Self::DeterminismTaint => "determinism-taint",
            Self::Layering => "layering",
        }
    }

    /// True for rules that need the whole workspace at once (a single
    /// file cannot witness them); they run after the per-file pass.
    #[must_use]
    pub fn is_workspace_rule(self) -> bool {
        matches!(
            self,
            Self::LockOrder | Self::DeterminismTaint | Self::Layering
        )
    }

    /// One-line rationale, tied to the paper guarantee it protects.
    #[must_use]
    pub fn rationale(self) -> &'static str {
        match self {
            Self::FloatDiscipline => {
                "money and load are f64; NaN-unaware comparisons reorder allocations \
                 and mis-split bills — use total_cmp or the enki-core::float helpers"
            }
            Self::FsBoundary => {
                "all persistence must flow through the injectable enki_durable::Storage \
                 trait; ad-hoc std::fs in mechanism code would dodge crash-consistency \
                 testing — only the sanctioned file backend touches the filesystem"
            }
            Self::LockOrder => {
                "two threads acquiring the same locks in opposite orders deadlock; \
                 the static acquisition graph over the sanctioned concurrency sites \
                 must stay acyclic or the solver pool and serve edge can hang a day's \
                 settlement forever"
            }
            Self::DeterminismTaint => {
                "wall-clock reads, thread ids, pointer formatting, and RandomState \
                 must not reach the WAL/checkpoint encoders or trace derivation: a \
                 single tainted byte makes recovery replay and cross-run trace \
                 comparison diverge"
            }
            Self::Layering => {
                "the deterministic core must not grow imports of the nondeterministic \
                 edge (serve::edge), the real filesystem backend (durable::file), or \
                 observability; the crate DAG is declared once and machine-checked so \
                 replay-safety cannot erode one convenient import at a time — and a \
                 package that skips the workspace lint table would skip \
                 forbid(unsafe_code) and the clippy bans with it"
            }
        }
    }

    /// What the rule checks, mechanically (middle column of the
    /// DESIGN.md table; also shown by `enki-lint rules`).
    #[must_use]
    pub fn enforces(self) -> &'static str {
        match self {
            Self::FloatDiscipline => {
                "no `==`/`!=` against float literals, no `.sort_by(partial_cmp)`, \
                 no bare `f64::NAN` comparisons"
            }
            Self::FsBoundary => {
                "`std::fs` only inside `crates/durable/src/file.rs`; everything \
                 else goes through the `Storage` trait"
            }
            Self::LockOrder => {
                "the workspace lock-acquisition graph (including locks reached \
                 through one level of intra-crate calls) has no cycle; violations \
                 print the full witness path"
            }
            Self::DeterminismTaint => {
                "nondeterminism sources (`Instant`/`SystemTime`, thread ids, `{:p}` \
                 formatting, `RandomState`) never flow into WAL/checkpoint encoders \
                 or `TraceContext` derivation"
            }
            Self::Layering => {
                "crate imports match the declared DAG; deterministic crates never \
                 import `serve::edge`, `durable::file`, `enki-obs`, or bench bins; \
                 every package manifest carries `[lints] workspace = true`"
            }
        }
    }

    /// Which paper guarantee the rule protects (right column of the
    /// DESIGN.md table).
    #[must_use]
    pub fn protects(self) -> &'static str {
        match self {
            Self::FloatDiscipline => "deterministic allocation order; exact bill splits",
            Self::FsBoundary => "crash-consistency via injectable storage faults",
            Self::LockOrder => "liveness — a deadlocked center never settles the day",
            Self::DeterminismTaint => "recovery replay equals the original run, byte for byte",
            Self::Layering => "the deterministic core stays replayable as the repo grows",
        }
    }
}

/// Renders the rule catalog as the DESIGN.md table. A docs-sync test
/// asserts DESIGN.md contains this output verbatim, so the table can
/// only be changed by changing the registry.
#[must_use]
pub fn markdown_table() -> String {
    let mut out = String::from("| Rule | Enforces | Paper guarantee it protects |\n|---|---|---|\n");
    for rule in ALL_RULES {
        let enforces: String = rule.enforces().split_whitespace().collect::<Vec<_>>().join(" ");
        out.push_str(&format!(
            "| {} `{}` | {} | {} |\n",
            rule.code(),
            rule.name(),
            enforces,
            rule.protects()
        ));
    }
    out
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
}

/// A scanned source file plus everything the rules need to know about
/// where it sits in the workspace.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Directory under `crates/` (`"core"`, `"solver"`, …); `None` for
    /// the root facade crate.
    pub crate_dir: Option<String>,
    /// Lives under a `tests/`, `benches/`, or `examples/` directory.
    pub is_test_target: bool,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Test-region mask and attribute spans.
    pub ctx: FileContext,
}

/// Runs every applicable per-file rule on one file.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if file.is_test_target {
        // Integration tests, benches, and examples are exempt: exact
        // float asserts and scratch files are idiomatic there.
        return out;
    }
    float_discipline(file, &mut out);
    let in_mechanism = file
        .crate_dir
        .as_deref()
        .is_some_and(|d| ["core", "solver", "agents", "serve", "durable"].contains(&d));
    if in_mechanism {
        fs_boundary(file, &mut out);
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Yields indices of non-test tokens.
fn live_indices(file: &SourceFile) -> impl Iterator<Item = usize> + '_ {
    (0..file.tokens.len()).filter(|&i| !file.ctx.test_mask[i])
}

fn push(out: &mut Vec<Violation>, file: &SourceFile, rule: RuleId, line: u32, message: String) {
    out.push(Violation {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
    });
}

fn float_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for i in live_indices(file) {
        let t = &toks[i];
        if t.is_punct("==") || t.is_punct("!=") {
            let left_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
            let right_float = match toks.get(i + 1) {
                Some(n) if n.kind == TokenKind::Float => true,
                Some(n) if n.is_punct("-") => {
                    toks.get(i + 2).is_some_and(|m| m.kind == TokenKind::Float)
                }
                _ => false,
            };
            if left_float || right_float {
                push(
                    out,
                    file,
                    RuleId::FloatDiscipline,
                    t.line,
                    format!(
                        "float literal compared with `{}`: use an explicit tolerance \
                         (`enki_core::float::approx_eq`) — exact f64 equality mis-splits \
                         money",
                        t.text
                    ),
                );
            }
        }
        if t.is_ident("partial_cmp") && !(i > 0 && toks[i - 1].is_ident("fn")) {
            push(
                out,
                file,
                RuleId::FloatDiscipline,
                t.line,
                "`partial_cmp` on floats panics or misorders on NaN: use `total_cmp` \
                 (or `enki_core::float::cmp_f64`) for a total order"
                    .to_string(),
            );
        }
    }
}

fn fs_boundary(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel_path == "crates/durable/src/file.rs" {
        // The one sanctioned filesystem boundary: the real-file Storage
        // backend. Everything else reaches disk through the trait.
        return;
    }
    let toks = &file.tokens;
    for i in live_indices(file) {
        let t = &toks[i];
        // `fs::write(..)`, `std::fs::File`, `use std::fs;` — the module
        // name adjacent to a path separator on either side.
        if t.is_ident("fs")
            && (toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                || (i > 0 && toks[i - 1].is_punct("::")))
        {
            push(
                out,
                file,
                RuleId::FsBoundary,
                t.line,
                "`std::fs` outside the sanctioned storage backend \
                 (crates/durable/src/file.rs): persist through an injected \
                 `enki_durable::Storage` so crash tests can fault the write path"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::classify;

    fn codes(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule.code()).collect()
    }

    fn check(rel_path: &str, src: &str) -> Vec<Violation> {
        check_file(&classify(rel_path, src))
    }

    #[test]
    fn float_equality_and_partial_cmp_are_flagged() {
        let v = check(
            "crates/stats/src/x.rs",
            "fn f(x: f64, ys: &mut [f64]) -> bool {\n\
             ys.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
             x == 0.0\n}",
        );
        assert_eq!(codes(&v), vec!["R3", "R3"]);
    }

    #[test]
    fn total_cmp_and_tolerant_compare_pass() {
        let v = check(
            "crates/stats/src/x.rs",
            "fn f(x: f64, ys: &mut [f64]) -> bool {\n\
             ys.sort_by(|a, b| a.total_cmp(b));\n\
             (x - 1.0).abs() < 1e-9\n}",
        );
        assert!(codes(&v).is_empty());
    }

    #[test]
    fn partial_cmp_definition_in_a_trait_impl_is_allowed() {
        let v = check(
            "crates/agents/src/x.rs",
            "impl PartialOrd for T { fn partial_cmp(&self, o: &Self) -> Option<Ordering> \
             { Some(self.cmp(o)) } }",
        );
        assert!(codes(&v).is_empty());
    }

    #[test]
    fn fs_use_is_flagged_in_scoped_crates_only() {
        let src = "use std::fs;\nfn f() { let _ = fs::read(\"x\"); }";
        for scoped in [
            "crates/core/src/x.rs",
            "crates/agents/src/durable.rs",
            "crates/durable/src/wal.rs",
        ] {
            let v = check(scoped, src);
            assert_eq!(codes(&v), vec!["R8", "R8"], "{scoped}: {v:?}");
        }
        // Outside the deterministic envelope, fs access is fine.
        assert!(codes(&check("crates/bench/src/x.rs", src)).is_empty());
        // A local identifier named `fs` with no path separator is not
        // a filesystem touch.
        let ok = check("crates/core/src/x.rs", "fn f(fs: u32) -> u32 { fs + 1 }");
        assert!(codes(&ok).is_empty(), "{ok:?}");
    }

    #[test]
    fn fs_boundary_exempts_the_sanctioned_backend_path_exactly() {
        let src = "use std::fs::File;\nfn f() { let _ = File::open(\"x\"); }";
        assert!(codes(&check("crates/durable/src/file.rs", src)).is_empty());
        // Any other file named file.rs stays under the rule.
        let v = check("crates/durable/src/other.rs", src);
        assert_eq!(codes(&v), vec!["R8"], "{v:?}");
        let v = check("crates/serve/src/file.rs", src);
        assert_eq!(codes(&v), vec!["R8"], "{v:?}");
    }

    #[test]
    fn test_targets_are_exempt() {
        let src = "use std::fs;\nfn f(x: f64) -> bool { x == 0.0 }";
        assert_eq!(codes(&check("crates/core/src/x.rs", src)), vec!["R8", "R3"]);
        for target in [
            "crates/core/tests/t.rs",
            "crates/core/benches/b.rs",
            "examples/e.rs",
        ] {
            assert!(check(target, src).is_empty(), "{target}");
        }
    }

    #[test]
    fn markdown_table_covers_every_rule_once() {
        let table = super::markdown_table();
        assert!(table.starts_with("| Rule | Enforces | Paper guarantee it protects |\n|---|---|---|\n"));
        for rule in ALL_RULES {
            let cell = format!("| {} `{}` |", rule.code(), rule.name());
            assert_eq!(table.matches(&cell).count(), 1, "{cell}");
        }
        assert_eq!(table.lines().count(), 2 + ALL_RULES.len());
    }
}
