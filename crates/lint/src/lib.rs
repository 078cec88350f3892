//! # enki-lint
//!
//! Workspace-aware static analysis for the Enki reproduction. The
//! mechanism's headline guarantees — ex ante budget balance
//! (Theorem 1) and weak Bayesian incentive compatibility (Theorem 2) —
//! only hold in code if the hot paths are *deterministic*, *panic-free
//! on adversarial input*, and *careful with floating-point money*.
//!
//! Most of those disciplines are rustc/clippy configuration: the root
//! `clippy.toml` bans clock reads, threads, locks and hash collections,
//! `[workspace.lints]` forbids `unsafe` and unreasoned `#[allow]`s, and
//! the five mechanism crate roots deny panics and truncating casts
//! outside test code. Each sanctioned exception is an
//! `#[expect(…, reason = "…")]`, which fails clippy once it goes stale.
//! This crate checks what clippy cannot see faithfully.
//!
//! Like `enki-telemetry`, the crate has **zero external dependencies**:
//! a small Rust token scanner ([`lexer`]), a test-region analyzer
//! ([`context`]), an item-level parser ([`parse`]), the per-file rules
//! ([`rules`]) with workspace-graph passes ([`graph`], [`taint`]), and
//! deterministic text/JSONL reporting ([`report`]) — the JSONL output
//! reuses the `enki-telemetry/1` header shape.
//!
//! ## The catalog
//!
//! The per-file rules: R3 **float-discipline**, R8 **fs-boundary**.
//! The workspace-graph rules, which see every file at once:
//! R9 **lock-order** (static lock-acquisition graph must be acyclic,
//! cycles fail with their full witness path), R10 **determinism-taint**
//! (nondeterminism sources must not flow into WAL/checkpoint encoders
//! or trace derivation), R11 **layering** (the declarative crate DAG,
//! and every package inherits the workspace lint table).
//! [`rules::RuleId`] is the single source of truth: the CLI catalog and
//! the DESIGN.md table are both generated from it. The rules take no
//! suppressions: a finding is fixed, never baselined.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p enki-lint -- check                  # gate the workspace
//! cargo run -p enki-lint -- check --format json    # machine-readable
//! cargo run -p enki-lint -- rules                  # print the catalog
//! cargo run -p enki-lint -- rules --markdown       # the DESIGN.md table
//! ```
//!
//! ## Programmatic entry point
//!
//! ```
//! use enki_lint::engine::classify;
//! use enki_lint::rules::check_file;
//!
//! let file = classify(
//!     "crates/core/src/example.rs",
//!     "pub fn free(bill: f64) -> bool { bill == 0.0 }",
//! );
//! let violations = check_file(&file);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule.code(), "R3");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod context;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod taint;

pub use engine::run_check;
pub use report::Report;
pub use rules::{RuleId, Violation, ALL_RULES};
