//! enki-obs: trace and benchmark analysis for the Enki reproduction.
//!
//! The observability substrate (`enki-telemetry`) exports
//! byte-deterministic JSONL traces; this crate is the read side. It
//! loads and re-validates those traces, reconstructs causal trees from
//! the derived [`TraceContext`](enki_telemetry::TraceContext) ids
//! stamped across agents, follows a single household report
//! edge-to-bill, extracts structural critical paths, diffs trace
//! populations, and threshold-checks `BENCH_*.json` artifacts for
//! performance regressions.
//!
//! Everything here is a pure function over parsed text — the binary in
//! `main.rs` owns the filesystem and process-exit surface.

pub mod bench;
pub mod causal;
pub mod critical;
pub mod diff;
pub mod model;

pub use bench::{bench_diff, classify, render_bench, BenchDelta, BenchReport, MetricKind};
pub use causal::{
    causal_nodes, causal_trace_ids, follow_report, render_causal_tree, render_followed_report,
    CausalNode, StageHit,
};
pub use critical::{critical_path, render_critical_path, PathStep};
pub use diff::{diff_traces, render_diff, TraceDiff};
pub use model::{load_trace, render_structural_tree, CausalIds, SpanLine, TraceFile};
