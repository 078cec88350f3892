//! # enki-telemetry
//!
//! Zero-dependency observability substrate for the Enki reproduction:
//! every layer of the pipeline — center admission, the anytime solver
//! ladder, settlement, the fault-injecting network, the invariant
//! oracle — reports into one [`Telemetry`] sink through per-thread
//! [`Recorder`]s.
//!
//! * [`clock`] — the injectable [`Clock`] trait with a production
//!   [`MonotonicClock`] and a deterministic [`VirtualClock`], so timed
//!   code (stage deadlines, span durations) replays identically in
//!   tests.
//! * [`span`] — hierarchical [`SpanRecord`]s: named intervals with
//!   parent links and typed attributes.
//! * [`metrics`] — counters, gauges, and fixed-footprint log-bucketed
//!   [`Histogram`]s with p50/p90/p99/max summaries.
//! * [`recorder`] — the lock-cheap recording path: thread-local buffers
//!   flushed in batches through `parking_lot` mutexes.
//! * [`export`] — a JSONL exporter stamped with run id, seed, and git
//!   revision; a schema self-validator ([`validate_jsonl`]); and a
//!   human-readable tree renderer ([`render_tree`]).
//! * [`trace`] — deterministic causal [`TraceContext`]s derived from
//!   `(seed, day, household, stage)`, carried on messages and queue
//!   entries so one report's journey is followable across agents.
//! * [`flight`] — the always-on flight-recorder ring; failures call
//!   [`Telemetry::postmortem`] for a self-validating JSONL dump of
//!   recent context.
//! * [`slo`] — declarative objectives with multi-window burn-rate
//!   evaluation ([`SloMonitor`]).
//! * [`metric_names`] — the central registry of every metric name the
//!   workspace may emit.
//!
//! ```
//! use enki_telemetry::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let clock = VirtualClock::new();
//! let telemetry = Telemetry::with_virtual_clock("demo", 42, Arc::clone(&clock));
//! let recorder = telemetry.recorder();
//! {
//!     let mut span = recorder.span("day");
//!     span.record("households", 16u64);
//!     clock.advance(Duration::from_millis(5));
//!     recorder.incr("days.completed", 1);
//! }
//! recorder.flush();
//!
//! let trace = to_jsonl(&telemetry);
//! assert!(validate_jsonl(&trace).is_ok());
//! assert_eq!(telemetry.counter("days.completed"), Some(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod export;
pub mod flight;
pub mod metric_names;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use export::{render_tree, to_jsonl, validate_jsonl, JsonlSummary, SCHEMA};
pub use flight::{Postmortem, FLIGHT_CAPACITY, MAX_POSTMORTEMS};
pub use metrics::{Histogram, HistogramSummary, Metric, MetricOp};
pub use recorder::{detect_git_rev, Recorder, RunMeta, SpanGuard, Telemetry};
pub use slo::{SloMonitor, SloSample, SloSpec, SloStatus};
pub use span::{FieldValue, SpanRecord};
pub use trace::{TraceContext, REPORT_STAGES};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::clock::{Clock, MonotonicClock, VirtualClock};
    pub use crate::export::{render_tree, to_jsonl, validate_jsonl, JsonlSummary};
    pub use crate::flight::Postmortem;
    pub use crate::metrics::{Histogram, HistogramSummary, Metric};
    pub use crate::recorder::{Recorder, RunMeta, SpanGuard, Telemetry};
    pub use crate::slo::{SloMonitor, SloSample, SloSpec, SloStatus};
    pub use crate::span::{FieldValue, SpanRecord};
    pub use crate::trace::{TraceContext, REPORT_STAGES};
}
