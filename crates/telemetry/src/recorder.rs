//! The shared telemetry sink and its per-thread recorders.
//!
//! [`Telemetry`] is the cheap-to-clone handle to one run's sink: the
//! injected [`Clock`], the run metadata (run id, seed, git revision),
//! and the aggregated spans and metrics behind `parking_lot` mutexes.
//! Hot paths never touch those mutexes directly: each thread creates its
//! own [`Recorder`], which buffers finished spans and metric updates
//! locally and flushes them in batches — one short lock per
//! [`FLUSH_EVERY`] events instead of one per event. Recorders flush on
//! drop, so the sink is complete once every recorder is gone; long-lived
//! recorders can [`Recorder::flush`] explicitly before an export.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[expect(
    clippy::disallowed_types,
    reason = "enki-telemetry is the lock-bearing substrate every thread records through"
)]
use parking_lot::Mutex;

use crate::clock::{Clock, MonotonicClock, VirtualClock};
use crate::flight::{FlightRing, Postmortem, MAX_POSTMORTEMS};
use crate::metric_names::obs;
use crate::metrics::{HistogramSummary, Metric, MetricOp};
use crate::span::{FieldValue, SpanRecord};
use crate::trace::TraceContext;

/// Buffered events per recorder before an automatic flush.
pub const FLUSH_EVERY: usize = 256;

/// Identity of one instrumented run, stamped into every export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Deterministic run id, derived from the label and seed.
    pub run_id: String,
    /// Human-readable label (e.g. the experiment or test name).
    pub label: String,
    /// The RNG seed that drove the run.
    pub seed: u64,
    /// Git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Which clock produced the timestamps (`"monotonic"` or
    /// `"virtual"`).
    pub clock: &'static str,
}

/// FNV-1a, the run-id hash: deterministic and dependency-free.
fn fnv1a(label: &str, seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.bytes().chain(seed.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Best-effort git revision: `$GIT_REV` if set, else the checked-out
/// commit from `.git/HEAD` (searching upward from the working
/// directory), else `"unknown"`. Never fails.
#[must_use]
pub fn detect_git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            let rev = if let Some(reference) = contents.strip_prefix("ref: ") {
                std::fs::read_to_string(d.join(".git").join(reference))
                    .map(|r| r.trim().to_string())
                    .unwrap_or_default()
            } else {
                contents.to_string()
            };
            if !rev.is_empty() {
                return rev.chars().take(12).collect();
            }
        }
        dir = d.parent().map(std::path::Path::to_path_buf);
    }
    "unknown".to_string()
}

/// The shared sink. Everything lives behind one `Arc`.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "enki-telemetry is the lock-bearing substrate every thread records through"
)]
pub(crate) struct Sink {
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) meta: RunMeta,
    next_span: AtomicU64,
    pub(crate) spans: Mutex<Vec<SpanRecord>>,
    pub(crate) metrics: Mutex<BTreeMap<String, Metric>>,
    /// Skeletons of spans opened but not yet closed, keyed by id, so
    /// exports can render in-flight work instead of dropping it.
    pub(crate) open: Mutex<BTreeMap<u64, SpanRecord>>,
    /// The always-on flight-recorder ring of recently closed spans.
    pub(crate) flight: Mutex<FlightRing>,
    /// Captured postmortem dumps, capped at [`MAX_POSTMORTEMS`].
    pub(crate) postmortems: Mutex<Vec<Postmortem>>,
}

/// One run's telemetry: clock, metadata, spans, metrics.
///
/// Clone freely; clones share the sink. Send a clone to each thread and
/// let the thread call [`Telemetry::recorder`] for its own buffered
/// handle.
#[derive(Debug, Clone)]
pub struct Telemetry {
    pub(crate) sink: Arc<Sink>,
}

impl Telemetry {
    /// A run on the real monotonic clock.
    #[must_use]
    pub fn new(label: &str, seed: u64) -> Self {
        Self::build(label, seed, Arc::new(MonotonicClock::new()), "monotonic")
    }

    /// A run on a shared deterministic clock: timestamps only move when
    /// the caller advances `clock`, so two identically driven runs
    /// export byte-identical telemetry.
    #[must_use]
    pub fn with_virtual_clock(label: &str, seed: u64, clock: Arc<VirtualClock>) -> Self {
        Self::build(label, seed, clock, "virtual")
    }

    #[expect(
        clippy::disallowed_types,
        reason = "enki-telemetry is the lock-bearing substrate every thread records through"
    )]
    fn build(label: &str, seed: u64, clock: Arc<dyn Clock>, kind: &'static str) -> Self {
        let meta = RunMeta {
            run_id: format!("run-{:016x}", fnv1a(label, seed)),
            label: label.to_string(),
            seed,
            git_rev: detect_git_rev(),
            clock: kind,
        };
        Self {
            sink: Arc::new(Sink {
                clock,
                meta,
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
                open: Mutex::new(BTreeMap::new()),
                flight: Mutex::new(FlightRing::default()),
                postmortems: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The run metadata stamped into exports.
    #[must_use]
    pub fn meta(&self) -> &RunMeta {
        &self.sink.meta
    }

    /// The injected clock, for handing to instrumented components (e.g.
    /// a solver pipeline) so their deadlines share the run's time base.
    #[must_use]
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.sink.clock)
    }

    /// Current time on the run's clock.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.sink.clock.now()
    }

    /// A new buffered recorder for this run. One per thread.
    #[must_use]
    pub fn recorder(&self) -> Recorder {
        Recorder {
            sink: Arc::clone(&self.sink),
            buffer: RefCell::new(Buffer::default()),
            stack: RefCell::new(Vec::new()),
            trace_stack: RefCell::new(Vec::new()),
        }
    }

    /// Snapshot of all flushed spans, sorted by id (open order).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.sink.spans.lock().clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Skeletons of spans opened but not yet closed at the last flush,
    /// sorted by id. Their `end_ns` equals their `start_ns`; the real
    /// record replaces the skeleton when the guard eventually drops.
    #[must_use]
    pub fn open_spans(&self) -> Vec<SpanRecord> {
        self.sink.open.lock().values().cloned().collect()
    }

    /// Captures a flight-recorder postmortem: a self-contained JSONL
    /// dump of the recent-span ring, a synthetic `flight.<trigger>`
    /// span carrying `fields`, and a metric snapshot. The dump is also
    /// retained (up to [`MAX_POSTMORTEMS`]) for [`Telemetry::postmortems`],
    /// and the `flight.dumps` counter is bumped.
    ///
    /// Live recorders that have not flushed are invisible here; prefer
    /// [`Recorder::postmortem`] from instrumented code, which flushes
    /// its own buffer first.
    pub fn postmortem(&self, trigger: &str, fields: &[(&str, FieldValue)]) -> String {
        sink_postmortem(&self.sink, trigger, fields)
    }

    /// The postmortems captured so far, in trigger order.
    #[must_use]
    pub fn postmortems(&self) -> Vec<Postmortem> {
        self.sink.postmortems.lock().clone()
    }

    /// Snapshot of all flushed metrics, sorted by name.
    #[must_use]
    pub fn metrics(&self) -> BTreeMap<String, Metric> {
        self.sink.metrics.lock().clone()
    }

    /// A counter's current value, if the metric exists and is a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.sink.metrics.lock().get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's current value, if the metric exists and is a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.sink.metrics.lock().get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's summary, if the metric exists and is a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        match self.sink.metrics.lock().get(name) {
            Some(Metric::Histogram(h)) => Some(h.summary()),
            _ => None,
        }
    }
}

/// Local event buffer: spans and metric ops awaiting one batched flush.
#[derive(Debug, Default)]
struct Buffer {
    spans: Vec<SpanRecord>,
    ops: Vec<(String, MetricOp)>,
    /// Skeletons of spans opened since the last flush.
    opened: Vec<SpanRecord>,
    /// Ids of spans closed since the last flush (they leave the sink's
    /// open set on flush).
    closed: Vec<u64>,
}

impl Buffer {
    fn len(&self) -> usize {
        self.spans.len() + self.ops.len() + self.opened.len() + self.closed.len()
    }
}

/// Builds (and retains) one postmortem dump from a sink's flight ring.
fn sink_postmortem(sink: &Sink, trigger: &str, fields: &[(&str, FieldValue)]) -> String {
    {
        let mut metrics = sink.metrics.lock();
        let op = MetricOp::Incr(1);
        match metrics.get_mut(obs::FLIGHT_DUMPS) {
            Some(metric) => metric.apply(&op),
            None => {
                metrics.insert(obs::FLIGHT_DUMPS.to_string(), Metric::from_op(&op));
            }
        }
    }
    let ring = sink.flight.lock().snapshot();
    let metrics = sink.metrics.lock().clone();
    let now = duration_ns(sink.clock.now());
    let trigger_span = SpanRecord {
        id: ring.last().map_or(1, |s| s.id.saturating_add(1)),
        parent: None,
        name: format!("flight.{trigger}"),
        start_ns: now,
        end_ns: now,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
        trace: None,
    };
    let jsonl = crate::export::postmortem_jsonl(&sink.meta, &ring, &trigger_span, &metrics);
    let mut postmortems = sink.postmortems.lock();
    if postmortems.len() < MAX_POSTMORTEMS {
        postmortems.push(Postmortem {
            trigger: trigger.to_string(),
            jsonl: jsonl.clone(),
        });
    }
    jsonl
}

/// A per-thread handle that records spans and metrics into its run's
/// sink through a local buffer.
///
/// Not `Sync` by design — create one per thread via
/// [`Telemetry::recorder`]. Flushes automatically every
/// [`FLUSH_EVERY`] buffered events and on drop.
#[derive(Debug)]
pub struct Recorder {
    sink: Arc<Sink>,
    buffer: RefCell<Buffer>,
    /// Open span ids, innermost last: the parent chain for new spans.
    stack: RefCell<Vec<u64>>,
    /// Ambient causal contexts, innermost last: spans opened while one
    /// is pushed derive a deterministic child context from it.
    trace_stack: RefCell<Vec<TraceContext>>,
}

impl Recorder {
    /// Current time on the run's clock.
    #[must_use]
    pub fn now(&self) -> Duration {
        self.sink.clock.now()
    }

    /// Opens a span as a child of this recorder's innermost open span.
    /// The span ends (and is buffered) when the guard drops. If an
    /// ambient [`TraceContext`] is pushed, the span carries a
    /// deterministic child of it.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let trace = self.trace_stack.borrow().last().map(|top| top.child(name));
        self.open_span(name, trace)
    }

    /// Opens a span carrying an explicit causal context (e.g. one
    /// derived at a message or queue boundary), pushed as the ambient
    /// context for spans nested under it.
    #[must_use]
    pub fn span_with_trace(&self, name: &str, ctx: TraceContext) -> SpanGuard<'_> {
        self.open_span(name, Some(ctx))
    }

    fn open_span(&self, name: &str, trace: Option<TraceContext>) -> SpanGuard<'_> {
        let id = self.sink.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.borrow().last().copied();
        self.stack.borrow_mut().push(id);
        if let Some(ctx) = trace {
            self.trace_stack.borrow_mut().push(ctx);
        }
        let start_ns = duration_ns(self.sink.clock.now());
        let record = SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            // Skeletons export with a zero-length interval until the
            // guard drops and overwrites the end.
            end_ns: start_ns,
            fields: Vec::new(),
            trace,
        };
        self.buffer.borrow_mut().opened.push(record.clone());
        self.maybe_flush();
        SpanGuard {
            recorder: self,
            record: Some(record),
        }
    }

    /// Pushes an ambient causal context; spans opened until the
    /// matching [`Recorder::pop_trace`] derive children of it.
    pub fn push_trace(&self, ctx: TraceContext) {
        self.trace_stack.borrow_mut().push(ctx);
    }

    /// Pops the innermost ambient causal context, returning it.
    pub fn pop_trace(&self) -> Option<TraceContext> {
        self.trace_stack.borrow_mut().pop()
    }

    /// The innermost ambient causal context, if any.
    #[must_use]
    pub fn current_trace(&self) -> Option<TraceContext> {
        self.trace_stack.borrow().last().copied()
    }

    /// Captures a flight-recorder postmortem after flushing this
    /// recorder's buffer, so the triggering context is in the ring.
    /// See [`Telemetry::postmortem`].
    pub fn postmortem(&self, trigger: &str, fields: &[(&str, FieldValue)]) -> String {
        self.flush();
        sink_postmortem(&self.sink, trigger, fields)
    }

    /// Adds to a counter (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        self.push_op(name, MetricOp::Incr(by));
    }

    /// Sets a gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        self.push_op(name, MetricOp::Set(value));
    }

    /// Records a raw value into a histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.push_op(name, MetricOp::Observe(value));
    }

    /// Records a duration into a histogram, in nanoseconds.
    pub fn observe_duration(&self, name: &str, duration: Duration) {
        self.observe(name, duration_ns(duration));
    }

    fn push_op(&self, name: &str, op: MetricOp) {
        self.buffer.borrow_mut().ops.push((name.to_string(), op));
        self.maybe_flush();
    }

    fn push_span(&self, record: SpanRecord) {
        {
            let mut buffer = self.buffer.borrow_mut();
            buffer.closed.push(record.id);
            buffer.spans.push(record);
        }
        self.maybe_flush();
    }

    fn maybe_flush(&self) {
        if self.buffer.borrow().len() >= FLUSH_EVERY {
            self.flush();
        }
    }

    /// Drains the local buffer into the shared sink (two short lock
    /// acquisitions). Called automatically on drop and when the buffer
    /// fills.
    pub fn flush(&self) {
        let Buffer {
            spans,
            ops,
            opened,
            closed,
        } = self.buffer.take();
        if !opened.is_empty() || !closed.is_empty() {
            let mut open = self.sink.open.lock();
            for skeleton in opened {
                open.insert(skeleton.id, skeleton);
            }
            for id in &closed {
                open.remove(id);
            }
        }
        if !spans.is_empty() {
            {
                let mut flight = self.sink.flight.lock();
                for span in &spans {
                    flight.push(span.clone());
                }
            }
            self.sink.spans.lock().extend(spans);
        }
        if !ops.is_empty() {
            let mut metrics = self.sink.metrics.lock();
            for (name, op) in ops {
                match metrics.get_mut(&name) {
                    Some(metric) => metric.apply(&op),
                    None => {
                        metrics.insert(name, Metric::from_op(&op));
                    }
                }
            }
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; finishes and buffers its record on drop.
///
/// Guards nest: drop them in reverse open order (the natural scoped
/// usage). A guard dropped out of order still closes correctly — it
/// removes its own id from the open stack wherever it sits.
#[derive(Debug)]
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    record: Option<SpanRecord>,
}

impl SpanGuard<'_> {
    /// Attaches a typed attribute to the span.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(record) = self.record.as_mut() {
            record.fields.push((key.to_string(), value.into()));
        }
    }

    /// The span's id, e.g. to correlate with other records.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(mut record) = self.record.take() else {
            return;
        };
        record.end_ns = duration_ns(self.recorder.sink.clock.now());
        let mut stack = self.recorder.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&id| id == record.id) {
            stack.remove(pos);
        }
        drop(stack);
        if let Some(ctx) = record.trace {
            let mut traces = self.recorder.trace_stack.borrow_mut();
            if let Some(pos) = traces.iter().rposition(|t| t.span_id == ctx.span_id) {
                traces.remove(pos);
            }
        }
        self.recorder.push_span(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_is_deterministic_in_label_and_seed() {
        let a = Telemetry::new("bench", 7);
        let b = Telemetry::new("bench", 7);
        let c = Telemetry::new("bench", 8);
        assert_eq!(a.meta().run_id, b.meta().run_id);
        assert_ne!(a.meta().run_id, c.meta().run_id);
    }

    #[test]
    fn spans_nest_through_the_open_stack() {
        let clock = VirtualClock::new();
        let t = Telemetry::with_virtual_clock("test", 1, Arc::clone(&clock));
        let r = t.recorder();
        {
            let outer = r.span("day");
            clock.advance(Duration::from_millis(1));
            {
                let mut inner = r.span("allocate");
                inner.record("n", 5u64);
                clock.advance(Duration::from_millis(2));
            }
            drop(outer);
        }
        r.flush();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let day = spans.iter().find(|s| s.name == "day").unwrap();
        let alloc = spans.iter().find(|s| s.name == "allocate").unwrap();
        assert_eq!(day.parent, None);
        assert_eq!(alloc.parent, Some(day.id));
        assert_eq!(alloc.duration_ns(), 2_000_000);
        assert_eq!(day.duration_ns(), 3_000_000);
        assert_eq!(alloc.field("n"), Some(&FieldValue::U64(5)));
    }

    #[test]
    fn out_of_order_guard_drop_still_closes_cleanly() {
        let t = Telemetry::new("test", 1);
        let r = t.recorder();
        let a = r.span("a");
        let b = r.span("b");
        drop(a); // dropped before its child-by-stack `b`
        drop(b);
        let c = r.span("c");
        drop(c);
        r.flush();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        // `c` opened after both guards closed: `b` was removed from the
        // middle of the stack, so `c` must not claim a stale parent.
        let c = spans.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(c.parent, None);
    }

    #[test]
    fn metrics_merge_across_recorders() {
        let t = Telemetry::new("test", 1);
        let a = t.recorder();
        let b = t.recorder();
        a.incr("days", 2);
        b.incr("days", 3);
        a.gauge("load", 0.5);
        b.observe("ns", 100);
        b.observe("ns", 200);
        drop(a);
        drop(b);
        assert_eq!(t.counter("days"), Some(5));
        assert_eq!(t.gauge("load"), Some(0.5));
        assert_eq!(t.histogram("ns").unwrap().count, 2);
    }

    #[test]
    fn buffer_flushes_automatically_at_threshold() {
        let t = Telemetry::new("test", 1);
        let r = t.recorder();
        for _ in 0..FLUSH_EVERY {
            r.incr("ticks", 1);
        }
        // Threshold reached: visible without an explicit flush.
        assert_eq!(t.counter("ticks"), Some(FLUSH_EVERY as u64));
    }

    #[test]
    fn open_spans_surface_after_flush_and_retire_on_close() {
        let t = Telemetry::new("test", 1);
        let r = t.recorder();
        let guard = r.span("long_running");
        r.flush();
        let open = t.open_spans();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].name, "long_running");
        assert_eq!(open[0].end_ns, open[0].start_ns, "skeleton has no duration yet");
        assert!(t.spans().is_empty(), "still open: not a closed span");
        drop(guard);
        r.flush();
        assert!(t.open_spans().is_empty());
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn ambient_trace_contexts_derive_children_deterministically() {
        use crate::trace::TraceContext;
        let t = Telemetry::new("test", 1);
        let r = t.recorder();
        let root = TraceContext::day_root(1, 0);
        r.push_trace(root);
        {
            let _outer = r.span("solve");
            let _inner = r.span("solve.exact");
        }
        assert_eq!(r.pop_trace(), Some(root), "span guards pop only their own contexts");
        r.flush();
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "solve").unwrap();
        let inner = spans.iter().find(|s| s.name == "solve.exact").unwrap();
        assert_eq!(outer.trace, Some(root.child("solve")));
        assert_eq!(
            inner.trace,
            Some(root.child("solve").child("solve.exact")),
            "nesting chains through the ambient stack"
        );
        // Untraced recorders emit untraced spans.
        let r2 = t.recorder();
        drop(r2.span("plain"));
        r2.flush();
        let plain = t.spans().into_iter().find(|s| s.name == "plain").unwrap();
        assert_eq!(plain.trace, None);
    }

    #[test]
    fn explicit_trace_contexts_attach_and_become_ambient() {
        use crate::trace::TraceContext;
        let t = Telemetry::new("test", 1);
        let r = t.recorder();
        let ctx = TraceContext::report_stage(7, 0, 3, 2);
        {
            let _admit = r.span_with_trace("center.admit", ctx);
            let _nested = r.span("clamp");
        }
        r.flush();
        let spans = t.spans();
        let admit = spans.iter().find(|s| s.name == "center.admit").unwrap();
        let nested = spans.iter().find(|s| s.name == "clamp").unwrap();
        assert_eq!(admit.trace, Some(ctx));
        assert_eq!(nested.trace, Some(ctx.child("clamp")));
    }

    #[test]
    fn postmortems_self_validate_and_contain_the_trigger() {
        let clock = VirtualClock::new();
        let t = Telemetry::with_virtual_clock("pm", 3, Arc::clone(&clock));
        let r = t.recorder();
        for i in 0..5u64 {
            let mut s = r.span("work");
            s.record("i", i);
            clock.advance(Duration::from_micros(10));
        }
        let dump = r.postmortem("test_trigger", &[("detail", FieldValue::Str("boom".into()))]);
        let summary = crate::export::validate_jsonl(&dump).expect("postmortem validates");
        assert_eq!(summary.spans, 6, "5 ring spans + 1 trigger span");
        assert!(dump.contains("flight.test_trigger"));
        assert!(dump.contains("boom"));
        assert_eq!(t.postmortems().len(), 1);
        assert_eq!(t.postmortems()[0].trigger, "test_trigger");
        assert_eq!(t.counter("flight.dumps"), Some(1));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test exercises the recorder from several threads"
    )]
    fn recorders_work_across_threads() {
        let t = Telemetry::new("test", 1);
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let t = t.clone();
                scope.spawn(move || {
                    let r = t.recorder();
                    let mut s = r.span("worker");
                    s.record("thread", i);
                    drop(s);
                    r.incr("workers", 1);
                });
            }
        });
        assert_eq!(t.counter("workers"), Some(4));
        assert_eq!(t.spans().len(), 4);
        // All ids unique.
        let mut ids: Vec<u64> = t.spans().iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }
}
