//! The served transport: the center fed through the overload-safe
//! [`enki_serve`] ingestion path.
//!
//! [`ServeRuntime`] is the [`Driver`] over [`Served`], whose producers
//! stand in for household agents: each sends its raw report as wire
//! frames into a bounded queue that sheds or backpressures under load,
//! and reports reach the center only through the per-tick drain. A shed
//! report the center holds a standing profile for is
//! [`ShedCost::Replaceable`]: the center submits the profile instead
//! ([`CenterAgent::submit_standing`]) and a synthetic `SubmitReport` is
//! traced, so the allocation stays grounded. A shed fresh report loses
//! the household its day, like a lost report on the simulated LAN:
//! shedding loses participation, never money.
//!
//! A crash takes the co-located front end down with the center. It
//! restarts from its snapshot at the end of the previous tick (or from
//! the journal), so the recovered RNG stream replays backpressure
//! delays exactly.

use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::{RawPreference, RawReport};
use enki_durable::prelude::WalError;
use enki_serve::prelude::{
    encode_frame, Batch, IngestCheckpoint, IngestConfig, IngestFrontEnd, IngestStats,
    ProducerSignal, ShedCost,
};
use enki_telemetry::trace::{stage, TraceContext};
use enki_telemetry::{Recorder, SloMonitor, SloSample, Telemetry};
use serde::{Deserialize, Serialize};

use crate::center::{CenterAgent, CenterCheckpoint, DayPlan};
use crate::driver::{Driver, Hub, TraceKind, Transport};
use crate::durable::Journal;
use crate::message::{Envelope, Message, NodeId, Tick};

/// Ticks between a producer receiving its allocation and its meter
/// reading arriving at the center.
const READING_DELAY: Tick = 2;

/// The day a producer is currently reporting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct ProducerDay {
    day: u64,
    report_deadline: Tick,
}

/// One report producer: the serve-layer stand-in for a household ECC.
/// It submits a fixed raw preference through the wire codec each day,
/// retrying under the backpressure the front end advertises.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeProducer {
    /// The producing household.
    pub household: HouseholdId,
    /// The raw preference it reports every day.
    pub raw: RawPreference,
    /// Identical frames sent per attempt (> 1 models a flooding or
    /// stuttering reporter — the burst overload scenario).
    pub burst: u32,
    day: Option<ProducerDay>,
    next_send_at: Tick,
    attempts: u32,
    done: bool,
}

impl ServeProducer {
    /// A producer submitting `raw` once per attempt.
    #[must_use]
    pub fn new(household: HouseholdId, raw: RawPreference) -> Self {
        Self {
            household,
            raw,
            burst: 1,
            day: None,
            next_send_at: 0,
            attempts: 0,
            done: false,
        }
    }

    /// Sets the flood factor: identical frames per attempt.
    #[must_use]
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Report-send attempts made for the current day so far.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

/// A meter reading in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingDelivery {
    due: Tick,
    envelope: Envelope,
}

/// A complete snapshot of a [`ServeRuntime`]: restoring it resumes the
/// identical run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeCheckpoint {
    /// Simulation time at the snapshot.
    pub now: Tick,
    center: CenterCheckpoint,
    ingest: IngestCheckpoint,
    producers: Vec<ServeProducer>,
    pending: Vec<PendingDelivery>,
}

impl ServeCheckpoint {
    /// The ingest front end's portion of the snapshot.
    #[must_use]
    pub fn ingest(&self) -> &IngestCheckpoint {
        &self.ingest
    }
}

/// Producers → wire frames → bounded ingest → center.
#[derive(Debug)]
pub struct Served {
    front: IngestFrontEnd,
    producers: Vec<ServeProducer>,
    pending: Vec<PendingDelivery>,
    /// Raw frames from outside the runtime, fed to the front end next tick.
    injected: Vec<Vec<u8>>,
    /// The front end's snapshot at the end of the last tick: what a crash
    /// recovers to.
    durable: IngestCheckpoint,
    /// Kept so recovery can re-wire the rebuilt front end.
    telemetry: Option<Telemetry>,
    /// The producers' recorder, for their `producer.report` spans.
    recorder: Option<Recorder>,
    trace_seed: u64,
    /// Cumulative admitted and shed reports at the last SLO evaluation.
    slo_seen: (u64, u64),
}

impl Served {
    fn new(front: IngestFrontEnd) -> Self {
        Self {
            durable: front.checkpoint(),
            front,
            producers: Vec::new(),
            pending: Vec::new(),
            injected: Vec::new(),
            telemetry: None,
            recorder: None,
            trace_seed: 0,
            slo_seen: (0, 0),
        }
    }

    /// Sends each due producer's frame(s) into the front end and applies
    /// the returned signals to its retry state.
    fn offer_producer_frames(&mut self, now: Tick, center: &CenterAgent) {
        for p in &mut self.producers {
            let Some(day) = p.day else { continue };
            if p.done || now < p.next_send_at || now > day.report_deadline {
                continue;
            }
            let batch = Batch {
                day: day.day,
                deadline: day.report_deadline,
                reports: vec![RawReport::new(p.household, p.raw)],
            };
            let Ok(frame) = encode_frame(&batch) else {
                continue;
            };
            // One point span per send attempt at the `report` stage of
            // the household's causal chain.
            if let Some(r) = self.recorder.as_ref() {
                let ctx = report_stage(self.trace_seed, day.day, p.household);
                drop(r.span_with_trace("producer.report", ctx));
            }
            let mut accepted = false;
            let mut retry_after = None;
            let mut shed = false;
            for _ in 0..p.burst {
                for signal in self.front.offer_bytes(now, &frame, &mut shed_cost(center)) {
                    match signal {
                        ProducerSignal::Accepted { .. } => accepted = true,
                        ProducerSignal::Backpressure { retry_after: t } => retry_after = Some(t),
                        ProducerSignal::Shed { .. } => shed = true,
                    }
                }
            }
            if accepted {
                // In the queue; the drain (or a replaceable-shed
                // fallback) takes it from here.
                p.done = true;
            } else if let Some(t) = retry_after {
                p.attempts = p.attempts.saturating_add(1);
                p.next_send_at = now.saturating_add(t.max(1));
            } else if shed {
                // Stale or deadline-risk: retrying this tick cannot
                // help, and the fallback path owns replaceable work.
                p.done = true;
            }
        }
    }
}

/// An envelope a household sends the center.
fn to_center(household: HouseholdId, message: Message, trace: Option<TraceContext>) -> Envelope {
    Envelope {
        from: NodeId::Household(household),
        to: NodeId::Center,
        message,
        trace,
    }
}

/// The causal context of a household's report for `day`.
fn report_stage(seed: u64, day: u64, household: HouseholdId) -> TraceContext {
    TraceContext::report_stage(seed, day, u64::from(household.index()), stage::REPORT)
}

/// Classifies a household's report by what shedding it costs: a report
/// the center's standing profile can stand in for is replaceable.
fn shed_cost(center: &CenterAgent) -> impl FnMut(HouseholdId) -> ShedCost + '_ {
    |h| {
        if center.standing_profile(h).is_some() {
            ShedCost::Replaceable
        } else {
            ShedCost::Fresh
        }
    }
}

impl Transport for Served {
    fn deliver(&mut self, now: Tick, hub: &mut Hub, outbox: &mut Vec<Envelope>) {
        // Deliver the meter readings due this tick.
        let mut due: Vec<PendingDelivery> = Vec::new();
        self.pending.retain(|p| {
            if p.due <= now {
                due.push(*p);
                false
            } else {
                true
            }
        });
        for p in due {
            hub.deliver(now, p.envelope, outbox);
        }
        if hub.center.is_down() {
            return;
        }

        // Producers offer frames; the front end answers with
        // accept/backpressure/shed per frame.
        self.offer_producer_frames(now, &hub.center);
        for bytes in std::mem::take(&mut self.injected) {
            let _ = self
                .front
                .offer_bytes(now, &bytes, &mut shed_cost(&hub.center));
        }

        // Drain toward the center: fallbacks first (a standing profile
        // is staler than any fresh report, so a real report arriving the
        // same tick overwrites it), then admissions.
        let drained = self.front.drain(now);
        for (day, household) in drained.fallbacks {
            if !hub.center.submit_standing(day, household) {
                continue;
            }
            if let Some(raw) = hub.center.standing_profile(household).map(Into::into) {
                // Trace the substitution as a delivered report so the
                // oracle's grounding invariant stays meaningful: the
                // allocation this produces is grounded in the center's
                // own standing model, deliberately.
                let report = Message::SubmitReport {
                    day,
                    preference: raw,
                };
                let ctx = report_stage(self.trace_seed, day, household);
                hub.record(now, TraceKind::Delivered, to_center(household, report, Some(ctx)));
            }
        }
        for q in drained.admitted {
            let report = Message::SubmitReport {
                day: q.day,
                preference: q.report.preference,
            };
            // Forward the enqueue-stage context stamped by the front end,
            // keeping the causal chain unbroken from queue to admission.
            hub.deliver(now, to_center(q.report.household, report, q.trace), outbox);
        }
    }

    /// Applies a center-originated envelope to its producer: `DayStart`
    /// opens a new reporting day, `Allocation` schedules the cooperative
    /// meter reading, `Bill` needs no action (it is in the trace, which
    /// is what the oracle audits).
    fn send(&mut self, now: Tick, envelope: Envelope) {
        let NodeId::Household(household) = envelope.to else {
            return;
        };
        let Some(p) = self
            .producers
            .iter_mut()
            .find(|p| p.household == household)
        else {
            return;
        };
        match envelope.message {
            // Idempotent: a rebroadcast for the day in progress must
            // not reset retry state.
            Message::DayStart {
                day,
                report_deadline,
                ..
            } if p.day.map(|d| d.day) != Some(day) => {
                p.day = Some(ProducerDay {
                    day,
                    report_deadline,
                });
                p.done = false;
                p.attempts = 0;
                p.next_send_at = now.saturating_add(1);
            }
            Message::Allocation { day, window } => {
                // Cooperative consumption: the reading mirrors the
                // allocated window, arriving after a short flight.
                let reading = Message::MeterReading { day, window };
                let ctx = TraceContext::day_root(self.trace_seed, day)
                    .child_salted("meter", u64::from(household.index()));
                self.pending.push(PendingDelivery {
                    due: now + READING_DELAY,
                    envelope: to_center(household, reading, Some(ctx)),
                });
            }
            _ => {}
        }
    }

    fn attach(&mut self, telemetry: &Telemetry) {
        // The run seed doubles as the trace seed on every boundary, so
        // producer, queue, and center spans share one causal id space.
        self.trace_seed = telemetry.meta().seed;
        self.front.set_recorder(telemetry.recorder());
        self.front.set_trace_seed(self.trace_seed);
        self.recorder = Some(telemetry.recorder());
        self.telemetry = Some(telemetry.clone());
    }

    fn commit(&mut self, journal: Option<&mut Journal>) -> Result<(), WalError> {
        let Some(snapshot) = self.front.snapshot_if_dirty() else {
            return Ok(());
        };
        if let Some(journal) = journal {
            journal.log_ingest(&snapshot)?;
        }
        self.durable = snapshot;
        Ok(())
    }

    fn crash(&mut self) {
        // The co-located front end dies with the process: its decoder
        // buffer and post-checkpoint queue growth are gone.
        self.injected.clear();
    }

    fn recover(&mut self, ingest: Option<IngestCheckpoint>) {
        if let Some(ingest) = ingest {
            self.durable = ingest;
        }
        self.front = IngestFrontEnd::restore(self.front.config(), self.durable.clone());
        // A restored front end comes back without telemetry by design.
        if let Some(t) = self.telemetry.as_ref() {
            self.front.set_recorder(t.recorder());
        }
        self.front.set_trace_seed(self.trace_seed);
    }

    fn observe_day(&mut self, monitor: &mut SloMonitor) {
        let stats = self.front.stats();
        let seen = (stats.admitted, stats.shed.total());
        let good = seen.0.saturating_sub(self.slo_seen.0);
        let bad = seen.1.saturating_sub(self.slo_seen.1);
        self.slo_seen = seen;
        if good + bad > 0 {
            monitor.record("shed_rate", SloSample { good, bad });
        }
    }
}

/// The serve-layer runtime: producers → wire frames → bounded ingest →
/// center, on the one [`Driver`].
pub type ServeRuntime = Driver<Served>;

impl ServeRuntime {
    /// Assembles a runtime over the given center. `seed` feeds the
    /// front end's backpressure-jitter RNG.
    #[must_use]
    pub fn new(center: CenterAgent, ingest_config: IngestConfig, seed: u64) -> Self {
        let front = IngestFrontEnd::new(ingest_config, seed);
        Self::assemble(center, Served::new(front))
    }

    /// Rebuilds a runtime from a [`ServeCheckpoint`] plus the static
    /// configuration, resuming exactly where the snapshot left off.
    #[must_use]
    pub fn restore(
        enki: Enki,
        roster: Vec<HouseholdId>,
        plan: DayPlan,
        ingest_config: IngestConfig,
        checkpoint: ServeCheckpoint,
    ) -> Self {
        let served = Served {
            producers: checkpoint.producers,
            pending: checkpoint.pending,
            ..Served::new(IngestFrontEnd::restore(ingest_config, checkpoint.ingest))
        };
        let center = CenterAgent::restore(enki, roster, plan, checkpoint.center);
        let mut rt = Self::assemble(center, served);
        rt.now = checkpoint.now;
        rt
    }

    /// Adds a report producer.
    pub fn add_producer(&mut self, producer: ServeProducer) {
        self.transport.producers.push(producer);
    }

    /// Queues raw wire bytes for the front end, as if a producer outside
    /// the runtime had sent them.
    pub fn inject_frame(&mut self, bytes: Vec<u8>) {
        self.transport.injected.push(bytes);
    }

    /// The front end's running totals.
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.transport.front.stats()
    }

    /// Reports currently queued in the front end.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.transport.front.queue_depth()
    }

    /// The producer for a household, if present.
    #[must_use]
    pub fn producer(&self, household: HouseholdId) -> Option<&ServeProducer> {
        self.transport
            .producers
            .iter()
            .find(|p| p.household == household)
    }

    /// Snapshots the runtime's crash-consistent state: the center's last
    /// phase-boundary checkpoint, the front end's live queue, and the
    /// producer and in-flight state. Restoring mid-phase resumes the run
    /// as a crash recovery would, since reports the center received since
    /// its last phase boundary are volatile.
    #[must_use]
    pub fn checkpoint(&self) -> ServeCheckpoint {
        let served = &self.transport;
        ServeCheckpoint {
            now: self.now,
            center: self.center().checkpoint().clone(),
            ingest: served.front.checkpoint(),
            producers: served.producers.clone(),
            pending: served.pending.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::assert_feeds_each_closed_day_once;
    use enki_core::config::EnkiConfig;
    use enki_serve::prelude::Backoff;

    fn center(n: u32, seed: u64) -> CenterAgent {
        CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            seed,
        )
    }

    fn runtime(n: u32, config: IngestConfig, seed: u64) -> ServeRuntime {
        let mut rt = ServeRuntime::new(center(n, seed), config, seed);
        for i in 0..n {
            rt.add_producer(ServeProducer::new(
                HouseholdId::new(i),
                RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
            ));
        }
        rt
    }

    #[test]
    fn slo_monitor_sees_each_closed_day_once_across_a_crash() {
        let rt = runtime(4, IngestConfig::default(), 5);
        assert_feeds_each_closed_day_once(rt, "serve-slo-crash");
    }

    #[test]
    fn uncontended_day_settles_every_producer() {
        let mut rt = runtime(8, IngestConfig::default(), 1);
        rt.run_days(1);
        let records = rt.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].participants.len(), 8);
        assert!(records[0].settlement.is_some());
        assert_eq!(rt.ingest_stats().admitted, 8);
        assert_eq!(rt.ingest_stats().shed.total(), 0);
    }

    #[test]
    fn backpressured_producers_retry_and_settle() {
        // A queue of 2 and a drain of 1 forces most of the 6 producers
        // through at least one backpressure round trip.
        let config = IngestConfig {
            queue_capacity: 2,
            drain_per_tick: 1,
            backoff: Backoff::new(1, 4),
        };
        let mut rt = runtime(6, config, 3);
        rt.run_days(1);
        let records = rt.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].participants.len(), 6, "everyone got through");
        assert!(rt.ingest_stats().deferred > 0, "backpressure actually hit");
        let retried = (0..6u32)
            .filter(|&i| rt.producer(HouseholdId::new(i)).unwrap().attempts() > 0)
            .count();
        assert!(retried > 0, "some producer retried");
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed: u64| {
            let config = IngestConfig {
                queue_capacity: 3,
                drain_per_tick: 1,
                backoff: Backoff::new(1, 8),
            };
            let mut rt = runtime(6, config, seed);
            rt.run_days(2);
            (
                format!("{:?}", rt.records()),
                format!("{:?}", rt.trace()),
                format!("{:?}", rt.ingest_stats()),
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn checkpoint_roundtrips_through_serde_and_resumes() {
        let config = IngestConfig {
            queue_capacity: 4,
            drain_per_tick: 2,
            backoff: Backoff::new(1, 6),
        };
        let mut rt = runtime(5, config, 9);
        // Tick 85 is quiescent: day 0 settled (and committed) at 70, day
        // 1 has not started, nothing is in flight — so the durable view
        // in the snapshot equals the live state.
        rt.run_ticks(85);
        let snapshot = rt.checkpoint();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: ServeCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);

        let mut resumed = ServeRuntime::restore(
            Enki::new(EnkiConfig::default()),
            (0..5).map(HouseholdId::new).collect(),
            DayPlan::default(),
            config,
            back,
        );
        rt.run_ticks(215);
        resumed.run_ticks(215);
        assert_eq!(rt.records(), resumed.records());
        assert_eq!(rt.records().len(), 3, "three days settled");
        assert_eq!(rt.ingest_stats(), resumed.ingest_stats());
    }
}
