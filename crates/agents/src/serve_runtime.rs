//! Tick-driven runtime wiring the serve-layer ingest front end to the
//! center agent.
//!
//! [`ServeRuntime`] replaces the lockstep [`Runtime`](crate::runtime)'s
//! household agents with *producers* that submit their raw reports
//! through the overload-safe ingestion path ([`enki_serve`]): encoded
//! wire frames enter a bounded queue, are shed or backpressured under
//! load, and reach the center only through the per-tick drain. The rest
//! of the day protocol is unchanged — the center allocates at the
//! report deadline, collects (cooperatively synthesized) meter
//! readings, settles, and bills.
//!
//! The runtime stays single-threaded and deterministic: same seed, same
//! schedule, byte-identical records, traces, and checkpoints. The trace
//! uses the same [`TraceEvent`] vocabulary as the lockstep runtime, so
//! [`oracle::check_parts`](crate::oracle::check_parts) verifies the
//! same invariants — *under overload, nothing the oracle checks may
//! degrade*: shedding loses participation, never money.
//!
//! **Shedding and fallbacks.** The producer's report is classified
//! [`ShedCost::Replaceable`] when the center holds a standing profile
//! for it. When such a report is shed, the drain reports the household
//! as a fallback and the runtime calls
//! [`CenterAgent::submit_standing`], so the household still
//! participates through the center's standing model (a synthetic
//! `SubmitReport` is traced, keeping the oracle's grounding invariant
//! meaningful). A shed *fresh* report excludes the household for the
//! day — exactly like a lost report in the lockstep runtime.
//!
//! **Crash and recovery.** A scheduled crash takes the center *and* the
//! co-located front end down. Both recover from durable checkpoints:
//! the center from its own phase-boundary checkpoint, the front end
//! from the snapshot taken at the end of the previous tick — so a
//! mid-batch crash loses at most one tick of queued work, and the
//! recovered RNG stream replays backpressure delays exactly.

use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_serve::prelude::{
    encode_frame, Batch, IngestCheckpoint, IngestConfig, IngestFrontEnd, IngestStats,
    ProducerSignal, ShedCost,
};
use enki_telemetry::trace::{stage, TraceContext};
use enki_telemetry::{FieldValue, Recorder, SloMonitor, SloSample, Telemetry};
use serde::{Deserialize, Serialize};

use crate::center::{CenterAgent, CenterCheckpoint, DayPlan, DayRecord};
use crate::durable::Journal;
use crate::message::{Envelope, Message, NodeId, Tick};
use crate::runtime::{ClosedDays, CrashSchedule, DayHealth, TraceEvent, TraceKind};

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

/// One message scheduled for future delivery (meter readings in
/// flight).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingDelivery {
    due: Tick,
    envelope: Envelope,
}

/// A complete durable snapshot of a [`ServeRuntime`]: restoring it
/// resumes the identical run — records, queue contents, RNG streams,
/// producer retry state, and in-flight readings.
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
    /// The center's durable phase-boundary portion of the snapshot.
    #[must_use]
    pub fn center(&self) -> &CenterCheckpoint {
        &self.center
    }

    /// The ingest front end's portion of the snapshot.
    #[must_use]
    pub fn ingest(&self) -> &IngestCheckpoint {
        &self.ingest
    }
}

/// The serve-layer runtime: producers → wire frames → bounded ingest →
/// center.
#[derive(Debug)]
pub struct ServeRuntime {
    center: CenterAgent,
    front: IngestFrontEnd,
    ingest_config: IngestConfig,
    producers: Vec<ServeProducer>,
    pending: Vec<PendingDelivery>,
    /// Raw frames injected from outside (tests, edge mailboxes); fed to
    /// the front end at the start of the next tick.
    injected: Vec<Vec<u8>>,
    trace: Vec<TraceEvent>,
    crashes: Vec<CrashSchedule>,
    now: Tick,
    down: bool,
    /// The front-end snapshot taken at the end of the last completed
    /// tick — what a crash recovers to.
    ingest_durable: IngestCheckpoint,
    /// Optional write-ahead journal. When attached, every center phase
    /// commit and dirty ingest snapshot is logged (append → flush)
    /// before the tick's outputs are released, and recovery replays
    /// the journal instead of trusting in-memory copies.
    journal: Option<Journal>,
    /// The center [`CenterAgent::commit_seq`] already journaled; a
    /// higher live value means a phase boundary passed this tick.
    logged_commit_seq: u64,
    /// Human-readable log of recovery-path failures (audit refusals,
    /// storage errors); queryable so chaos tests can assert on them
    /// without the runtime panicking.
    recovery_errors: Vec<String>,
    /// Telemetry handle, kept so recovery can re-wire the rebuilt front
    /// end and so postmortems can be dumped from any site.
    telemetry: Option<Telemetry>,
    /// The runtime's own recorder for producer-side spans.
    recorder: Option<Recorder>,
    /// Seed for deterministic trace contexts (the run seed).
    trace_seed: u64,
    /// Completed recovery attempts (successful or not), for the
    /// recovery-latency SLO.
    recoveries: u64,
    slo: Option<SloMonitor>,
    /// The first day the SLO monitor has not been fed yet.
    slo_next_day: u64,
    slo_prev: SloPrev,
    day_health: Vec<DayHealth>,
}

/// Previous-day snapshots of the cumulative counts the serve SLOs
/// difference against.
#[derive(Debug, Clone, Copy, Default)]
struct SloPrev {
    admitted: u64,
    shed: u64,
    recoveries: u64,
    recovery_errors: u64,
}

impl ServeRuntime {
    /// Assembles a runtime over the given center. `seed` feeds the
    /// front end's backpressure-jitter RNG.
    #[must_use]
    pub fn new(center: CenterAgent, ingest_config: IngestConfig, seed: u64) -> Self {
        let front = IngestFrontEnd::new(ingest_config, seed);
        let ingest_durable = front.checkpoint();
        Self {
            center,
            front,
            ingest_config,
            producers: Vec::new(),
            pending: Vec::new(),
            injected: Vec::new(),
            trace: Vec::new(),
            crashes: Vec::new(),
            now: 0,
            down: false,
            ingest_durable,
            journal: None,
            logged_commit_seq: 0,
            recovery_errors: Vec::new(),
            telemetry: None,
            recorder: None,
            trace_seed: 0,
            recoveries: 0,
            slo: None,
            slo_next_day: 0,
            slo_prev: SloPrev::default(),
            day_health: Vec::new(),
        }
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
        let front = IngestFrontEnd::restore(ingest_config, checkpoint.ingest.clone());
        Self {
            center: CenterAgent::restore(enki, roster, plan, checkpoint.center),
            ingest_durable: front.checkpoint(),
            front,
            ingest_config,
            producers: checkpoint.producers,
            pending: checkpoint.pending,
            injected: Vec::new(),
            trace: Vec::new(),
            crashes: Vec::new(),
            now: checkpoint.now,
            down: false,
            journal: None,
            logged_commit_seq: 0,
            recovery_errors: Vec::new(),
            telemetry: None,
            recorder: None,
            trace_seed: 0,
            recoveries: 0,
            slo: None,
            slo_next_day: 0,
            slo_prev: SloPrev::default(),
            day_health: Vec::new(),
        }
    }

    /// Adds a report producer.
    pub fn add_producer(&mut self, producer: ServeProducer) {
        self.producers.push(producer);
    }

    /// Schedules center (and front-end) crashes; same contract as
    /// [`Runtime::with_center_crashes`](crate::runtime::Runtime::with_center_crashes).
    ///
    /// # Panics
    ///
    /// Panics if a schedule is inverted.
    #[must_use]
    pub fn with_crashes(mut self, crashes: Vec<CrashSchedule>) -> Self {
        assert!(
            crashes.iter().all(|c| c.crash_at < c.recover_at),
            "crash schedules must recover after they crash"
        );
        self.crashes = crashes;
        self
    }

    /// Attaches telemetry: the center emits its `center.*` metrics,
    /// the front end its `serve.*` queue/shed/latency metrics, and an
    /// attached journal its `durable.*` counters, all into the same
    /// sink. Attach the journal first so it is wired too.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.center.set_recorder(telemetry.recorder());
        self.front.set_recorder(telemetry.recorder());
        if let Some(journal) = self.journal.as_mut() {
            journal.set_recorder(telemetry.recorder());
        }
        // The run seed doubles as the trace seed on every boundary, so
        // producer, queue, and center spans share one causal id space.
        let seed = telemetry.meta().seed;
        self.center.set_trace_seed(seed);
        self.front.set_trace_seed(seed);
        self.trace_seed = seed;
        self.recorder = Some(telemetry.recorder());
        self.telemetry = Some(telemetry.clone());
        self.slo = Some(SloMonitor::standard());
        self
    }

    /// Attaches a write-ahead journal. From here on, every center
    /// phase boundary (see the [`CenterCheckpoint`] commit contract)
    /// and every dirty ingest snapshot is logged append → flush before
    /// the tick's outputs are released, and [`CrashSchedule`] recovery
    /// replays the journal — through the mandatory oracle audit —
    /// instead of trusting in-memory state.
    ///
    /// Attach before the first tick: commits made while no journal is
    /// listening are not in the log, and a recovery would roll back
    /// past them.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.logged_commit_seq = self.center.commit_seq();
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable access to the attached journal (chaos tests arm
    /// fault-storage crash points through this).
    #[must_use]
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// Recovery-path failures so far: oracle-audit refusals and
    /// storage errors, in occurrence order. Empty in a healthy run.
    #[must_use]
    pub fn recovery_errors(&self) -> &[String] {
        &self.recovery_errors
    }

    /// Whether the runtime is currently down (a scheduled crash or a
    /// failed journal write took it out).
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Restarts a down runtime immediately. Scheduled crashes recover
    /// at their [`CrashSchedule::recover_at`] tick on their own; this
    /// is for *unplanned* crashes (a journal storage failure), where
    /// chaos tests decide when the operator brings the process back.
    pub fn recover(&mut self) {
        if self.down {
            self.recover_now();
        }
    }

    /// Queues raw wire bytes for the front end, as if a producer outside
    /// the runtime had sent them (tests inject malformed frames here;
    /// benches feed edge-mailbox drains).
    pub fn inject_frame(&mut self, bytes: Vec<u8>) {
        self.injected.push(bytes);
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The center's settled day records.
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        self.center.records()
    }

    /// The center agent.
    #[must_use]
    pub fn center(&self) -> &CenterAgent {
        &self.center
    }

    /// The protocol event trace (always on).
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The front end's running totals.
    #[must_use]
    pub fn ingest_stats(&self) -> IngestStats {
        self.front.stats()
    }

    /// Reports currently queued in the front end.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.front.queue_depth()
    }

    /// The producer for a household, if present.
    #[must_use]
    pub fn producer(&self, household: HouseholdId) -> Option<&ServeProducer> {
        self.producers.iter().find(|p| p.household == household)
    }

    /// Snapshots the runtime's crash-consistent state: the center's
    /// last *durable* (phase-boundary) checkpoint, the front end's live
    /// queue, and producer/in-flight state. Reports the center received
    /// since its last phase boundary are volatile — exactly what a
    /// crash would lose — so restoring mid-phase resumes the run as a
    /// recovery would, not as an uninterrupted run.
    #[must_use]
    pub fn checkpoint(&self) -> ServeCheckpoint {
        ServeCheckpoint {
            now: self.now,
            center: self.center.checkpoint().clone(),
            ingest: self.front.checkpoint(),
            producers: self.producers.clone(),
            pending: self.pending.clone(),
        }
    }

    /// Runs `ticks` simulation steps.
    pub fn run_ticks(&mut self, ticks: Tick) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Runs whole protocol days of the given length. With telemetry
    /// attached, each completed day feeds the SLO monitor and appends a
    /// [`DayHealth`] summary.
    pub fn run_days(&mut self, days: u64, day_length: Tick) {
        for _ in 0..days {
            let day = self.now / day_length.max(1);
            self.run_ticks(day_length);
            self.observe_day_slo(day);
        }
    }

    /// SLO health summaries, one per completed day of
    /// [`run_days`](Self::run_days) with telemetry attached.
    #[must_use]
    pub fn day_health(&self) -> &[DayHealth] {
        &self.day_health
    }

    /// Feeds the day's outcomes (settlements, sheds, recoveries) to the
    /// SLO monitor, exports `slo.*` burn-rate gauges, and records the
    /// day's health summary. A day that closed without settlement
    /// counts as a deadline miss and dumps the flight recorder.
    fn observe_day_slo(&mut self, day: u64) {
        if self.slo.is_none() {
            return;
        }
        let closed = ClosedDays::since(self.center.records(), &mut self.slo_next_day);
        let stats = self.front.stats();
        let shed_total = stats.shed.total();
        let admitted_delta = stats.admitted.saturating_sub(self.slo_prev.admitted);
        let shed_delta = shed_total.saturating_sub(self.slo_prev.shed);
        let recoveries_delta = self.recoveries.saturating_sub(self.slo_prev.recoveries);
        let recovery_errors_delta =
            (self.recovery_errors.len() as u64).saturating_sub(self.slo_prev.recovery_errors);
        self.slo_prev = SloPrev {
            admitted: stats.admitted,
            shed: shed_total,
            recoveries: self.recoveries,
            recovery_errors: self.recovery_errors.len() as u64,
        };
        let Some(monitor) = self.slo.as_mut() else {
            return;
        };
        monitor.record(
            "deadline_compliance",
            SloSample {
                good: closed.settled,
                bad: closed.missed,
            },
        );
        monitor.record("at_most_one_bill", SloSample { good: closed.bills, bad: 0 });
        if admitted_delta + shed_delta > 0 {
            monitor.record(
                "shed_rate",
                SloSample {
                    good: admitted_delta,
                    bad: shed_delta,
                },
            );
        }
        if recoveries_delta + recovery_errors_delta > 0 {
            monitor.record(
                "recovery_latency",
                SloSample {
                    good: recoveries_delta.saturating_sub(recovery_errors_delta),
                    bad: recovery_errors_delta,
                },
            );
        }
        let statuses = monitor.evaluate();
        if let Some(r) = self.recorder.as_ref() {
            for status in &statuses {
                r.gauge(&format!("slo.{}.short_burn", status.name), status.short_burn);
                r.gauge(&format!("slo.{}.long_burn", status.name), status.long_burn);
            }
            if closed.missed > 0 {
                let _ = r.postmortem(
                    "deadline_miss",
                    &[("day", FieldValue::U64(day)), ("missed", FieldValue::U64(closed.missed))],
                );
            }
        }
        self.day_health.push(DayHealth {
            day,
            statuses,
            closed_days: closed.days,
            bills: closed.bills,
        });
    }

    fn record(&mut self, at: Tick, kind: TraceKind, envelope: Envelope) {
        self.trace.push(TraceEvent { at, kind, envelope });
    }

    fn crash_now(&mut self) {
        self.down = true;
        self.center.crash();
        // The co-located front end dies with the process: its decoder
        // buffer and post-checkpoint queue growth are gone.
        self.injected.clear();
    }

    /// Re-attaches telemetry and the trace seed to a freshly restored
    /// front end ([`IngestFrontEnd::restore`] drops both by design).
    fn rewire_front(&mut self) {
        if let Some(t) = self.telemetry.as_ref() {
            self.front.set_recorder(t.recorder());
        }
        self.front.set_trace_seed(self.trace_seed);
    }

    fn recover_now(&mut self) {
        self.down = false;
        self.recoveries += 1;
        if self.journal.is_some() {
            self.recover_from_journal();
        } else {
            self.center.recover();
            self.front =
                IngestFrontEnd::restore(self.ingest_config, self.ingest_durable.clone());
            self.rewire_front();
        }
    }

    /// Journal-backed recovery: restart the storage, replay the log,
    /// audit, adopt. A storage failure during the replay itself (a
    /// crash point placed inside recovery) is retried — each attempt
    /// restarts the backend first, exactly as rebooting again would.
    /// An audit refusal is terminal for the journaled state: it is
    /// recorded in [`ServeRuntime::recovery_errors`] and the runtime
    /// falls back to its in-memory durable copies (a deployment would
    /// page an operator rather than serve from rejected state).
    fn recover_from_journal(&mut self) {
        const MAX_RECOVERY_ATTEMPTS: u32 = 4;
        let errors_before = self.recovery_errors.len();
        let mut recovered = None;
        for _ in 0..MAX_RECOVERY_ATTEMPTS {
            let Some(journal) = self.journal.as_mut() else {
                return;
            };
            match journal.recover() {
                Ok(state) => {
                    recovered = Some(state);
                    break;
                }
                Err(e) => self
                    .recovery_errors
                    .push(format!("journal recovery failed: {e}")),
            }
        }
        match recovered {
            None => {
                // The storage never came back up; the in-memory durable
                // copies are all that is left to resume from.
                self.center.recover();
            }
            Some(state) => {
                if let Err(e) =
                    state.audit(self.center.roster(), self.center.enki().config())
                {
                    self.recovery_errors
                        .push(format!("recovered state refused: {e}"));
                    self.center.recover();
                } else {
                    match state.center {
                        Some(checkpoint) => self.center.recover_from(checkpoint),
                        None => self.center.recover(),
                    }
                    if let Some(ingest) = state.ingest {
                        self.ingest_durable = ingest;
                    }
                }
            }
        }
        self.front = IngestFrontEnd::restore(self.ingest_config, self.ingest_durable.clone());
        self.rewire_front();
        self.logged_commit_seq = self.center.commit_seq();
        if self.recovery_errors.len() > errors_before {
            self.dump_postmortem("recovery_error");
        }
    }

    /// Dumps the flight recorder with the most recent recovery error
    /// attached, if telemetry is wired.
    fn dump_postmortem(&self, trigger: &str) {
        if let Some(r) = self.recorder.as_ref() {
            let last = self.recovery_errors.last().cloned().unwrap_or_default();
            let _ = r.postmortem(trigger, &[("last_error", FieldValue::Str(last))]);
        }
    }

    /// Journals the tick's durable transitions, log → flush → apply: a
    /// center phase commit when one happened this tick, and the front
    /// end's snapshot when its durable state changed. Without a
    /// journal, the snapshots only refresh the in-memory recovery
    /// copies. Returns `false` when a journal write failed: the
    /// storage is treated as crashed and the tick's outputs must not
    /// be released.
    fn journal_commits(&mut self) -> bool {
        if let Some(journal) = self.journal.as_mut() {
            if self.center.commit_seq() != self.logged_commit_seq {
                if let Err(e) = journal.log_center(self.center.checkpoint()) {
                    self.recovery_errors
                        .push(format!("journal center commit failed: {e}"));
                    self.dump_postmortem("journal_write_failed");
                    self.crash_now();
                    return false;
                }
                self.logged_commit_seq = self.center.commit_seq();
            }
        }
        if let Some(snapshot) = self.front.snapshot_if_dirty() {
            if let Some(journal) = self.journal.as_mut() {
                if let Err(e) = journal.log_ingest(&snapshot) {
                    self.recovery_errors
                        .push(format!("journal ingest commit failed: {e}"));
                    self.dump_postmortem("journal_write_failed");
                    self.crash_now();
                    return false;
                }
            }
            self.ingest_durable = snapshot;
        }
        true
    }

    fn step(&mut self) {
        let now = self.now;

        for i in 0..self.crashes.len() {
            let c = self.crashes[i];
            if c.crash_at == now {
                self.crash_now();
            }
            if c.recover_at == now {
                self.recover_now();
            }
        }

        let mut outbox: Vec<Envelope> = Vec::new();

        // Deliver in-flight messages due this tick (meter readings).
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
            if self.down {
                self.record(now, TraceKind::LostCenterDown, p.envelope);
                continue;
            }
            self.record(now, TraceKind::Delivered, p.envelope);
            self.center
                .on_message(now, p.envelope.from, p.envelope.message, &mut outbox);
        }

        if !self.down {
            // Producers offer frames; the front end answers with
            // accept/backpressure/shed per frame.
            self.offer_producer_frames(now);
            let injected = std::mem::take(&mut self.injected);
            for bytes in injected {
                let center = &self.center;
                let _ = self.front.offer_bytes(now, &bytes, &mut |h| {
                    if center.standing_profile(h).is_some() {
                        ShedCost::Replaceable
                    } else {
                        ShedCost::Fresh
                    }
                });
            }

            // Drain toward the center: fallbacks first (a standing
            // profile is staler than any fresh report, so a real report
            // arriving the same tick overwrites it), then admissions.
            let drained = self.front.drain(now);
            for (day, household) in drained.fallbacks {
                if self.center.submit_standing(day, household) {
                    if let Some(raw) =
                        self.center.standing_profile(household).map(Into::into)
                    {
                        // Trace the substitution as a delivered report so
                        // the oracle's grounding invariant stays meaningful:
                        // the allocation this produces is grounded in the
                        // center's own standing model, deliberately.
                        self.record(
                            now,
                            TraceKind::Delivered,
                            Envelope {
                                from: NodeId::Household(household),
                                to: NodeId::Center,
                                message: Message::SubmitReport {
                                    day,
                                    preference: raw,
                                },
                                trace: Some(TraceContext::report_stage(
                                    self.trace_seed,
                                    day,
                                    u64::from(household.index()),
                                    stage::REPORT,
                                )),
                            },
                        );
                    }
                }
            }
            for q in drained.admitted {
                let envelope = Envelope {
                    from: NodeId::Household(q.report.household),
                    to: NodeId::Center,
                    message: Message::SubmitReport {
                        day: q.day,
                        preference: q.report.preference,
                    },
                    // Forward the enqueue-stage context stamped by the
                    // front end, keeping the causal chain unbroken from
                    // queue to admission.
                    trace: q.trace,
                };
                self.record(now, TraceKind::Delivered, envelope);
                self.center.on_message(
                    now,
                    envelope.from,
                    envelope.message,
                    &mut outbox,
                );
            }

            self.center.on_tick(now, &mut outbox);
            // Write-ahead barrier: the tick's commits become durable
            // before its outputs are released. A failed write crashes
            // the runtime and the unreleased outputs die with it.
            if !self.journal_commits() {
                outbox.clear();
            }
        }

        for envelope in outbox {
            self.record(now, TraceKind::Originated, envelope);
            self.route_to_producer(now, envelope);
        }

        self.now += 1;
    }

    /// Sends each due producer's frame(s) into the front end and applies
    /// the returned signals to its retry state.
    fn offer_producer_frames(&mut self, now: Tick) {
        for i in 0..self.producers.len() {
            let p = &self.producers[i];
            let Some(day) = p.day else { continue };
            if p.done || now < p.next_send_at || now > day.report_deadline {
                continue;
            }
            let batch = Batch {
                day: day.day,
                deadline: day.report_deadline,
                reports: vec![enki_core::validation::RawReport::new(
                    p.household, p.raw,
                )],
            };
            let Ok(frame) = encode_frame(&batch) else {
                continue;
            };
            // One point span per send attempt at the `report` stage of
            // the household's causal chain.
            if let Some(r) = self.recorder.as_ref() {
                let ctx = TraceContext::report_stage(
                    self.trace_seed,
                    day.day,
                    u64::from(p.household.index()),
                    stage::REPORT,
                );
                drop(r.span_with_trace("producer.report", ctx));
            }
            let burst = p.burst;
            let mut accepted = false;
            let mut retry_after = None;
            let mut shed = false;
            for _ in 0..burst {
                let center = &self.center;
                let signals = self.front.offer_bytes(now, &frame, &mut |h| {
                    if center.standing_profile(h).is_some() {
                        ShedCost::Replaceable
                    } else {
                        ShedCost::Fresh
                    }
                });
                for signal in signals {
                    match signal {
                        ProducerSignal::Accepted { .. } => accepted = true,
                        ProducerSignal::Backpressure { retry_after: t } => {
                            retry_after = Some(t);
                        }
                        ProducerSignal::Shed { .. } => shed = true,
                    }
                }
            }
            let p = &mut self.producers[i];
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

    /// Applies a center-originated envelope to its producer: `DayStart`
    /// opens a new reporting day, `Allocation` schedules the cooperative
    /// meter reading, `Bill` needs no action (it is in the trace, which
    /// is what the oracle audits).
    fn route_to_producer(&mut self, now: Tick, envelope: Envelope) {
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
                self.pending.push(PendingDelivery {
                    due: now + READING_DELAY,
                    envelope: Envelope {
                        from: NodeId::Household(household),
                        to: NodeId::Center,
                        message: Message::MeterReading { day, window },
                        trace: Some(
                            TraceContext::day_root(self.trace_seed, day)
                                .child_salted("meter", u64::from(household.index())),
                        ),
                    },
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Day 1 settles, then the process crashes before day 1 ends and
        // stays down past the end of day 2. The evaluations during the
        // outage must not rewind, and the one after recovery must feed
        // only the days it has not seen.
        let telemetry = Telemetry::new("serve-slo-crash", 5);
        let mut rt = runtime(4, IngestConfig::default(), 5)
            .with_crashes(vec![CrashSchedule {
                crash_at: 190,
                recover_at: 302,
            }])
            .with_telemetry(&telemetry);
        rt.run_days(5, 100);
        let days: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        assert_eq!(days, vec![0, 1, 2, 3], "the crash delayed day 2, lost none");
        let bills: u64 = rt
            .records()
            .iter()
            .filter_map(|r| r.settlement.as_ref())
            .map(|s| s.entries.len() as u64)
            .sum();
        let fed: Vec<u64> = rt
            .day_health()
            .iter()
            .flat_map(|h| h.closed_days.clone())
            .collect();
        assert_eq!(fed, days, "each closed day reaches the monitor once");
        assert_eq!(rt.day_health().iter().map(|h| h.bills).sum::<u64>(), bills);
    }

    #[test]
    fn uncontended_day_settles_every_producer() {
        let mut rt = runtime(8, IngestConfig::default(), 1);
        rt.run_days(1, 100);
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
        rt.run_days(1, 100);
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
            rt.run_days(2, 100);
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
