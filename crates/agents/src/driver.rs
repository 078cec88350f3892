//! The one day-loop driver every runtime shares.
//!
//! A [`Driver`] runs the Fig. 1 day over a [`Transport`]: the simulated
//! LAN ([`Runtime`](crate::runtime::Runtime)), the served ingest path
//! ([`ServeRuntime`](crate::serve_runtime::ServeRuntime)) or household
//! agents on OS threads ([`crate::threaded`]). The transport owns how
//! envelopes travel and who answers at the household end; the driver
//! owns the rest. Every tick:
//!
//! 1. scheduled crashes and recoveries apply, so a crash at tick `t`
//!    loses everything due at `t` and a recovery at `t` sees it;
//! 2. the transport delivers what is due, envelopes for the center
//!    through [`Hub::deliver`];
//! 3. the center ticks, and the write-ahead barrier journals its phase
//!    commit and the transport's durable state. A failed write crashes
//!    the runtime and drops the center's outputs for that tick only;
//! 4. the households tick, in roster order;
//! 5. every output is traced as originated and handed to the transport.
//!
//! Runs are exactly reproducible for a given seed, and the protocol
//! trace the [`oracle`](crate::oracle) checks is always on. With
//! telemetry, [`Driver::run_days`] wraps each day in a `day` span, the
//! driver counts `runtime.*`, and each closed day feeds the SLO monitor
//! and a [`DayHealth`] summary.

use std::sync::Arc;
use std::time::Duration;

use enki_durable::prelude::WalError;
use enki_serve::prelude::IngestCheckpoint;
use enki_telemetry::{
    FieldValue, Recorder, SloMonitor, SloSample, SloStatus, Telemetry, VirtualClock,
};
use serde::{Deserialize, Serialize};

use crate::center::{CenterAgent, DayRecord};
use crate::durable::Journal;
use crate::message::{Envelope, Tick};

/// A scheduled center crash: the process dies at `crash_at` and restarts
/// (restoring from its durable checkpoint or journal) at `recover_at`.
/// Messages addressed to the center while it is down are lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// Tick the center crashes.
    pub crash_at: Tick,
    /// Tick the center comes back up.
    pub recover_at: Tick,
}

/// What happened to one envelope, as seen by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// The envelope left an agent's outbox (before any fault injection).
    Originated,
    /// The envelope reached its recipient's message handler.
    Delivered,
    /// The envelope was due for the center while it was crashed.
    LostCenterDown,
}

/// One logged protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Tick the event happened.
    pub at: Tick,
    /// What happened.
    pub kind: TraceKind,
    /// The envelope.
    pub envelope: Envelope,
}

/// One day's SLO health: every objective's burn-rate status at the end
/// of that protocol day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayHealth {
    /// The day the summary covers.
    pub day: u64,
    /// Burn-rate status per configured SLO.
    pub statuses: Vec<SloStatus>,
    /// The closed days this evaluation fed to the monitor, in order; each
    /// is fed once, in the first evaluation after its record commits.
    pub closed_days: Vec<u64>,
    /// Bills those closed days settled.
    pub bills: u64,
}

/// How envelopes travel, and who answers at the household end. The
/// [`Driver`] calls these in tick order.
pub trait Transport {
    /// Delivers everything due at `now`. Envelopes for the center go
    /// through [`Hub::deliver`]; replies land in `outbox`.
    fn deliver(&mut self, now: Tick, hub: &mut Hub, outbox: &mut Vec<Envelope>);

    /// Carries one envelope an agent originated this tick.
    fn send(&mut self, now: Tick, envelope: Envelope);

    /// The households' time step, after the center's.
    fn tick(&mut self, _now: Tick, _outbox: &mut Vec<Envelope>) {}

    /// Wires telemetry into the transport's own ends.
    fn attach(&mut self, _telemetry: &Telemetry) {}

    /// Journals transport state the tick changed, after the center's
    /// commit and before any output leaves (without a journal, refreshes
    /// the copy a crash recovers to). An error crashes the runtime.
    fn commit(&mut self, _journal: Option<&mut Journal>) -> Result<(), WalError> {
        Ok(())
    }

    /// The process died: volatile transport state is gone.
    fn crash(&mut self) {}

    /// The process restarts, from the journal's ingest checkpoint if any.
    fn recover(&mut self, _ingest: Option<IngestCheckpoint>) {}

    /// Adds the SLO samples only this transport sees, for the day ended.
    fn observe_day(&mut self, _monitor: &mut SloMonitor) {}

    /// Exports end-of-run gauges.
    fn publish(&self, _recorder: &Recorder) {}
}

/// The center's end of every transport: the agent, the protocol trace,
/// and the driver's recorder.
#[derive(Debug)]
pub struct Hub {
    pub(crate) center: CenterAgent,
    pub(crate) trace: Vec<TraceEvent>,
    recorder: Option<Recorder>,
}

impl Hub {
    /// Logs one protocol event.
    pub fn record(&mut self, at: Tick, kind: TraceKind, envelope: Envelope) {
        self.trace.push(TraceEvent { at, kind, envelope });
    }

    /// Hands an envelope to the center, or loses it while the center is
    /// down. Either way it is traced.
    pub fn deliver(&mut self, now: Tick, envelope: Envelope, outbox: &mut Vec<Envelope>) {
        if self.center.is_down() {
            if let Some(r) = self.recorder.as_ref() {
                r.incr("runtime.lost_center_down", 1);
            }
            self.record(now, TraceKind::LostCenterDown, envelope);
            return;
        }
        self.record(now, TraceKind::Delivered, envelope);
        self.center.on_message(now, envelope.from, envelope.message, outbox);
    }
}

/// The attached telemetry sink, its SLO monitor, and what the monitor
/// has been fed so far.
#[derive(Debug)]
struct Observer {
    telemetry: Telemetry,
    monitor: SloMonitor,
    day_health: Vec<DayHealth>,
    /// The first day the monitor has not been fed yet.
    next_day: u64,
    /// Cumulative exact solves, degraded solves, recoveries and
    /// recovery errors at the last evaluation.
    seen: [u64; 4],
}

/// The single-threaded, tick-driven day loop over a [`Transport`].
#[derive(Debug)]
pub struct Driver<T> {
    hub: Hub,
    pub(crate) transport: T,
    pub(crate) now: Tick,
    crashes: Vec<CrashSchedule>,
    journal: Option<Journal>,
    /// The [`CenterAgent::commit_seq`] already journaled.
    logged_commit_seq: u64,
    recoveries: u64,
    recovery_errors: Vec<String>,
    clock: Option<Arc<VirtualClock>>,
    observer: Option<Observer>,
}

impl<T: Transport> Driver<T> {
    pub(crate) fn assemble(center: CenterAgent, transport: T) -> Self {
        Self {
            hub: Hub {
                center,
                trace: Vec::new(),
                recorder: None,
            },
            transport,
            now: 0,
            crashes: Vec::new(),
            journal: None,
            logged_commit_seq: 0,
            recoveries: 0,
            recovery_errors: Vec::new(),
            clock: None,
            observer: None,
        }
    }

    /// Schedules center crashes. Each schedule must satisfy
    /// `crash_at < recover_at`; schedules must not overlap.
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

    /// Attaches telemetry: the center, the transport and the journal
    /// (attached before or after) record into the same sink, and every
    /// agent derives its causal ids from the run seed.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        let center = &mut self.hub.center;
        center.set_recorder(telemetry.recorder());
        center.set_trace_seed(telemetry.meta().seed);
        self.transport.attach(telemetry);
        if let Some(journal) = self.journal.as_mut() {
            journal.set_recorder(telemetry.recorder());
        }
        self.hub.recorder = Some(telemetry.recorder());
        self.observer = Some(Observer {
            telemetry: telemetry.clone(),
            monitor: SloMonitor::standard(),
            day_health: Vec::new(),
            next_day: 0,
            seen: [0; 4],
        });
        self
    }

    /// Advances a shared [`VirtualClock`] by 1 ms after every tick. With
    /// the same clock injected into the telemetry sink, span timestamps
    /// become a pure function of the tick count.
    #[must_use]
    pub fn with_virtual_clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a write-ahead journal: every center phase commit and the
    /// transport's durable state are logged before the tick's outputs
    /// leave, and recovery replays the journal through the mandatory
    /// oracle audit. Attach before the first tick, or a recovery rolls
    /// back past the commits the log never saw.
    #[must_use]
    pub fn with_journal(mut self, mut journal: Journal) -> Self {
        if let Some(observer) = self.observer.as_ref() {
            journal.set_recorder(observer.telemetry.recorder());
        }
        self.logged_commit_seq = self.hub.center.commit_seq();
        self.journal = Some(journal);
        self
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable access to the attached journal.
    #[must_use]
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// Recovery-path failures so far (audit refusals, storage errors), in
    /// order. Empty in a healthy run.
    #[must_use]
    pub fn recovery_errors(&self) -> &[String] {
        &self.recovery_errors
    }

    /// Whether the center is down (a scheduled crash or a failed journal
    /// write took it out).
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.hub.center.is_down()
    }

    /// Restarts a down runtime now: for unplanned crashes (a failed
    /// journal write). Scheduled ones recover at their
    /// [`CrashSchedule::recover_at`] on their own.
    pub fn recover(&mut self) {
        if self.is_down() {
            self.recover_now();
        }
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The center's settled day records.
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        self.hub.center.records()
    }

    /// The center agent.
    #[must_use]
    pub fn center(&self) -> &CenterAgent {
        &self.hub.center
    }

    /// The protocol event trace.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.hub.trace
    }

    /// SLO health summaries, one per day of [`run_days`](Self::run_days)
    /// with telemetry attached.
    #[must_use]
    pub fn day_health(&self) -> &[DayHealth] {
        self.observer.as_ref().map_or(&[], |o| &o.day_health)
    }

    /// Runs `ticks` protocol ticks.
    pub fn run_ticks(&mut self, ticks: Tick) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Runs whole protocol days of the center's
    /// [`DayPlan::day_length`](crate::center::DayPlan::day_length). With
    /// telemetry attached, each day runs inside a `day` span and feeds
    /// the SLO monitor, and the transport's end-of-run gauges follow.
    pub fn run_days(&mut self, days: u64) {
        let day_length = self.hub.center.plan().day_length.max(1);
        // A local recorder scopes the day spans without borrowing `self`
        // across the tick loop; it flushes into the shared sink on drop.
        let recorder = self.observer.as_ref().map(|o| o.telemetry.recorder());
        for _ in 0..days {
            let day = self.now / day_length;
            let span = recorder.as_ref().map(|r| {
                let mut s = r.span("day");
                s.record("day", day);
                s
            });
            self.run_ticks(day_length);
            drop(span);
            self.observe_day(day);
        }
        drop(recorder);
        if let Some(r) = self.hub.recorder.as_ref() {
            self.transport.publish(r);
        }
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

        let mut outbox = Vec::new();
        self.transport.deliver(now, &mut self.hub, &mut outbox);
        if !self.hub.center.is_down() {
            let households_sent = outbox.len();
            self.hub.center.on_tick(now, &mut outbox);
            // Write-ahead barrier: the tick's commits become durable
            // before the center's outputs are released.
            if !self.log_commits() {
                outbox.truncate(households_sent);
            }
        }
        self.transport.tick(now, &mut outbox);
        for envelope in outbox {
            self.hub.record(now, TraceKind::Originated, envelope);
            self.transport.send(now, envelope);
        }

        if let Some(r) = self.hub.recorder.as_ref() {
            r.incr("runtime.ticks", 1);
        }
        if let Some(clock) = self.clock.as_ref() {
            clock.advance(Duration::from_millis(1));
        }
        self.now += 1;
    }

    fn crash_now(&mut self) {
        self.hub.center.crash();
        self.transport.crash();
    }

    /// Restarts the center and the transport: from the journal (restart
    /// the storage, replay, audit, adopt) when there is one. A storage
    /// failure inside the replay is retried, as rebooting again would. An
    /// audit refusal is recorded in [`Driver::recovery_errors`] and the
    /// runtime falls back to its in-memory durable copies.
    fn recover_now(&mut self) {
        const MAX_RECOVERY_ATTEMPTS: u32 = 4;
        self.recoveries += 1;
        let errors_before = self.recovery_errors.len();
        let mut recovered = None;
        if let Some(journal) = self.journal.as_mut() {
            for _ in 0..MAX_RECOVERY_ATTEMPTS {
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
        }
        // Adopt the replayed state only if it passes its audit. Otherwise,
        // or without a journal that came back up, the in-memory durable
        // copies are all that is left to resume from.
        let center = &mut self.hub.center;
        let audited = recovered.filter(|state| {
            let audit = state.audit(center.roster(), center.enki().config());
            if let Err(e) = &audit {
                self.recovery_errors
                    .push(format!("recovered state refused: {e}"));
            }
            audit.is_ok()
        });
        let (checkpoint, ingest) = audited.map_or((None, None), |s| (s.center, s.ingest));
        match checkpoint {
            Some(checkpoint) => center.recover_from(checkpoint),
            None => center.recover(),
        }
        self.transport.recover(ingest);
        self.logged_commit_seq = self.hub.center.commit_seq();
        if self.recovery_errors.len() > errors_before {
            self.dump_postmortem("recovery_error");
        }
    }

    /// Journals the tick's center phase commit, if any, then the
    /// transport's state. Returns `false`, with the runtime down, when a
    /// journal write failed.
    fn log_commits(&mut self) -> bool {
        let center = &self.hub.center;
        let failed = match self.journal.as_mut() {
            Some(journal) if center.commit_seq() != self.logged_commit_seq => journal
                .log_center(center.checkpoint())
                .err()
                .map(|e| format!("journal center commit failed: {e}")),
            _ => None,
        };
        if failed.is_none() {
            self.logged_commit_seq = center.commit_seq();
        }
        let failed = failed.or_else(|| {
            self.transport
                .commit(self.journal.as_mut())
                .err()
                .map(|e| format!("journal ingest commit failed: {e}"))
        });
        let Some(error) = failed else {
            return true;
        };
        self.recovery_errors.push(error);
        self.dump_postmortem("journal_write_failed");
        self.crash_now();
        false
    }

    /// Dumps the flight recorder with the most recent recovery error
    /// attached, if telemetry is wired.
    fn dump_postmortem(&self, trigger: &str) {
        if let Some(r) = self.hub.recorder.as_ref() {
            let last = self.recovery_errors.last().cloned().unwrap_or_default();
            let _ = r.postmortem(trigger, &[("last_error", FieldValue::Str(last))]);
        }
    }

    /// Feeds the day's outcomes to the SLO monitor, exports its burn
    /// rates as `slo.*` gauges and records a [`DayHealth`]. A day closed
    /// without settlement is a deadline miss and dumps the flight
    /// recorder.
    fn observe_day(&mut self, day: u64) {
        let Some(observer) = self.observer.as_mut() else {
            return;
        };
        // Settlement outcomes come straight from the center's records —
        // the protocol's ground truth, immune to counter-flush lag. Days
        // are found by number, not by ledger position, so neither a crash
        // nor a journal rollback can feed a day to the monitor twice.
        let records = self.hub.center.records();
        let closed = &records[records.partition_point(|r| r.day < observer.next_day)..];
        if let Some(last) = closed.last() {
            observer.next_day = last.day + 1;
        }
        let settled = closed.iter().filter(|r| r.settlement.is_some()).count() as u64;
        let missed = closed.len() as u64 - settled;
        let bills = closed
            .iter()
            .filter_map(|r| r.settlement.as_ref())
            .map(|s| s.entries.len() as u64)
            .sum();
        let closed_days = closed.iter().map(|r| r.day).collect();
        // Counters flush lazily, so a delta can land a day late —
        // acceptable for windowed burn rates, and still deterministic.
        let counter = |name| observer.telemetry.counter(name).unwrap_or(0);
        let now = [
            counter("solve.rung.exact"),
            counter("solve.rung.local_search")
                + counter("solve.rung.greedy")
                + counter("solve.rung.as_reported")
                + counter("solve.degraded"),
            self.recoveries,
            self.recovery_errors.len() as u64,
        ];
        let [exact, degraded, recoveries, errors] =
            std::array::from_fn(|i| now[i].saturating_sub(observer.seen[i]));
        observer.seen = now;

        let monitor = &mut observer.monitor;
        let mut sample = |name, good, bad| monitor.record(name, SloSample { good, bad });
        sample("deadline_compliance", settled, missed);
        sample("at_most_one_bill", bills, 0);
        if exact + degraded > 0 {
            sample("exact_rung", exact, degraded);
        }
        if recoveries + errors > 0 {
            sample("recovery_latency", recoveries.saturating_sub(errors), errors);
        }
        self.transport.observe_day(monitor);
        let statuses = monitor.evaluate();
        if let Some(r) = self.hub.recorder.as_ref() {
            for status in &statuses {
                r.gauge(&format!("slo.{}.short_burn", status.name), status.short_burn);
                r.gauge(&format!("slo.{}.long_burn", status.name), status.long_burn);
            }
            if missed > 0 {
                let _ = r.postmortem(
                    "deadline_miss",
                    &[("day", FieldValue::U64(day)), ("missed", FieldValue::U64(missed))],
                );
            }
        }
        observer.day_health.push(DayHealth {
            day,
            statuses,
            closed_days,
            bills,
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::center::DayPlan;
    use crate::durable::JournalConfig;
    use crate::message::{Message, NodeId};
    use enki_core::config::EnkiConfig;
    use enki_core::household::HouseholdId;
    use enki_core::mechanism::Enki;
    use enki_core::validation::RawPreference;
    use enki_durable::prelude::{FaultPlan, FaultStorage};

    fn center(n: u32, seed: u64) -> CenterAgent {
        CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            seed,
        )
    }

    /// Runs `rt` for five days with the center down from tick 190 to 302:
    /// day 1 settles, then the center crashes before day 1 ends and stays
    /// down past the end of day 2. The evaluations during the outage must
    /// not rewind, and the one after recovery must feed only the days it has
    /// not seen. Shared by each transport's tests.
    pub(crate) fn assert_feeds_each_closed_day_once<T: Transport>(rt: Driver<T>, label: &str) {
        let telemetry = Telemetry::new(label, 5);
        let mut rt = rt
            .with_crashes(vec![CrashSchedule {
                crash_at: 190,
                recover_at: 302,
            }])
            .with_telemetry(&telemetry);
        rt.run_days(5);
        let days: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        assert_eq!(days, vec![0, 1, 2, 3], "{label}: the crash delayed day 2, lost none");
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
        assert_eq!(fed, days, "{label}: each closed day reaches the monitor once");
        assert_eq!(rt.day_health().iter().map(|h| h.bills).sum::<u64>(), bills);
    }

    /// A household end that sends the center one report every tick and
    /// keeps everything the driver hands it to carry.
    #[derive(Debug, Default)]
    struct Chatty {
        carried: Vec<Envelope>,
    }

    impl Transport for Chatty {
        fn deliver(&mut self, _now: Tick, _hub: &mut Hub, _outbox: &mut Vec<Envelope>) {}

        fn send(&mut self, _now: Tick, envelope: Envelope) {
            self.carried.push(envelope);
        }

        fn tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
            outbox.push(Envelope {
                from: NodeId::Household(HouseholdId::new(0)),
                to: NodeId::Center,
                message: Message::SubmitReport {
                    day: now,
                    preference: RawPreference::new(18.0, 22.0, 2.0),
                },
                trace: None,
            });
        }
    }

    #[test]
    fn both_builder_orders_export_the_same_durable_metrics() {
        let durable_metrics = |journal_first: bool| {
            let clock = VirtualClock::new();
            let telemetry = Telemetry::with_virtual_clock("builder-order", 3, Arc::clone(&clock));
            let (journal, _) =
                Journal::open(FaultStorage::new(FaultPlan::none()), JournalConfig::default())
                    .unwrap();
            let rt = Driver::assemble(center(3, 1), Chatty::default());
            let mut rt = if journal_first {
                rt.with_journal(journal).with_telemetry(&telemetry)
            } else {
                rt.with_telemetry(&telemetry).with_journal(journal)
            };
            rt.run_ticks(5);
            // Dropping the driver flushes every recorder it handed out.
            drop(rt);
            let mut metrics = telemetry.metrics();
            metrics.retain(|name, _| name.starts_with("durable."));
            metrics
        };
        let journal_first = durable_metrics(true);
        assert!(journal_first.contains_key("durable.records_written"), "{journal_first:?}");
        assert_eq!(durable_metrics(false), journal_first);
    }

    #[test]
    fn a_failed_journal_write_drops_only_the_centers_outputs() {
        let (mut journal, _) =
            Journal::open(FaultStorage::new(FaultPlan::none()), JournalConfig::default()).unwrap();
        journal.fault_storage_mut().unwrap().enter_crash();
        let mut rt = Driver::assemble(center(3, 1), Chatty::default()).with_journal(journal);
        // Tick 0 opens day 0: the commit fails, so its DayStart broadcast
        // never leaves, while the household's report of the tick does.
        rt.run_ticks(1);
        assert!(rt.is_down());
        assert_eq!(rt.recovery_errors().len(), 1, "{:?}", rt.recovery_errors());
        let carried: Vec<NodeId> = rt.transport.carried.iter().map(|e| e.from).collect();
        assert_eq!(carried, vec![NodeId::Household(HouseholdId::new(0))]);
        let originated = rt.trace().iter().filter(|e| e.kind == TraceKind::Originated);
        assert_eq!(originated.count(), 1);
    }
}
