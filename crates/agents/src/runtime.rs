//! Deterministic single-threaded runtime: a discrete-event loop driving
//! the center and household agents over the simulated network.
//!
//! Every tick: apply scheduled center crashes/recoveries, deliver due
//! messages (in deterministic queue order), then give the center and each
//! household (in roster order) a time step. All outbound messages go
//! through the [`SimNetwork`], so loss, latency, and injected faults
//! apply uniformly. Runs are exactly reproducible for a given seed.
//!
//! With [`Runtime::with_trace`], every originated and delivered envelope
//! is logged as a [`TraceEvent`] — the input the
//! [`oracle`](crate::oracle) checks protocol invariants against.
//!
//! With [`Runtime::with_telemetry`], the run emits structured telemetry:
//! one `day` span per protocol day, `runtime.*` counters, and (after
//! [`Runtime::run_days`]) `net.*` gauges exporting the network's
//! delivery and fault-injection statistics. Pair it with
//! [`Runtime::with_virtual_clock`] to advance a shared
//! [`VirtualClock`] by a fixed step each tick, making the exported
//! span tree byte-reproducible for a given seed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use enki_core::household::HouseholdId;
use enki_telemetry::{
    FieldValue, Recorder, SloMonitor, SloSample, SloStatus, Telemetry, VirtualClock,
};
use serde::{Deserialize, Serialize};

use crate::center::{CenterAgent, DayRecord};
use crate::household::HouseholdAgent;
use crate::message::{Envelope, NodeId, Tick};
use crate::network::{NetworkStats, SimNetwork};

/// A scheduled center crash: the process dies at `crash_at` and restarts
/// (restoring from its durable checkpoint) at `recover_at`. Messages
/// addressed to the center while it is down are lost.
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

/// One day's SLO health summary: every standard objective's burn-rate
/// status as evaluated at the end of that protocol day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayHealth {
    /// The day the summary covers.
    pub day: u64,
    /// Burn-rate status per configured SLO.
    pub statuses: Vec<SloStatus>,
    /// The closed days whose records this evaluation fed to the
    /// monitor, in order. Each closed day is fed exactly once, in the
    /// first evaluation after its record commits.
    pub closed_days: Vec<u64>,
    /// Bills those closed days settled.
    pub bills: u64,
}

/// What the settled-day ledger feeds one SLO evaluation.
#[derive(Debug)]
pub(crate) struct ClosedDays {
    pub(crate) days: Vec<u64>,
    pub(crate) settled: u64,
    pub(crate) missed: u64,
    pub(crate) bills: u64,
}

impl ClosedDays {
    /// Takes the records of days at or after `*next_day` and moves
    /// `*next_day` past them. Days are found by number, not by ledger
    /// position, so neither a crash nor a journal rollback that
    /// shortens the ledger can feed a day to the monitor twice.
    pub(crate) fn since(records: &[DayRecord], next_day: &mut u64) -> Self {
        let fresh = &records[records.partition_point(|r| r.day < *next_day)..];
        if let Some(last) = fresh.last() {
            *next_day = last.day + 1;
        }
        let settled = fresh.iter().filter(|r| r.settlement.is_some()).count() as u64;
        Self {
            days: fresh.iter().map(|r| r.day).collect(),
            settled,
            missed: fresh.len() as u64 - settled,
            bills: fresh
                .iter()
                .filter_map(|r| r.settlement.as_ref())
                .map(|s| s.entries.len() as u64)
                .sum(),
        }
    }
}

/// The simulation runtime: one center, many households, one network.
#[derive(Debug)]
pub struct Runtime {
    network: SimNetwork,
    center: CenterAgent,
    households: Vec<HouseholdAgent>,
    now: Tick,
    crashes: Vec<CrashSchedule>,
    trace: Option<Vec<TraceEvent>>,
    telemetry: Option<Telemetry>,
    recorder: Option<Recorder>,
    tick_clock: Option<(Arc<VirtualClock>, Duration)>,
    slo: Option<SloMonitor>,
    /// The first day the SLO monitor has not been fed yet.
    slo_next_day: u64,
    slo_counters: BTreeMap<String, u64>,
    day_health: Vec<DayHealth>,
}

impl Runtime {
    /// Assembles a runtime.
    #[must_use]
    pub fn new(
        network: SimNetwork,
        center: CenterAgent,
        households: Vec<HouseholdAgent>,
    ) -> Self {
        Self {
            network,
            center,
            households,
            now: 0,
            crashes: Vec::new(),
            trace: None,
            telemetry: None,
            recorder: None,
            tick_clock: None,
            slo: None,
            slo_next_day: 0,
            slo_counters: BTreeMap::new(),
            day_health: Vec::new(),
        }
    }

    /// Schedules center crashes. Each schedule must satisfy
    /// `crash_at < recover_at`; schedules must not overlap.
    ///
    /// # Panics
    ///
    /// Panics if a schedule is inverted.
    #[must_use]
    pub fn with_center_crashes(mut self, crashes: Vec<CrashSchedule>) -> Self {
        assert!(
            crashes.iter().all(|c| c.crash_at < c.recover_at),
            "crash schedules must recover after they crash"
        );
        self.crashes = crashes;
        self
    }

    /// Enables the protocol event log consumed by the
    /// [`oracle`](crate::oracle).
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Attaches a telemetry sink. The runtime emits one `day` span per
    /// protocol day plus `runtime.*` counters, and the center agent
    /// records its admission, allocation, and settlement metrics into
    /// the same sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.recorder = Some(telemetry.recorder());
        self.center.set_recorder(telemetry.recorder());
        // The run seed doubles as the trace seed: every agent derives
        // the same deterministic causal ids from it, so cross-agent
        // parent links line up without any id allocation on the wire.
        let seed = telemetry.meta().seed;
        self.center.set_trace_seed(seed);
        for household in &mut self.households {
            household.set_trace_seed(seed);
        }
        self.slo = Some(SloMonitor::standard());
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// Drives a shared [`VirtualClock`] forward by `per_tick` after every
    /// simulation step. With the same clock injected into the telemetry
    /// sink, all span timestamps become a pure function of the tick
    /// count, so two runs with the same seed export identical traces.
    #[must_use]
    pub fn with_virtual_clock(mut self, clock: Arc<VirtualClock>, per_tick: Duration) -> Self {
        self.tick_clock = Some((clock, per_tick));
        self
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

    /// The center agent (e.g. to inspect its checkpoint).
    #[must_use]
    pub fn center(&self) -> &CenterAgent {
        &self.center
    }

    /// Network delivery counters.
    #[must_use]
    pub fn network_stats(&self) -> NetworkStats {
        self.network.stats()
    }

    /// Messages currently queued in the network, for conservation
    /// checks against [`NetworkStats::conserves`].
    #[must_use]
    pub fn network_in_flight(&self) -> u64 {
        self.network.in_flight()
    }

    /// The logged protocol events, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// The household agent with the given id, if present.
    #[must_use]
    pub fn household(&self, id: HouseholdId) -> Option<&HouseholdAgent> {
        self.households.iter().find(|h| h.id() == id)
    }

    /// All household agents.
    #[must_use]
    pub fn households(&self) -> &[HouseholdAgent] {
        &self.households
    }

    /// Mutable access to a household agent, e.g. to inject a fault
    /// (such as a raw-report override) mid-run.
    pub fn household_mut(&mut self, id: HouseholdId) -> Option<&mut HouseholdAgent> {
        self.households.iter_mut().find(|h| h.id() == id)
    }

    /// Runs `ticks` simulation steps.
    pub fn run_ticks(&mut self, ticks: Tick) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// Runs whole protocol days of the given length. With telemetry
    /// attached, each day runs inside a `day` span and the network's
    /// cumulative statistics are exported as `net.*` gauges afterwards.
    pub fn run_days(&mut self, days: u64, day_length: Tick) {
        // A local recorder scopes the day spans without borrowing `self`
        // across the tick loop; it flushes into the shared sink on drop.
        let recorder = self.telemetry.as_ref().map(Telemetry::recorder);
        for _ in 0..days {
            let day = self.now / day_length.max(1);
            let span = recorder.as_ref().map(|r| {
                let mut s = r.span("day");
                s.record("day", day);
                s
            });
            self.run_ticks(day_length);
            drop(span);
            self.observe_day_slo(day);
        }
        drop(recorder);
        self.publish_network_stats();
    }

    /// SLO health summaries, one per completed day of
    /// [`run_days`](Self::run_days) with telemetry attached.
    #[must_use]
    pub fn day_health(&self) -> &[DayHealth] {
        &self.day_health
    }

    /// Reads the named counter and returns its increase since the last
    /// call (counters flush lazily, so a delta can land a day late —
    /// acceptable for windowed burn rates, and still deterministic).
    fn counter_delta(&mut self, name: &str) -> u64 {
        let now = self
            .telemetry
            .as_ref()
            .and_then(|t| t.counter(name))
            .unwrap_or(0);
        let before = self.slo_counters.insert(name.to_string(), now).unwrap_or(0);
        now.saturating_sub(before)
    }

    /// Feeds the day's outcomes to the SLO monitor, evaluates burn
    /// rates, exports them as `slo.*` gauges, and records the day's
    /// health summary. A day that closed without settlement counts as a
    /// deadline miss and dumps the flight recorder.
    fn observe_day_slo(&mut self, day: u64) {
        if self.slo.is_none() {
            return;
        }
        // Settlement outcomes come straight from the center's records —
        // the protocol's ground truth, immune to counter-flush lag.
        let closed = ClosedDays::since(self.center.records(), &mut self.slo_next_day);
        let exact = self.counter_delta("solve.rung.exact");
        let degraded = self.counter_delta("solve.rung.local_search")
            + self.counter_delta("solve.rung.greedy")
            + self.counter_delta("solve.rung.as_reported")
            + self.counter_delta("solve.degraded");
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
        if exact + degraded > 0 {
            monitor.record(
                "exact_rung",
                SloSample {
                    good: exact,
                    bad: degraded,
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

    /// Exports the network's cumulative delivery and fault-injection
    /// counters as `net.*` gauges. Called automatically at the end of
    /// [`run_days`](Self::run_days); call it directly after a bare
    /// [`run_ticks`](Self::run_ticks) loop if needed.
    pub fn publish_network_stats(&self) {
        let Some(r) = self.recorder.as_ref() else {
            return;
        };
        let stats = self.network.stats();
        let pairs: [(&str, u64); 11] = [
            ("net.sent", stats.sent),
            ("net.delivered", stats.delivered),
            ("net.dropped", stats.dropped),
            ("net.duplicated", stats.duplicated),
            ("net.partitioned", stats.partitioned),
            ("net.outage_dropped", stats.outage_dropped),
            ("net.partitions_scheduled", stats.partitions_scheduled),
            ("net.partitions_applied", stats.partitions_applied),
            ("net.outages_scheduled", stats.outages_scheduled),
            ("net.outages_applied", stats.outages_applied),
            ("net.in_flight", self.network.in_flight()),
        ];
        for (name, value) in pairs {
            #[expect(
                clippy::cast_precision_loss,
                reason = "network counters stay far below 2^52, where f64 is exact"
            )]
            r.gauge(name, value as f64);
        }
    }

    fn record(&mut self, at: Tick, kind: TraceKind, envelope: Envelope) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent { at, kind, envelope });
        }
    }

    fn step(&mut self) {
        let now = self.now;

        // Apply scheduled crashes and recoveries first, so a crash at
        // tick t loses everything due at t, and a recovery at tick t
        // sees everything due at t.
        for i in 0..self.crashes.len() {
            let c = self.crashes[i];
            if c.crash_at == now {
                self.center.crash();
            }
            if c.recover_at == now {
                self.center.recover();
            }
        }

        let mut outbox: Vec<Envelope> = Vec::new();

        // Deliver everything due this tick.
        for envelope in self.network.due(now) {
            match envelope.to {
                NodeId::Center => {
                    if self.center.is_down() {
                        if let Some(r) = self.recorder.as_ref() {
                            r.incr("runtime.lost_center_down", 1);
                        }
                        self.record(now, TraceKind::LostCenterDown, envelope);
                        continue;
                    }
                    self.record(now, TraceKind::Delivered, envelope);
                    self.center
                        .on_message(now, envelope.from, envelope.message, &mut outbox);
                }
                NodeId::Household(id) => {
                    if self.households.iter().any(|h| h.id() == id) {
                        self.record(now, TraceKind::Delivered, envelope);
                    }
                    if let Some(agent) =
                        self.households.iter_mut().find(|h| h.id() == id)
                    {
                        agent.on_message(now, envelope.from, envelope.message, &mut outbox);
                    }
                }
            }
        }

        // Time steps: center first, then households in roster order.
        if !self.center.is_down() {
            self.center.on_tick(now, &mut outbox);
        }
        for agent in &mut self.households {
            agent.on_tick(now, &mut outbox);
        }

        for envelope in outbox {
            self.record(now, TraceKind::Originated, envelope);
            self.network.send(now, envelope);
        }
        if let Some(r) = self.recorder.as_ref() {
            r.incr("runtime.ticks", 1);
        }
        if let Some((clock, per_tick)) = self.tick_clock.as_ref() {
            clock.advance(*per_tick);
        }
        self.now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::DayPlan;
    use crate::household::ReportSource;
    use crate::network::{FaultPlan, NetworkConfig, Partition};
    use enki_core::config::EnkiConfig;
    use enki_core::mechanism::Enki;
    use enki_sim::behavior::ReportStrategy;
    use enki_sim::neighborhood::TruthSource;
    use enki_sim::profile::{ProfileConfig, UsageProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: u32, network: NetworkConfig, seed: u64) -> Runtime {
        build_with_faults(n, network, FaultPlan::default(), seed)
    }

    fn build_with_faults(
        n: u32,
        network: NetworkConfig,
        faults: FaultPlan,
        seed: u64,
    ) -> Runtime {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProfileConfig::default();
        let households: Vec<HouseholdAgent> = (0..n)
            .map(|i| {
                HouseholdAgent::new(
                    HouseholdId::new(i),
                    UsageProfile::generate(&mut rng, &config),
                    TruthSource::Wide,
                    ReportStrategy::TruthfulWide,
                    ReportSource::Strategy,
                )
            })
            .collect();
        let center = CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            seed,
        );
        Runtime::new(
            SimNetwork::new(network, seed).with_faults(faults),
            center,
            households,
        )
    }

    #[test]
    fn reliable_network_settles_every_household() {
        let mut rt = build(8, NetworkConfig::default(), 1);
        rt.run_days(1, 100);
        let records = rt.records();
        assert_eq!(records.len(), 1);
        let record = &records[0];
        assert_eq!(record.participants.len(), 8);
        assert!(record.missing_reports.is_empty());
        assert!(record.missing_readings.is_empty());
        let st = record.settlement.as_ref().unwrap();
        assert!(st.center_utility >= 0.0);
        // Truthful-wide households follow their allocations.
        assert!(st.entries.iter().all(|e| !e.defected));
        // Every household received its bill.
        for i in 0..8u32 {
            let agent = rt.household(HouseholdId::new(i)).unwrap();
            assert_eq!(agent.bills().len(), 1);
        }
    }

    #[test]
    fn bills_match_settlement_payments() {
        let mut rt = build(5, NetworkConfig::default(), 2);
        rt.run_days(1, 100);
        let st = rt.records()[0].settlement.clone().unwrap();
        for entry in &st.entries {
            let agent = rt.household(entry.household).unwrap();
            let (_, amount) = agent.bills()[0];
            assert!((amount - entry.payment).abs() < 1e-12);
        }
    }

    #[test]
    fn lossy_network_with_retries_still_settles() {
        let mut rt = build(10, NetworkConfig::lossy(0.3), 3);
        rt.run_days(3, 100);
        let records = rt.records();
        assert_eq!(records.len(), 3);
        for record in records {
            // Retries push reports through a 30%-loss link well before the
            // deadline; every day settles with full participation.
            assert_eq!(
                record.participants.len() + record.missing_reports.len(),
                10
            );
            assert!(
                record.participants.len() >= 9,
                "day {}: only {} participants",
                record.day,
                record.participants.len()
            );
            if let Some(st) = &record.settlement {
                assert!(st.center_utility >= -1e-9);
            }
        }
        assert!(rt.network_stats().dropped > 0, "loss was actually injected");
    }

    #[test]
    fn multi_day_run_feeds_the_ecc() {
        let mut rt = build(4, NetworkConfig::default(), 4);
        rt.run_days(5, 100);
        for i in 0..4u32 {
            let agent = rt.household(HouseholdId::new(i)).unwrap();
            assert_eq!(agent.ecc().days_observed(), 5);
            assert_eq!(agent.bills().len(), 5);
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed: u64| -> Vec<f64> {
            let mut rt = build(6, NetworkConfig::lossy(0.2), seed);
            rt.run_days(2, 100);
            rt.records()
                .iter()
                .filter_map(|r| r.settlement.as_ref())
                .flat_map(|s| s.entries.iter().map(|e| e.payment))
                .collect()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn ecc_driven_reports_settle_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = ProfileConfig::default();
        let households: Vec<HouseholdAgent> = (0..4u32)
            .map(|i| {
                HouseholdAgent::new(
                    HouseholdId::new(i),
                    UsageProfile::generate(&mut rng, &config),
                    TruthSource::Narrow,
                    ReportStrategy::TruthfulNarrow,
                    ReportSource::Ecc { margin: 2 },
                )
            })
            .collect();
        let center = CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..4).map(HouseholdId::new).collect(),
            DayPlan::default(),
            5,
        );
        let mut rt = Runtime::new(
            SimNetwork::new(NetworkConfig::default(), 5),
            center,
            households,
        );
        rt.run_days(4, 100);
        assert_eq!(rt.records().len(), 4);
        for record in rt.records() {
            assert_eq!(record.participants.len(), 4);
        }
    }

    #[test]
    fn totally_partitioned_household_is_excluded_but_day_settles() {
        // Drop everything: no reports ever arrive, and each day closes
        // with an empty record instead of wedging the protocol.
        let mut rt = build(3, NetworkConfig::lossy(1.0), 6);
        rt.run_days(2, 100);
        assert_eq!(rt.records().len(), 2);
        for record in rt.records() {
            assert!(record.settlement.is_none());
            assert_eq!(record.missing_reports.len(), 3);
        }
    }

    #[test]
    fn report_phase_partition_excludes_household_but_day_settles() {
        // Household 2 is cut off for the whole report phase (and then
        // some) of day 0; the other households settle without it.
        let faults = FaultPlan {
            partitions: vec![Partition {
                household: HouseholdId::new(2),
                from: 0,
                heals_at: 45,
            }],
            ..FaultPlan::default()
        };
        let mut rt = build_with_faults(4, NetworkConfig::lossy(0.2), faults, 8);
        rt.run_days(2, 100);
        let records = rt.records();
        assert_eq!(records.len(), 2);
        let day0 = &records[0];
        assert!(day0.missing_reports.contains(&HouseholdId::new(2)));
        assert_eq!(day0.participants.len(), 3);
        let st = day0.settlement.as_ref().unwrap();
        assert!(st.center_utility >= -1e-9);
        // Day 1: the partition healed, everyone participates again.
        assert_eq!(records[1].participants.len(), 4);
    }

    #[test]
    fn meter_phase_partition_settles_household_as_cooperative() {
        // Household 1 reports fine but is cut off for the whole meter
        // phase of day 0: its reading is lost, so it settles cooperative
        // (never as a phantom defection) and is still billed on paper.
        let faults = FaultPlan {
            partitions: vec![Partition {
                household: HouseholdId::new(1),
                from: 30,
                heals_at: 75,
            }],
            ..FaultPlan::default()
        };
        let mut rt = build_with_faults(4, NetworkConfig::lossy(0.1), faults, 9);
        rt.run_days(1, 100);
        let record = &rt.records()[0];
        assert!(record.participants.contains(&HouseholdId::new(1)));
        assert!(record.missing_readings.contains(&HouseholdId::new(1)));
        let st = record.settlement.as_ref().unwrap();
        let entry = st
            .entries
            .iter()
            .find(|e| e.household == HouseholdId::new(1))
            .unwrap();
        assert!(!entry.defected, "a lost reading is not a defection");
        assert!(st.center_utility >= -1e-9);
    }

    #[test]
    fn center_crash_mid_day_recovers_and_still_settles() {
        let mut rt = build(5, NetworkConfig::default(), 10).with_center_crashes(vec![
            CrashSchedule {
                crash_at: 40,
                recover_at: 50,
            },
        ]);
        rt.run_days(1, 100);
        let records = rt.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].participants.len(), 5);
        assert!(records[0].settlement.is_some());
        // Readings lost while the center was down were re-sent by the
        // household retry loop before the meter deadline.
        assert!(records[0].missing_readings.is_empty());
    }

    #[test]
    fn slo_monitor_sees_each_closed_day_once_across_a_crash() {
        // Day 1 settles, then the center crashes before day 1 ends and
        // stays down past the end of day 2. The evaluations during the
        // outage must not rewind, and the one after recovery must feed
        // only the days it has not seen.
        let telemetry = enki_telemetry::Telemetry::new("slo-crash", 5);
        let mut rt = build(4, NetworkConfig::default(), 5)
            .with_center_crashes(vec![CrashSchedule {
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
    fn telemetry_run_exports_a_deterministic_validating_trace() {
        use enki_telemetry::{to_jsonl, validate_jsonl, FieldValue, Telemetry, VirtualClock};
        let run = |seed: u64| -> (String, Telemetry) {
            let clock = VirtualClock::new();
            let telemetry =
                Telemetry::with_virtual_clock("runtime-test", seed, Arc::clone(&clock));
            let mut rt = build(4, NetworkConfig::lossy(0.2), seed)
                .with_telemetry(&telemetry)
                .with_virtual_clock(clock, Duration::from_millis(1));
            rt.run_days(2, 100);
            drop(rt); // flush the runtime's and the center's recorders
            (to_jsonl(&telemetry), telemetry)
        };
        let (a, telemetry) = run(33);
        let (b, _) = run(33);
        assert_eq!(a, b, "same seed must replay byte-identically");
        let (c, _) = run(34);
        assert_ne!(a, c, "a different seed changes the trace");

        let summary = validate_jsonl(&a).expect("trace passes schema self-validation");
        assert!(summary.spans >= 2, "two day spans expected");
        assert!(summary.gauges >= 11, "net.* gauges exported");

        let spans = telemetry.spans();
        let days: Vec<&enki_telemetry::SpanRecord> =
            spans.iter().filter(|s| s.name == "day").collect();
        assert_eq!(days.len(), 2);
        assert_eq!(days[0].fields[0], ("day".to_string(), FieldValue::U64(0)));
        assert_eq!(days[1].fields[0], ("day".to_string(), FieldValue::U64(1)));
        // Each day span covers exactly 100 ticks of 1 ms virtual time.
        for day in days {
            assert_eq!(day.end_ns - day.start_ns, 100_000_000);
        }

        assert_eq!(telemetry.counter("runtime.ticks"), Some(200));
        assert_eq!(telemetry.counter("center.day.started"), Some(2));
        assert_eq!(telemetry.counter("center.day.settled"), Some(2));
        let sent = telemetry.gauge("net.sent").expect("net.sent gauge");
        assert!(sent > 0.0);
    }

    #[test]
    fn trace_logs_origins_and_deliveries() {
        let mut rt = build(2, NetworkConfig::default(), 11).with_trace();
        rt.run_days(1, 100);
        let trace = rt.trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Originated)));
        assert!(trace.iter().any(|e| matches!(e.kind, TraceKind::Delivered)));
        // On a reliable network with no crash, nothing is lost.
        assert!(!trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LostCenterDown)));
    }
}
