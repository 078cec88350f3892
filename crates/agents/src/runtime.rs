//! The simulated LAN transport: every envelope crosses a seeded
//! [`SimNetwork`], so loss, latency and injected faults apply uniformly.
//!
//! [`Runtime`] is the [`Driver`] over this LAN with in-process
//! household agents. [`Lan`] is generic over where its agents run
//! ([`Households`]), so the [threaded deployment](crate::threaded)
//! reuses this delivery code. With telemetry, a run ends by exporting
//! the network's statistics as `net.*` gauges.

use enki_core::household::HouseholdId;
use enki_telemetry::{Recorder, Telemetry};

use crate::center::CenterAgent;
use crate::driver::{Driver, Hub, TraceKind, Transport};
use crate::household::HouseholdAgent;
use crate::message::{Envelope, NodeId, Tick};
use crate::network::{NetworkStats, SimNetwork};

/// The household end of a [`Lan`]: the agents' three calls.
pub trait Households {
    /// Hands `envelope` to the household it is addressed to. Returns
    /// `false`, dropping the envelope, when no live household has its id.
    fn deliver(&mut self, now: Tick, envelope: Envelope, outbox: &mut Vec<Envelope>) -> bool;

    /// Gives every live household its time step, in roster order.
    fn tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>);

    /// Sets the seed the agents derive their causal trace ids from.
    fn set_trace_seed(&mut self, seed: u64);
}

impl Households for Vec<HouseholdAgent> {
    fn deliver(&mut self, now: Tick, envelope: Envelope, outbox: &mut Vec<Envelope>) -> bool {
        let Some(agent) = self.iter_mut().find(|h| h.node_id() == envelope.to) else {
            return false;
        };
        agent.on_message(now, envelope.from, envelope.message, outbox);
        true
    }

    fn tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        for agent in self {
            agent.on_tick(now, outbox);
        }
    }

    fn set_trace_seed(&mut self, seed: u64) {
        for agent in self {
            agent.set_trace_seed(seed);
        }
    }
}

/// A simulated LAN between the center and its households.
#[derive(Debug)]
pub struct Lan<H> {
    pub(crate) network: SimNetwork,
    pub(crate) households: H,
}

impl<H: Households> Transport for Lan<H> {
    fn deliver(&mut self, now: Tick, hub: &mut Hub, outbox: &mut Vec<Envelope>) {
        // Everything due this tick, in deterministic queue order.
        for envelope in self.network.due(now) {
            if envelope.to == NodeId::Center {
                hub.deliver(now, envelope, outbox);
            } else if self.households.deliver(now, envelope, outbox) {
                hub.record(now, TraceKind::Delivered, envelope);
            }
        }
    }

    fn send(&mut self, now: Tick, envelope: Envelope) {
        self.network.send(now, envelope);
    }

    fn tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        self.households.tick(now, outbox);
    }

    fn attach(&mut self, telemetry: &Telemetry) {
        // The run seed doubles as the trace seed, so both ends of the
        // wire derive the same causal ids.
        self.households.set_trace_seed(telemetry.meta().seed);
    }

    #[expect(
        clippy::cast_precision_loss,
        reason = "network counters stay far below 2^52, where f64 is exact"
    )]
    fn publish(&self, r: &Recorder) {
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
            r.gauge(name, value as f64);
        }
    }
}

/// The simulation runtime: one center, many in-process households, one
/// simulated network.
pub type Runtime = Driver<Lan<Vec<HouseholdAgent>>>;

impl Runtime {
    /// Assembles a runtime.
    #[must_use]
    pub fn new(network: SimNetwork, center: CenterAgent, households: Vec<HouseholdAgent>) -> Self {
        Self::assemble(
            center,
            Lan {
                network,
                households,
            },
        )
    }

    /// Network delivery counters.
    #[must_use]
    pub fn network_stats(&self) -> NetworkStats {
        self.transport.network.stats()
    }

    /// Messages currently queued in the network, for conservation
    /// checks against [`NetworkStats::conserves`].
    #[must_use]
    pub fn network_in_flight(&self) -> u64 {
        self.transport.network.in_flight()
    }

    /// The household agent with the given id, if present.
    #[must_use]
    pub fn household(&self, id: HouseholdId) -> Option<&HouseholdAgent> {
        self.households().iter().find(|h| h.id() == id)
    }

    /// All household agents.
    #[must_use]
    pub fn households(&self) -> &[HouseholdAgent] {
        &self.transport.households
    }

    /// Mutable access to a household agent, e.g. to inject a fault
    /// mid-run.
    pub fn household_mut(&mut self, id: HouseholdId) -> Option<&mut HouseholdAgent> {
        self.transport
            .households
            .iter_mut()
            .find(|h| h.id() == id)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::center::DayPlan;
    use crate::driver::tests::assert_feeds_each_closed_day_once;
    use crate::driver::CrashSchedule;
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
        rt.run_days(1);
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
        rt.run_days(1);
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
        rt.run_days(3);
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
        rt.run_days(5);
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
            rt.run_days(2);
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
        rt.run_days(4);
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
        rt.run_days(2);
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
        rt.run_days(2);
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
        rt.run_days(1);
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
        let mut rt = build(5, NetworkConfig::default(), 10).with_crashes(vec![
            CrashSchedule {
                crash_at: 40,
                recover_at: 50,
            },
        ]);
        rt.run_days(1);
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
        assert_feeds_each_closed_day_once(build(4, NetworkConfig::default(), 5), "slo-crash");
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
                .with_virtual_clock(clock);
            rt.run_days(2);
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
        let mut rt = build(2, NetworkConfig::default(), 11);
        rt.run_days(1);
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
