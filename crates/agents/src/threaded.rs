//! The threaded deployment: each [`HouseholdAgent`] on its own OS
//! thread, the [`CenterAgent`] on the caller's, on the one [`Driver`].
//!
//! The transport is the simulated LAN ([`Lan`]) over a reliable
//! [`NetworkConfig::default()`] link; only the agents' calls cross to
//! the threads. The driver runs in lockstep: each tick every household
//! thread gets the envelopes due to it and then its tick, and outboxes
//! merge in delivery and roster order. Nothing depends on thread
//! scheduling, so a threaded run settles the same records and bills as
//! a [`Runtime`](crate::runtime::Runtime) over the same agents and seed.
//!
//! A thread that disconnects ([`ThreadedFault`]) or misses `timeout` on
//! any call is dead for the rest of the run, like a household the
//! network can no longer reach.

use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use enki_telemetry::Telemetry;

use crate::center::{CenterAgent, DayRecord};
use crate::driver::Driver;
use crate::household::HouseholdAgent;
use crate::message::{Envelope, Message, NodeId, Tick};
use crate::network::{NetworkConfig, SimNetwork};
use crate::runtime::{Households, Lan};

/// An injected failure mode for one threaded household.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadedFault {
    /// Healthy: answers every call.
    #[default]
    None,
    /// Down for the whole run: answers nothing, as if the ECC process
    /// never started.
    Silent,
    /// Crashes right after its first report leaves: never consumes,
    /// never sends a meter reading, never records a bill.
    CrashAfterReport,
}

/// One threaded household: its agent and its injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedHousehold {
    /// The agent the thread runs.
    pub agent: HouseholdAgent,
    /// Injected failure mode.
    pub fault: ThreadedFault,
}

/// An agent call crossing to a household thread.
#[derive(Debug, Clone, Copy)]
enum Call {
    Seed(u64),
    Deliver(Tick, Envelope),
    Tick(Tick),
}

/// The driver's end of one household thread; `calls` is `None` once it
/// is dead.
#[derive(Debug)]
struct Worker {
    node: NodeId,
    calls: Option<Sender<Call>>,
    replies: Receiver<Vec<Envelope>>,
    timeout: Duration,
}

impl Worker {
    /// Sends a call; a disconnected thread is dead.
    fn call(&mut self, call: Call) {
        if self.calls.as_ref().is_some_and(|tx| tx.send(call).is_err()) {
            self.calls = None;
        }
    }

    /// Collects the thread's outbox for its last call; `false`, with the
    /// thread dead, when it disconnected or missed the timeout.
    fn reply(&mut self, outbox: &mut Vec<Envelope>) -> bool {
        if self.calls.is_none() {
            return false;
        }
        match self.replies.recv_timeout(self.timeout) {
            Ok(sent) => {
                outbox.extend(sent);
                true
            }
            Err(_) => {
                self.calls = None;
                false
            }
        }
    }
}

/// Sends `call` to every thread at once, then merges their outboxes in
/// roster order.
fn broadcast(workers: &mut [Worker], call: Call, outbox: &mut Vec<Envelope>) {
    for worker in workers.iter_mut() {
        worker.call(call);
    }
    for worker in workers {
        worker.reply(outbox);
    }
}

impl Households for Vec<Worker> {
    fn deliver(&mut self, now: Tick, envelope: Envelope, outbox: &mut Vec<Envelope>) -> bool {
        let Some(worker) = self.iter_mut().find(|w| w.node == envelope.to) else {
            return false;
        };
        worker.call(Call::Deliver(now, envelope));
        worker.reply(outbox)
    }

    fn tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        broadcast(self, Call::Tick(now), outbox);
    }

    fn set_trace_seed(&mut self, seed: u64) {
        broadcast(self, Call::Seed(seed), &mut Vec::new());
    }
}

/// A household thread's loop: answer every call with the agent's
/// outbox until the driver hangs up or the injected fault strikes, then
/// hand the agent back.
fn serve_household(
    mut agent: HouseholdAgent,
    fault: ThreadedFault,
    calls: &Receiver<Call>,
    replies: &Sender<Vec<Envelope>>,
) -> HouseholdAgent {
    if fault == ThreadedFault::Silent {
        return agent; // the ECC process never came up
    }
    while let Ok(call) = calls.recv() {
        let mut outbox = Vec::new();
        match call {
            Call::Seed(seed) => agent.set_trace_seed(seed),
            Call::Deliver(now, envelope) => {
                agent.on_message(now, envelope.from, envelope.message, &mut outbox);
            }
            Call::Tick(now) => agent.on_tick(now, &mut outbox),
        }
        let reported = outbox
            .iter()
            .any(|e| matches!(e.message, Message::SubmitReport { .. }));
        if replies.send(outbox).is_err()
            || (reported && fault == ThreadedFault::CrashAfterReport)
        {
            break; // hung up, or died between reporting and consuming
        }
    }
    agent
}

/// Runs `days` protocol days of `center` (refining through
/// [`CenterAgent::with_pipeline`] if set) with one OS thread per
/// household, optionally traced into `telemetry`. A household thread
/// that misses `timeout` on any call is dead for the rest of the run.
///
/// Returns the center's records and the household agents as their
/// threads left them, in the order given; each holds its bills by day.
///
/// # Errors
///
/// Returns [`enki_core::Error::EmptyNeighborhood`] for an empty roster.
#[must_use = "dropping the outcome discards every simulated day"]
#[expect(
    clippy::disallowed_methods,
    reason = "threaded.rs is the deployment entry point that runs households on OS threads"
)]
pub fn run_threaded_days(
    center: CenterAgent,
    households: Vec<ThreadedHousehold>,
    days: u64,
    timeout: Duration,
    telemetry: Option<&Telemetry>,
) -> enki_core::Result<(Vec<DayRecord>, Vec<HouseholdAgent>)> {
    if households.is_empty() {
        return Err(enki_core::Error::EmptyNeighborhood);
    }
    Ok(thread::scope(|scope| {
        let mut workers = Vec::new();
        let mut handles = Vec::new();
        for household in households {
            let (to_thread, calls) = unbounded();
            let (replies, from_thread) = unbounded();
            workers.push(Worker {
                node: household.agent.node_id(),
                calls: Some(to_thread),
                replies: from_thread,
                timeout,
            });
            handles.push(scope.spawn(move || {
                serve_household(household.agent, household.fault, &calls, &replies)
            }));
        }
        let lan = Lan {
            network: SimNetwork::new(NetworkConfig::default(), 0),
            households: workers,
        };
        let mut driver = Driver::assemble(center, lan);
        if let Some(telemetry) = telemetry {
            driver = driver.with_telemetry(telemetry);
        }
        driver.run_days(days);
        let records = driver.records().to_vec();
        drop(driver); // hang up: household threads leave their loops
        let agents = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        (records, agents)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{DayPlan, PipelineConfig};
    use crate::household::ReportSource;
    use crate::runtime::Runtime;
    use enki_core::config::EnkiConfig;
    use enki_core::household::{HouseholdId, Preference, Report};
    use enki_core::mechanism::{Enki, Settlement};
    use enki_core::time::Interval;
    use enki_sim::behavior::ReportStrategy;
    use enki_sim::neighborhood::TruthSource;
    use enki_sim::profile::{ProfileConfig, UsageProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn profiles(n: u32, seed: u64) -> Vec<UsageProfile> {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProfileConfig::default();
        (0..n)
            .map(|_| UsageProfile::generate(&mut rng, &config))
            .collect()
    }

    fn households(n: u32, seed: u64) -> Vec<ThreadedHousehold> {
        (0..n)
            .zip(profiles(n, seed))
            .map(|(i, profile)| ThreadedHousehold {
                agent: HouseholdAgent::new(
                    HouseholdId::new(i),
                    profile,
                    TruthSource::Wide,
                    ReportStrategy::TruthfulWide,
                    ReportSource::Strategy,
                ),
                fault: ThreadedFault::None,
            })
            .collect()
    }

    fn center(n: u32, seed: u64) -> CenterAgent {
        CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            seed,
        )
    }

    fn run(
        households: Vec<ThreadedHousehold>,
        days: u64,
        seed: u64,
    ) -> (Vec<DayRecord>, Vec<HouseholdAgent>) {
        let n = u32::try_from(households.len()).unwrap();
        run_threaded_days(center(n, seed), households, days, TIMEOUT, None).unwrap()
    }

    fn settlement(record: &DayRecord) -> &Settlement {
        record.settlement.as_ref().expect("the day settled")
    }

    /// The `(household, amount)` bills the agents recorded for `day`.
    fn bills(agents: &[HouseholdAgent], day: u64) -> Vec<(HouseholdId, f64)> {
        agents
            .iter()
            .flat_map(|a| {
                a.bills()
                    .iter()
                    .filter(move |&&(d, _)| d == day)
                    .map(move |&(_, amount)| (a.id(), amount))
            })
            .collect()
    }

    #[test]
    fn threaded_day_settles_and_balances() {
        let (records, _) = run(households(6, 1), 1, 1);
        assert_eq!(records.len(), 1);
        let st = settlement(&records[0]);
        assert_eq!(st.entries.len(), 6);
        assert!(st.center_utility >= 0.0);
        assert!(st.entries.iter().all(|e| !e.defected));
        assert!(records[0].missing_reports.is_empty());
        assert!(records[0].missing_readings.is_empty());
    }

    #[test]
    fn threaded_outcome_matches_direct_mechanism() {
        // Same seed, same reports ⇒ the threaded settlement equals a
        // direct (single-threaded) invocation of the mechanism.
        let (records, _) = run(households(5, 2), 1, 9);

        let enki = Enki::new(EnkiConfig::default());
        let reports: Vec<Report> = (0..5)
            .zip(profiles(5, 2))
            .map(|(i, p)| Report::new(HouseholdId::new(i), ReportStrategy::TruthfulWide.report(&p)))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let outcome = enki.allocate(&reports, &mut rng).unwrap();
        let consumption: Vec<Interval> = outcome.assignments.iter().map(|a| a.window).collect();
        let direct = enki.settle(&reports, &outcome, &consumption).unwrap();
        assert_eq!(settlement(&records[0]), &direct);
    }

    #[test]
    fn bills_reach_every_household_thread() {
        let (records, agents) = run(households(4, 3), 2, 3);
        // Each day, every one of the four household threads records the
        // bill the center settled for it.
        for record in &records {
            let sent: Vec<(HouseholdId, f64)> = settlement(record)
                .entries
                .iter()
                .map(|e| (e.household, e.payment))
                .collect();
            assert_eq!(bills(&agents, record.day), sent, "day {}", record.day);
            assert_eq!(sent.len(), 4);
        }
    }

    #[test]
    fn narrow_truth_households_can_defect_threaded() {
        let specs = (0..4)
            .zip(profiles(4, 4))
            .map(|(i, profile)| {
                let t = profile.narrow();
                let strategy = if i == 0 {
                    // Household 0 misreports a window disjoint from its truth.
                    let begin = if t.begin() >= 4 { t.begin() - 4 } else { t.end() };
                    let begin = begin.min(24 - t.duration());
                    ReportStrategy::Fixed(
                        Preference::new(begin, (begin + t.duration()).min(24), t.duration())
                            .unwrap(),
                    )
                } else {
                    ReportStrategy::TruthfulNarrow
                };
                ThreadedHousehold {
                    agent: HouseholdAgent::new(
                        HouseholdId::new(i),
                        profile,
                        TruthSource::Narrow,
                        strategy,
                        ReportSource::Strategy,
                    ),
                    fault: ThreadedFault::None,
                }
            })
            .collect();
        let (records, _) = run(specs, 1, 4);
        let st = settlement(&records[0]);
        assert!(st.center_utility >= -1e-9, "budget balance survives defection");
    }

    #[test]
    fn traced_threaded_run_exports_the_driver_telemetry() {
        use enki_telemetry::{metric_names, to_jsonl, validate_jsonl, FieldValue};
        let telemetry = Telemetry::new("threaded-test", 11);
        let (records, _) =
            run_threaded_days(center(4, 11), households(4, 11), 2, TIMEOUT, Some(&telemetry))
                .unwrap();
        assert_eq!(records.len(), 2);

        // The driver's day spans are roots with the day number recorded.
        let spans = telemetry.spans();
        let day_spans: Vec<_> = spans.iter().filter(|s| s.name == "day").collect();
        assert_eq!(day_spans.len(), 2);
        for (i, s) in day_spans.iter().enumerate() {
            assert_eq!(s.parent, None);
            assert_eq!(s.fields[0], ("day".to_string(), FieldValue::U64(i as u64)));
        }
        assert_eq!(telemetry.counter("runtime.ticks"), Some(200));
        assert_eq!(telemetry.counter("center.bills.sent"), Some(8));
        for name in telemetry.metrics().keys() {
            assert!(metric_names::is_registered(name), "unregistered metric `{name}`");
        }
        validate_jsonl(&to_jsonl(&telemetry)).expect("threaded trace self-validates");
    }

    #[test]
    fn pipelined_deployment_is_schedule_independent() {
        // The racing pipeline runs real solver threads inside a
        // deployment that already has one thread per household; the
        // settled outcome must not depend on how the OS interleaves any
        // of them, and the refined schedule can only be cheaper than the
        // greedy one it started from.
        let pipelined = || {
            let center = center(6, 12).with_pipeline(PipelineConfig::default());
            run_threaded_days(center, households(6, 12), 2, TIMEOUT, None).unwrap()
        };
        let (a, agents) = pipelined();
        let (b, again) = pipelined();
        assert_eq!((&a, &agents), (&b, &again), "pipelined threaded runs must be reproducible");
        let (greedy, _) = run(households(6, 12), 2, 12);
        for (refined, plain) in a.iter().zip(&greedy) {
            let (refined, plain) = (settlement(refined), settlement(plain));
            assert_eq!(refined.entries.len(), 6);
            assert!(refined.center_utility >= -1e-9);
            assert!(
                refined.total_cost <= plain.total_cost + 1e-9,
                "refinement must not worsen the realized neighborhood cost"
            );
        }
    }

    #[test]
    fn empty_roster_is_rejected() {
        let result = run_threaded_days(center(0, 0), vec![], 1, TIMEOUT, None);
        assert!(matches!(result, Err(enki_core::Error::EmptyNeighborhood)));
    }

    #[test]
    fn silent_household_is_excluded_not_fatal() {
        let mut specs = households(5, 6);
        specs[2].fault = ThreadedFault::Silent;
        let (records, agents) = run(specs, 2, 6);
        assert_eq!(records.len(), 2);
        for record in &records {
            assert_eq!(record.missing_reports, vec![HouseholdId::new(2)]);
            let st = settlement(record);
            assert_eq!(st.entries.len(), 4);
            assert!(st.entries.iter().all(|e| e.household != HouseholdId::new(2)));
            assert!(st.center_utility >= -1e-9);
            assert_eq!(bills(&agents, record.day).len(), 4);
        }
        // The silent household never recorded a bill.
        assert!(agents[2].bills().is_empty());
    }

    #[test]
    fn crash_after_report_settles_as_cooperative() {
        let mut specs = households(4, 7);
        specs[1].fault = ThreadedFault::CrashAfterReport;
        let (records, agents) = run(specs, 1, 7);
        let record = &records[0];
        assert!(record.missing_reports.is_empty(), "it did report");
        assert_eq!(record.missing_readings, vec![HouseholdId::new(1)]);
        let st = settlement(record);
        let entry = st
            .entries
            .iter()
            .find(|e| e.household == HouseholdId::new(1))
            .unwrap();
        assert!(!entry.defected, "a lost reading is not a defection");
        assert!(st.center_utility >= -1e-9);
        assert!(agents[1].bills().is_empty(), "it died before its bill");
    }

    #[test]
    fn all_silent_day_closes_unbilled() {
        let mut specs = households(3, 8);
        for s in &mut specs {
            s.fault = ThreadedFault::Silent;
        }
        let (records, agents) = run(specs, 1, 8);
        assert_eq!(records.len(), 1);
        assert!(records[0].settlement.is_none());
        assert_eq!(records[0].missing_reports.len(), 3);
        assert!(agents.iter().all(|a| a.bills().is_empty()));
    }

    /// The threaded deployment and the simulated LAN are one protocol:
    /// over the same link, agents and seed they settle identical records
    /// and bills, with every household alive and with one silent (absent
    /// from the simulation's agents).
    #[test]
    fn threaded_and_simulated_runs_settle_identical_bills() {
        for silent in [None, Some(3usize)] {
            let mut specs = households(6, 13);
            if let Some(i) = silent {
                specs[i].fault = ThreadedFault::Silent;
            }
            let live: Vec<HouseholdAgent> = specs
                .iter()
                .filter(|s| s.fault == ThreadedFault::None)
                .map(|s| s.agent.clone())
                .collect();
            let (records, agents) = run(specs, 3, 13);
            let network = SimNetwork::new(NetworkConfig::default(), 13);
            let mut simulated = Runtime::new(network, center(6, 13), live);
            simulated.run_days(3);

            assert_eq!(records, simulated.records(), "silent {silent:?}: records differ");
            assert!(records.iter().all(|r| r.settlement.is_some()));
            for day in 0..3 {
                assert_eq!(
                    bills(&agents, day),
                    bills(simulated.households(), day),
                    "silent {silent:?}: day {day} bills differ"
                );
            }
        }
    }
}
