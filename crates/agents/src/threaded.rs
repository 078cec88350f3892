//! A multithreaded deployment skeleton: one OS thread per household ECC,
//! reliable crossbeam channels as the transport.
//!
//! The tick-driven [`Runtime`](crate::runtime::Runtime) is the tool for
//! studying protocol behaviour under loss and latency; this module shows
//! the same day protocol running concurrently the way a real deployment
//! would — agents block on their sockets and react to messages. Reports
//! are sorted by household id before allocation and the center's RNG is
//! seeded, so the settled outcome is independent of thread scheduling.
//!
//! **Degradation.** A household that stops answering (see
//! [`ThreadedFault`]) does not abort the run: the center waits out the
//! phase timeout, excludes silent households from the day (missing
//! report) or settles them as cooperative (missing reading), and settles
//! everyone else — mirroring the tick-driven center's behaviour under
//! message loss. Only a day in which *no* household reports fails, with
//! [`enki_core::Error::Timeout`] naming a silent household and the
//! phase.

use std::collections::BTreeMap;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use enki_core::household::{HouseholdId, Report};
use enki_telemetry::Telemetry;
use enki_core::mechanism::{Enki, Settlement};
use enki_core::time::Interval;
use enki_core::validation::{RawPreference, RawReport};
use enki_sim::behavior::{consume, ReportStrategy};
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::UsageProfile;
#[expect(
    clippy::disallowed_types,
    reason = "threaded.rs is the deployment entry point that runs households on OS threads"
)]
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::center::PipelineConfig;
use crate::message::Message;

/// An injected failure mode for one threaded household.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadedFault {
    /// Healthy: answers every phase.
    #[default]
    None,
    /// Down for the whole run: answers nothing, as if the ECC process
    /// never started.
    Silent,
    /// Crashes after submitting its report: never consumes, never sends
    /// a meter reading, never records a bill.
    CrashAfterReport,
}

/// Specification of one threaded household.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedHousehold {
    /// Household id.
    pub id: HouseholdId,
    /// Usage profile.
    pub profile: UsageProfile,
    /// Which interval is the truth.
    pub truth_source: TruthSource,
    /// Reporting behaviour.
    pub strategy: ReportStrategy,
    /// Injected failure mode.
    pub fault: ThreadedFault,
}

/// The outcome of a threaded day: the settlement plus each household's
/// received bill and any households the center had to work around.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedDay {
    /// Day number.
    pub day: u64,
    /// The center's settlement.
    pub settlement: Settlement,
    /// `(household, amount)` bills as received by the household threads.
    pub bills: Vec<(HouseholdId, f64)>,
    /// Households whose reports never arrived; excluded from the day.
    pub missing_reports: Vec<HouseholdId>,
    /// Participants whose meter readings never arrived; settled as
    /// cooperative.
    pub missing_readings: Vec<HouseholdId>,
    /// Households whose reports admission control quarantined; excluded
    /// from the day (the threaded skeleton keeps no standing profiles).
    pub quarantined: Vec<HouseholdId>,
}

/// Runs `days` protocol days with one thread per household.
///
/// Each phase waits at most `timeout` after the last arrival. Households
/// that miss the report phase are excluded from the day; participants
/// that miss the reading phase are settled as cooperative.
///
/// # Errors
///
/// Returns [`enki_core::Error::EmptyNeighborhood`] for an empty roster
/// and propagates mechanism errors. A day in which no household reports
/// at all fails with [`enki_core::Error::Timeout`] naming a silent
/// household and the `"report"` phase — with reliable channels total
/// silence means the deployment is dead, not degraded.
#[must_use = "dropping the outcome discards every simulated day and any deployment fault"]
pub fn run_threaded_days(
    enki: Enki,
    households: Vec<ThreadedHousehold>,
    days: u64,
    seed: u64,
    timeout: Duration,
) -> enki_core::Result<Vec<ThreadedDay>> {
    run_threaded_days_traced(enki, households, days, seed, timeout, None)
}

/// Like [`run_threaded_days`], but records telemetry: each household
/// thread gets its own recorder and opens a `threaded.household` span
/// (with nested `threaded.report` / `threaded.consume` spans per phase),
/// while the center thread wraps each day in a `threaded.day` span and
/// counts reports, readings, and bills. Per-thread buffers flush into
/// the shared sink when the threads exit, so this is safe to call from
/// any number of concurrent deployments.
///
/// # Errors
///
/// Same contract as [`run_threaded_days`].
#[must_use = "dropping the outcome discards every simulated day and any deployment fault"]
pub fn run_threaded_days_traced(
    enki: Enki,
    households: Vec<ThreadedHousehold>,
    days: u64,
    seed: u64,
    timeout: Duration,
    telemetry: Option<&Telemetry>,
) -> enki_core::Result<Vec<ThreadedDay>> {
    run_threaded_days_pipelined(enki, households, days, seed, timeout, telemetry, None)
}

/// Like [`run_threaded_days_traced`], but refines each day's greedy
/// allocation through the anytime solver pipeline (see
/// [`PipelineConfig`]).
///
/// **Thread-budget split.** The deployment already occupies one OS thread
/// per household plus the center's, so the solver cannot assume it owns
/// the machine: the configured budget is clamped to the spare hardware
/// parallelism via [`PipelineConfig::split_for`] (never below the
/// two-thread racing portfolio). Because the parallel solver is
/// bit-identical at every thread count, the split changes scheduling
/// pressure only — the settled outcome is the same on a laptop and a
/// 64-core server.
///
/// # Errors
///
/// Same contract as [`run_threaded_days`]; a pipeline failure degrades to
/// the greedy allocation rather than failing the day.
#[must_use = "dropping the outcome discards every simulated day and any deployment fault"]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "threaded.rs is the deployment entry point that runs households on OS threads"
)]
pub fn run_threaded_days_pipelined(
    enki: Enki,
    households: Vec<ThreadedHousehold>,
    days: u64,
    seed: u64,
    timeout: Duration,
    telemetry: Option<&Telemetry>,
    pipeline: Option<PipelineConfig>,
) -> enki_core::Result<Vec<ThreadedDay>> {
    if households.is_empty() {
        return Err(enki_core::Error::EmptyNeighborhood);
    }
    // One thread per household plus the center thread are already spoken
    // for; the solver races on whatever the machine has left.
    let pipeline = pipeline.map(|cfg| cfg.split_for(households.len() + 1));

    // Transport: one inbox per household, one shared inbox for the center.
    let (to_center, center_inbox) = unbounded::<(HouseholdId, Message)>();
    let mut to_household: Vec<Sender<Message>> = Vec::new();
    let mut household_inboxes: Vec<Receiver<Message>> = Vec::new();
    for _ in &households {
        let (tx, rx) = unbounded::<Message>();
        to_household.push(tx);
        household_inboxes.push(rx);
    }

    let bills: Mutex<Vec<(HouseholdId, f64)>> = Mutex::new(Vec::new());
    let result: Mutex<enki_core::Result<Vec<ThreadedDay>>> = Mutex::new(Ok(Vec::new()));

    thread::scope(|scope| {
        // Household threads: react to whatever the center sends.
        for (spec, inbox) in households.iter().zip(household_inboxes) {
            let to_center = to_center.clone();
            let bills = &bills;
            // Each thread owns its recorder; buffers flush to the shared
            // sink when the recorder drops at thread exit.
            let recorder = telemetry.map(Telemetry::recorder);
            scope.spawn(move || {
                if spec.fault == ThreadedFault::Silent {
                    return; // the ECC process never came up
                }
                let thread_span = recorder.as_ref().map(|r| {
                    let mut s = r.span("threaded.household");
                    s.record("household", u64::from(spec.id.index()));
                    s
                });
                let truth = match spec.truth_source {
                    TruthSource::Wide => spec.profile.wide(),
                    TruthSource::Narrow => spec.profile.narrow(),
                };
                while let Ok(message) = inbox.recv() {
                    match message {
                        Message::DayStart { day, .. } => {
                            let phase = recorder.as_ref().map(|r| {
                                let mut s = r.span("threaded.report");
                                s.record("day", day);
                                s
                            });
                            let _ = to_center.send((
                                spec.id,
                                Message::SubmitReport {
                                    day,
                                    preference: spec.strategy.report(&spec.profile).into(),
                                },
                            ));
                            drop(phase);
                            if spec.fault == ThreadedFault::CrashAfterReport {
                                return; // died between reporting and consuming
                            }
                        }
                        Message::Allocation { day, window } => {
                            let phase = recorder.as_ref().map(|r| {
                                let mut s = r.span("threaded.consume");
                                s.record("day", day);
                                s
                            });
                            let realized: Interval = consume(&truth, window);
                            let _ = to_center.send((
                                spec.id,
                                Message::MeterReading {
                                    day,
                                    window: realized,
                                },
                            ));
                            drop(phase);
                        }
                        Message::Bill { amount, .. } => {
                            if let Some(r) = recorder.as_ref() {
                                r.incr("threaded.bills.received", 1);
                            }
                            bills.lock().push((spec.id, amount));
                        }
                        _ => {}
                    }
                }
                drop(thread_span);
            });
        }
        drop(to_center); // the center holds no sender to itself

        // Center: drives the day protocol synchronously. The closure
        // exists so `?` can be used without poisoning the thread scope.
        let center_recorder = telemetry.map(Telemetry::recorder);
        let run_center = || -> enki_core::Result<Vec<ThreadedDay>> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut outcome = Vec::new();
            let roster: Vec<HouseholdId> = households.iter().map(|h| h.id).collect();
            for day in 0..days {
                let mut day_span = center_recorder.as_ref().map(|r| {
                    let mut s = r.span("threaded.day");
                    s.record("day", day);
                    s
                });
                for tx in &to_household {
                    let _ = tx.send(Message::DayStart {
                        day,
                        report_deadline: 0,
                        meter_deadline: 0,
                    });
                }
                // Collect reports until everyone answered or the phase
                // timeout fires; a BTreeMap keyed by household id makes
                // the result deterministic regardless of arrival order.
                let mut report_map: BTreeMap<HouseholdId, RawPreference> = BTreeMap::new();
                while report_map.len() < roster.len() {
                    match center_inbox.recv_timeout(timeout) {
                        Ok((household, Message::SubmitReport { day: d, preference }))
                            if d == day && roster.contains(&household) =>
                        {
                            report_map.insert(household, preference);
                        }
                        Ok(_) => {}
                        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                            break; // degrade: proceed without the silent ones
                        }
                    }
                }
                let missing_reports: Vec<HouseholdId> = roster
                    .iter()
                    .copied()
                    .filter(|h| !report_map.contains_key(h))
                    .collect();
                if report_map.is_empty() {
                    return Err(enki_core::Error::Timeout {
                        household: missing_reports[0],
                        phase: "report",
                    });
                }
                // Off the wire, reports are untrusted floats: classify
                // the batch before any of it can reach the mechanism.
                let raw: Vec<RawReport> = report_map
                    .iter()
                    .map(|(&h, &p)| RawReport::new(h, p))
                    .collect();
                let admission = enki.admit(&raw);
                let quarantined: Vec<HouseholdId> =
                    admission.quarantined().map(|e| e.household).collect();
                let reports: Vec<Report> = admission.admitted();
                if reports.is_empty() {
                    return Err(enki_core::Error::Timeout {
                        household: quarantined[0],
                        phase: "report",
                    });
                }
                let allocation = enki.allocate(&reports, &mut rng)?;
                // Refinement draws its seed from the same deterministic
                // stream as the greedy allocation, so the settled outcome
                // is reproducible across runs and thread schedules.
                let allocation = match pipeline {
                    Some(cfg) => cfg.refine(
                        &enki,
                        &reports,
                        allocation,
                        rng.random(),
                        center_recorder.as_ref(),
                    ),
                    None => allocation,
                };
                for (report, assignment) in reports.iter().zip(&allocation.assignments) {
                    let Some(idx) = households.iter().position(|h| h.id == report.household)
                    else {
                        continue;
                    };
                    let _ = to_household[idx].send(Message::Allocation {
                        day,
                        window: assignment.window,
                    });
                }
                // Collect readings from the participants, degrading the
                // same way on timeout.
                let mut readings: BTreeMap<HouseholdId, Interval> = BTreeMap::new();
                while readings.len() < reports.len() {
                    match center_inbox.recv_timeout(timeout) {
                        Ok((household, Message::MeterReading { day: d, window }))
                            if d == day
                                && reports.iter().any(|r| r.household == household) =>
                        {
                            readings.insert(household, window);
                        }
                        Ok(_) => {}
                        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                            break; // degrade: settle the silent as cooperative
                        }
                    }
                }
                let mut missing_readings: Vec<HouseholdId> = Vec::new();
                let consumption: Vec<Interval> = reports
                    .iter()
                    .zip(&allocation.assignments)
                    .map(|(r, a)| match readings.get(&r.household) {
                        Some(&w) => w,
                        None => {
                            missing_readings.push(r.household);
                            a.window // smart-meter fallback: cooperative
                        }
                    })
                    .collect();
                let settlement = enki.settle(&reports, &allocation, &consumption)?;
                for entry in &settlement.entries {
                    let Some(idx) = households.iter().position(|h| h.id == entry.household)
                    else {
                        continue;
                    };
                    let _ = to_household[idx].send(Message::Bill {
                        day,
                        amount: entry.payment,
                    });
                }
                if let Some(r) = center_recorder.as_ref() {
                    r.incr("threaded.reports.received", report_map.len() as u64);
                    r.incr("threaded.readings.received", readings.len() as u64);
                    r.incr("threaded.bills.sent", settlement.entries.len() as u64);
                }
                if let Some(s) = day_span.as_mut() {
                    s.record("participants", reports.len());
                    s.record("missing_reports", missing_reports.len());
                    s.record("missing_readings", missing_readings.len());
                    s.record("quarantined", quarantined.len());
                }
                outcome.push(ThreadedDay {
                    day,
                    settlement,
                    bills: Vec::new(),
                    missing_reports,
                    missing_readings,
                    quarantined,
                });
            }
            Ok(outcome)
        };
        let outcome = run_center();
        *result.lock() = outcome;
        drop(to_household); // hang up: household threads exit their loops
    });

    let mut days_out = result.into_inner()?;
    // Attach the bills each household thread recorded.
    let mut bills = bills.into_inner();
    bills.sort_by_key(|&(h, _)| h);
    for day in &mut days_out {
        day.bills = bills.clone();
    }
    Ok(days_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enki_core::config::EnkiConfig;
    use enki_core::household::Preference;
    use enki_sim::profile::ProfileConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn specs(n: u32, seed: u64) -> Vec<ThreadedHousehold> {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProfileConfig::default();
        (0..n)
            .map(|i| ThreadedHousehold {
                id: HouseholdId::new(i),
                profile: UsageProfile::generate(&mut rng, &config),
                truth_source: TruthSource::Wide,
                strategy: ReportStrategy::TruthfulWide,
                fault: ThreadedFault::None,
            })
            .collect()
    }

    #[test]
    fn threaded_day_settles_and_balances() {
        let days = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs(6, 1),
            1,
            1,
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(days.len(), 1);
        let st = &days[0].settlement;
        assert_eq!(st.entries.len(), 6);
        assert!(st.center_utility >= 0.0);
        assert!(st.entries.iter().all(|e| !e.defected));
        assert!(days[0].missing_reports.is_empty());
        assert!(days[0].missing_readings.is_empty());
    }

    #[test]
    fn threaded_outcome_matches_direct_mechanism() {
        // Same seed, same reports ⇒ the threaded settlement equals a
        // direct (single-threaded) invocation of the mechanism.
        let households = specs(5, 2);
        let enki = Enki::new(EnkiConfig::default());
        let threaded = run_threaded_days(enki, households.clone(), 1, 9, Duration::from_secs(5))
            .unwrap();

        let reports: Vec<Report> = households
            .iter()
            .map(|h| Report::new(h.id, h.strategy.report(&h.profile)))
            .collect();
        let mut rng = StdRng::seed_from_u64(9);
        let outcome = enki.allocate(&reports, &mut rng).unwrap();
        let consumption: Vec<Interval> =
            outcome.assignments.iter().map(|a| a.window).collect();
        let direct = enki.settle(&reports, &outcome, &consumption).unwrap();
        assert_eq!(threaded[0].settlement, direct);
    }

    #[test]
    fn bills_reach_every_household_thread() {
        let days = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs(4, 3),
            2,
            3,
            Duration::from_secs(5),
        )
        .unwrap();
        // Two days × four households = eight bills recorded in total.
        assert_eq!(days.last().unwrap().bills.len(), 8);
    }

    #[test]
    fn narrow_truth_households_can_defect_threaded() {
        let mut specs = specs(4, 4);
        for (i, s) in specs.iter_mut().enumerate() {
            s.truth_source = TruthSource::Narrow;
            if i == 0 {
                // Household 0 misreports a window disjoint from its truth.
                let t = s.profile.narrow();
                let begin = if t.begin() >= 4 { t.begin() - 4 } else { t.end() };
                s.strategy = ReportStrategy::Fixed(
                    Preference::new(
                        begin.min(24 - t.duration()),
                        (begin.min(24 - t.duration()) + t.duration()).min(24),
                        t.duration(),
                    )
                    .unwrap(),
                );
            } else {
                s.strategy = ReportStrategy::TruthfulNarrow;
            }
        }
        let days = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs,
            1,
            4,
            Duration::from_secs(5),
        )
        .unwrap();
        let st = &days[0].settlement;
        assert!(st.center_utility >= -1e-9, "budget balance survives defection");
    }

    #[test]
    fn traced_run_nests_phase_spans_under_each_household_thread() {
        use enki_telemetry::{to_jsonl, validate_jsonl, FieldValue, Telemetry};
        let telemetry = Telemetry::new("threaded-test", 11);
        let days = run_threaded_days_traced(
            Enki::new(EnkiConfig::default()),
            specs(4, 11),
            2,
            11,
            Duration::from_secs(5),
            Some(&telemetry),
        )
        .unwrap();
        assert_eq!(days.len(), 2);

        let spans = telemetry.spans();
        let household_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "threaded.household")
            .map(|s| s.id)
            .collect();
        assert_eq!(household_ids.len(), 4, "one root span per household thread");

        // Every per-phase span nests under exactly one household root,
        // even though four recorders ran concurrently on four threads.
        let phases: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "threaded.report" || s.name == "threaded.consume")
            .collect();
        assert_eq!(phases.len(), 4 * 2 * 2, "report + consume, per household, per day");
        for phase in &phases {
            let parent = phase.parent.expect("phase spans have a parent");
            assert!(
                household_ids.contains(&parent),
                "{} span {} nests under a household root",
                phase.name,
                phase.id
            );
            assert!(phase.end_ns >= phase.start_ns);
        }

        // The center's day spans are roots with the day number recorded.
        let day_spans: Vec<_> = spans.iter().filter(|s| s.name == "threaded.day").collect();
        assert_eq!(day_spans.len(), 2);
        for (i, s) in day_spans.iter().enumerate() {
            assert_eq!(s.parent, None);
            assert_eq!(s.fields[0], ("day".to_string(), FieldValue::U64(i as u64)));
        }

        assert_eq!(telemetry.counter("threaded.reports.received"), Some(8));
        assert_eq!(telemetry.counter("threaded.bills.sent"), Some(8));
        assert_eq!(telemetry.counter("threaded.bills.received"), Some(8));

        validate_jsonl(&to_jsonl(&telemetry)).expect("threaded trace self-validates");
    }

    #[test]
    fn pipelined_deployment_is_schedule_independent() {
        // The racing pipeline runs real solver threads inside a
        // deployment that already has one thread per household; the
        // settled outcome must not depend on how the OS interleaves any
        // of them, and the refined schedule can only be cheaper than the
        // greedy one it started from.
        let run = || {
            run_threaded_days_pipelined(
                Enki::new(EnkiConfig::default()),
                specs(6, 12),
                2,
                12,
                Duration::from_secs(5),
                None,
                Some(PipelineConfig::default()),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "pipelined threaded runs must be reproducible");
        for day in &a {
            assert_eq!(day.settlement.entries.len(), 6);
            assert!(day.settlement.center_utility >= -1e-9);
        }

        // Same deployment without refinement: the greedy planned cost is
        // never beaten by the refined one (the pipeline only replaces the
        // greedy windows when strictly cheaper).
        let greedy = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs(6, 12),
            2,
            12,
            Duration::from_secs(5),
        )
        .unwrap();
        for (refined, plain) in a.iter().zip(&greedy) {
            assert!(
                refined.settlement.total_cost <= plain.settlement.total_cost + 1e-9,
                "refinement must not worsen the realized neighborhood cost"
            );
        }
    }

    #[test]
    fn empty_roster_is_rejected() {
        assert!(run_threaded_days(
            Enki::default(),
            vec![],
            1,
            0,
            Duration::from_millis(10)
        )
        .is_err());
    }

    #[test]
    fn silent_household_is_excluded_not_fatal() {
        let mut specs = specs(5, 6);
        specs[2].fault = ThreadedFault::Silent;
        let days = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs,
            2,
            6,
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(days.len(), 2);
        for day in &days {
            assert_eq!(day.missing_reports, vec![HouseholdId::new(2)]);
            assert_eq!(day.settlement.entries.len(), 4);
            assert!(day
                .settlement
                .entries
                .iter()
                .all(|e| e.household != HouseholdId::new(2)));
            assert!(day.settlement.center_utility >= -1e-9);
        }
        // The silent household never recorded a bill.
        assert!(days[0].bills.iter().all(|&(h, _)| h != HouseholdId::new(2)));
        assert_eq!(days.last().unwrap().bills.len(), 8); // 2 days × 4 live
    }

    #[test]
    fn crash_after_report_settles_as_cooperative() {
        let mut specs = specs(4, 7);
        specs[1].fault = ThreadedFault::CrashAfterReport;
        let days = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs,
            1,
            7,
            Duration::from_millis(200),
        )
        .unwrap();
        let day = &days[0];
        assert!(day.missing_reports.is_empty(), "it did report");
        assert_eq!(day.missing_readings, vec![HouseholdId::new(1)]);
        let entry = day
            .settlement
            .entries
            .iter()
            .find(|e| e.household == HouseholdId::new(1))
            .unwrap();
        assert!(!entry.defected, "a lost reading is not a defection");
        assert!(day.settlement.center_utility >= -1e-9);
    }

    #[test]
    fn all_silent_fails_with_a_timeout_error() {
        let mut specs = specs(3, 8);
        for s in &mut specs {
            s.fault = ThreadedFault::Silent;
        }
        let err = run_threaded_days(
            Enki::new(EnkiConfig::default()),
            specs,
            1,
            8,
            Duration::from_millis(100),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                enki_core::Error::Timeout {
                    phase: "report",
                    ..
                }
            ),
            "expected a report-phase timeout, got {err:?}"
        );
    }
}
