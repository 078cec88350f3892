//! Protocol invariant oracle.
//!
//! Replays a runtime's protocol trace and the center's
//! settled records against the mechanism's safety invariants. The oracle
//! is fault-model-agnostic: every invariant must hold under *any*
//! schedule of drops, duplicates, reorderings, partitions, outages, and
//! center crash/recovery cycles. A violation under injected faults is a
//! protocol bug, never "expected degradation".
//!
//! Invariants checked:
//!
//! 1. **Ex ante budget balance** — every settled day has
//!    `center_utility >= 0` (up to floating-point slack): the mechanism
//!    never pays out more than it collects (paper §IV, weak budget
//!    balance).
//! 2. **At-most-one bill** — the center never originates more than one
//!    [`Bill`](crate::message::Message::Bill) per household per day, even
//!    when messages are duplicated or the center recovers from a crash.
//! 3. **Allocations are grounded** — an allocation sent to a household
//!    for day *d* is preceded by a *delivered* report from that household
//!    for day *d*. The center never invents participants.
//! 4. **Record integrity** — settled day records have strictly
//!    increasing day numbers (no duplicate settlement after
//!    crash-recovery) and each record's participants, quarantined, and
//!    clamped households are subsets of the roster (clamped of the
//!    participants) with no overlap between participants and missing
//!    reports.
//! 5. **Settlement validity** — every settled day passes
//!    [`Settlement::verify`](enki_core::mechanism::Settlement::verify)
//!    against the center's configuration: all values finite, bills
//!    non-negative, revenue and utility consistent. Adversarial reports
//!    must never smuggle a NaN or a negative bill into a settlement.
//! 6. **Bills only to admitted participants** — every
//!    [`Bill`](crate::message::Message::Bill) the center originates for
//!    day *d* goes to a household recorded as a participant of day *d*.
//!    A report that admission control quarantined (without a standing
//!    profile) can never produce a bill.

use std::collections::{BTreeMap, BTreeSet};

use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_telemetry::Recorder;

use crate::center::DayRecord;
use crate::message::{Message, NodeId};
use crate::driver::{Driver, TraceEvent, TraceKind, Transport};

/// Slack for floating-point budget comparisons.
const BUDGET_EPS: f64 = 1e-9;

/// One invariant violation found by the oracle.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a detected invariant violation must be reported or asserted on"]
pub enum Violation {
    /// A settled day paid out more than it collected.
    BudgetDeficit {
        /// The settled day.
        day: u64,
        /// The (negative) center utility.
        center_utility: f64,
    },
    /// A household was billed more than once for the same day.
    DuplicateBill {
        /// The billed day.
        day: u64,
        /// The household billed twice.
        household: HouseholdId,
    },
    /// An allocation was sent to a household whose report was never
    /// delivered to the center.
    UngroundedAllocation {
        /// The allocated day.
        day: u64,
        /// The household that never reported.
        household: HouseholdId,
    },
    /// Day records are out of order or duplicated.
    DisorderedRecords {
        /// The offending day number.
        day: u64,
        /// The day number of the preceding record.
        previous: u64,
    },
    /// A record names a participant outside the roster, a household
    /// appears both as a participant and as a missing report, a
    /// quarantined household is outside the roster, or a clamped
    /// household is not a participant.
    CorruptRecord {
        /// The settled day.
        day: u64,
        /// The offending household.
        household: HouseholdId,
    },
    /// A settled day's settlement failed
    /// [`Settlement::verify`](enki_core::mechanism::Settlement::verify):
    /// a non-finite value, a negative bill, or inconsistent totals.
    InvalidSettlement {
        /// The settled day.
        day: u64,
        /// The verification error.
        reason: String,
    },
    /// The center billed a household that the day's record does not list
    /// as a participant — a bill with no admitted report behind it.
    UnadmittedBill {
        /// The billed day.
        day: u64,
        /// The household billed without an admitted report.
        household: HouseholdId,
    },
}

impl Violation {
    /// Stable metric-name suffix for this violation kind, used for the
    /// `oracle.violation.{key}` telemetry counters.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Self::BudgetDeficit { .. } => "budget_deficit",
            Self::DuplicateBill { .. } => "duplicate_bill",
            Self::UngroundedAllocation { .. } => "ungrounded_allocation",
            Self::DisorderedRecords { .. } => "disordered_records",
            Self::CorruptRecord { .. } => "corrupt_record",
            Self::InvalidSettlement { .. } => "invalid_settlement",
            Self::UnadmittedBill { .. } => "unadmitted_bill",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetDeficit {
                day,
                center_utility,
            } => write!(
                f,
                "day {day}: budget deficit, center utility {center_utility}"
            ),
            Self::DuplicateBill { day, household } => {
                write!(f, "day {day}: {household:?} billed more than once")
            }
            Self::UngroundedAllocation { day, household } => write!(
                f,
                "day {day}: allocation sent to {household:?} without a delivered report"
            ),
            Self::DisorderedRecords { day, previous } => write!(
                f,
                "record for day {day} follows record for day {previous}"
            ),
            Self::CorruptRecord { day, household } => {
                write!(f, "day {day}: record corrupt at {household:?}")
            }
            Self::InvalidSettlement { day, reason } => {
                write!(f, "day {day}: settlement failed verification: {reason}")
            }
            Self::UnadmittedBill { day, household } => {
                write!(f, "day {day}: {household:?} billed without an admitted report")
            }
        }
    }
}

/// Checks every protocol invariant against a finished runtime, over
/// any transport.
#[must_use]
pub fn check<T: Transport>(runtime: &Driver<T>) -> Vec<Violation> {
    check_traced(runtime, None)
}

/// Like [`check`], but records an `oracle.check` span plus an
/// `oracle.checks` counter and one `oracle.violation.{kind}` counter per
/// violation found into the given telemetry recorder.
#[must_use]
pub fn check_traced<T: Transport>(
    runtime: &Driver<T>,
    recorder: Option<&Recorder>,
) -> Vec<Violation> {
    let mut span = recorder.map(|r| r.span("oracle.check"));
    let mut violations = Vec::new();
    check_records(
        runtime.records(),
        runtime.center().roster(),
        runtime.center().enki().config(),
        &mut violations,
    );
    check_trace(runtime.trace(), runtime.records(), &mut violations);
    if let Some(r) = recorder {
        r.incr("oracle.checks", 1);
        for violation in &violations {
            r.incr(&format!("oracle.violation.{}", violation.key()), 1);
        }
        // An invariant violation is exactly what the flight recorder
        // exists for: dump the recent-event ring as a postmortem.
        if let Some(first) = violations.first() {
            let _ = r.postmortem(
                &format!("oracle.{}", first.key()),
                &[
                    (
                        "violations",
                        enki_telemetry::FieldValue::U64(violations.len() as u64),
                    ),
                    (
                        "first",
                        enki_telemetry::FieldValue::Str(first.to_string()),
                    ),
                ],
            );
        }
    }
    if let Some(span) = span.as_mut() {
        span.record("records", runtime.records().len());
        span.record("trace_events", runtime.trace().len());
        span.record("violations", violations.len());
    }
    violations
}

/// Checks the invariants directly on records and a trace, without a
/// [`Driver`]: for harnesses that keep only a runtime's outputs but
/// still owe the same proof obligations.
#[must_use]
pub fn check_parts(
    records: &[DayRecord],
    roster: &[HouseholdId],
    config: &EnkiConfig,
    trace: &[TraceEvent],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_records(records, roster, config, &mut violations);
    check_trace(trace, records, &mut violations);
    violations
}

fn check_records(
    records: &[DayRecord],
    roster: &[HouseholdId],
    config: &EnkiConfig,
    violations: &mut Vec<Violation>,
) {
    let roster: BTreeSet<HouseholdId> = roster.iter().copied().collect();
    let mut previous: Option<u64> = None;
    for record in records {
        if let Some(prev) = previous {
            if record.day <= prev {
                violations.push(Violation::DisorderedRecords {
                    day: record.day,
                    previous: prev,
                });
            }
        }
        previous = Some(record.day);

        if let Some(st) = &record.settlement {
            if st.center_utility < -BUDGET_EPS {
                violations.push(Violation::BudgetDeficit {
                    day: record.day,
                    center_utility: st.center_utility,
                });
            }
            if let Err(e) = st.verify(config) {
                violations.push(Violation::InvalidSettlement {
                    day: record.day,
                    reason: e.to_string(),
                });
            }
        }

        let participants: BTreeSet<HouseholdId> =
            record.participants.iter().copied().collect();
        for &h in &record.participants {
            if !roster.contains(&h) {
                violations.push(Violation::CorruptRecord {
                    day: record.day,
                    household: h,
                });
            }
        }
        for &h in &record.missing_reports {
            if participants.contains(&h) {
                violations.push(Violation::CorruptRecord {
                    day: record.day,
                    household: h,
                });
            }
        }
        for &h in &record.quarantined {
            if !roster.contains(&h) {
                violations.push(Violation::CorruptRecord {
                    day: record.day,
                    household: h,
                });
            }
        }
        for &h in &record.clamped {
            if !participants.contains(&h) {
                violations.push(Violation::CorruptRecord {
                    day: record.day,
                    household: h,
                });
            }
        }
    }
}

fn check_trace(trace: &[TraceEvent], records: &[DayRecord], violations: &mut Vec<Violation>) {
    // Recorded participants per day: the only households a bill may
    // legitimately reach.
    let participants_by_day: BTreeMap<u64, BTreeSet<HouseholdId>> = records
        .iter()
        .map(|r| (r.day, r.participants.iter().copied().collect()))
        .collect();
    // Bills originated by the center, keyed (day, household).
    let mut billed: BTreeSet<(u64, HouseholdId)> = BTreeSet::new();
    // Reports actually delivered to the center, keyed (day, household).
    let mut reported: BTreeSet<(u64, HouseholdId)> = BTreeSet::new();
    // Deduped ungrounded allocations so a rebroadcast doesn't repeat
    // the same violation.
    let mut ungrounded: BTreeSet<(u64, HouseholdId)> = BTreeSet::new();
    // Allocations already seen, so rebroadcasts of the same allocation
    // are not counted as duplicate grounding checks.
    let mut allocated: BTreeSet<(u64, HouseholdId)> = BTreeSet::new();

    for event in trace {
        let endpoints = (event.envelope.from, event.envelope.to);
        match (&event.kind, &event.envelope.message) {
            (TraceKind::Delivered, Message::SubmitReport { day, .. }) => {
                if let (NodeId::Household(h), NodeId::Center) = endpoints {
                    reported.insert((*day, h));
                }
            }
            (TraceKind::Originated, Message::Allocation { day, .. }) => {
                if let (NodeId::Center, NodeId::Household(h)) = endpoints {
                    if allocated.insert((*day, h))
                        && !reported.contains(&(*day, h))
                        && ungrounded.insert((*day, h))
                    {
                        violations.push(Violation::UngroundedAllocation {
                            day: *day,
                            household: h,
                        });
                    }
                }
            }
            (TraceKind::Originated, Message::Bill { day, .. }) => {
                if let (NodeId::Center, NodeId::Household(h)) = endpoints {
                    if !billed.insert((*day, h)) {
                        violations.push(Violation::DuplicateBill {
                            day: *day,
                            household: h,
                        });
                    }
                    if !participants_by_day
                        .get(day)
                        .is_some_and(|p| p.contains(&h))
                    {
                        violations.push(Violation::UnadmittedBill {
                            day: *day,
                            household: h,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{CenterAgent, DayPlan};
    use crate::household::{HouseholdAgent, ReportSource};
    use crate::network::{NetworkConfig, SimNetwork};
    use crate::runtime::Runtime;
    use enki_core::config::EnkiConfig;
    use enki_core::mechanism::Enki;
    use enki_sim::behavior::ReportStrategy;
    use enki_sim::neighborhood::TruthSource;
    use enki_sim::profile::{ProfileConfig, UsageProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: u32, network: NetworkConfig, seed: u64) -> Runtime {
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
        Runtime::new(SimNetwork::new(network, seed), center, households)
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut rt = build(6, NetworkConfig::default(), 21);
        rt.run_days(3);
        let violations = check(&rt);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn lossy_run_has_no_violations() {
        let mut rt = build(8, NetworkConfig::lossy(0.35), 22);
        rt.run_days(3);
        let violations = check(&rt);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn oracle_flags_a_synthetic_duplicate_bill() {
        use crate::message::{Envelope, Message};
        let bill = |at| TraceEvent {
            at,
            kind: TraceKind::Originated,
            envelope: Envelope {
                from: NodeId::Center,
                to: NodeId::Household(HouseholdId::new(0)),
                message: Message::Bill {
                    day: 0,
                    amount: 1.0,
                },
                trace: None,
            },
        };
        let record = DayRecord {
            day: 0,
            participants: vec![HouseholdId::new(0)],
            missing_reports: Vec::new(),
            missing_readings: Vec::new(),
            quarantined: Vec::new(),
            clamped: Vec::new(),
            settlement: None,
        };
        let mut violations = Vec::new();
        check_trace(&[bill(70), bill(71)], &[record], &mut violations);
        assert_eq!(
            violations,
            vec![Violation::DuplicateBill {
                day: 0,
                household: HouseholdId::new(0)
            }]
        );
    }

    #[test]
    fn oracle_flags_a_synthetic_unadmitted_bill() {
        use crate::message::{Envelope, Message};
        let bill = TraceEvent {
            at: 70,
            kind: TraceKind::Originated,
            envelope: Envelope {
                from: NodeId::Center,
                to: NodeId::Household(HouseholdId::new(5)),
                message: Message::Bill {
                    day: 0,
                    amount: 1.0,
                },
                trace: None,
            },
        };
        let record = DayRecord {
            day: 0,
            participants: vec![HouseholdId::new(0)],
            missing_reports: vec![HouseholdId::new(5)],
            missing_readings: Vec::new(),
            quarantined: vec![HouseholdId::new(5)],
            clamped: Vec::new(),
            settlement: None,
        };
        let mut violations = Vec::new();
        check_trace(&[bill], &[record], &mut violations);
        assert_eq!(
            violations,
            vec![Violation::UnadmittedBill {
                day: 0,
                household: HouseholdId::new(5)
            }]
        );
    }

    #[test]
    fn oracle_flags_a_corrupt_settlement() {
        let mut rt = build(3, NetworkConfig::default(), 24);
        rt.run_days(1);
        let mut records = rt.records().to_vec();
        let st = records[0].settlement.as_mut().unwrap();
        st.entries[0].payment = f64::NAN;
        let mut violations = Vec::new();
        check_records(
            &records,
            rt.center().roster(),
            rt.center().enki().config(),
            &mut violations,
        );
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::InvalidSettlement { day: 0, .. })),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn oracle_flags_a_clamped_non_participant() {
        let mut rt = build(2, NetworkConfig::default(), 25);
        rt.run_days(1);
        let mut records = rt.records().to_vec();
        // Claim a clamp decision for a household that never participated.
        records[0].clamped.push(HouseholdId::new(99));
        let mut violations = Vec::new();
        check_records(
            &records,
            rt.center().roster(),
            rt.center().enki().config(),
            &mut violations,
        );
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::CorruptRecord { .. })));
    }

    #[test]
    fn oracle_flags_a_synthetic_ungrounded_allocation() {
        use crate::message::{Envelope, Message};
        use enki_core::time::Interval;
        let event = TraceEvent {
            at: 30,
            kind: TraceKind::Originated,
            envelope: Envelope {
                from: NodeId::Center,
                to: NodeId::Household(HouseholdId::new(3)),
                message: Message::Allocation {
                    day: 0,
                    window: Interval::new(0, 4).unwrap(),
                },
                trace: None,
            },
        };
        let mut violations = Vec::new();
        check_trace(&[event], &[], &mut violations);
        assert_eq!(
            violations,
            vec![Violation::UngroundedAllocation {
                day: 0,
                household: HouseholdId::new(3)
            }]
        );
    }

    #[test]
    fn oracle_flags_synthetic_disordered_records() {
        let mut rt = build(2, NetworkConfig::default(), 23);
        rt.run_days(2);
        let mut records = rt.records().to_vec();
        records.swap(0, 1);
        let mut violations = Vec::new();
        check_records(
            &records,
            rt.center().roster(),
            rt.center().enki().config(),
            &mut violations,
        );
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::DisorderedRecords { .. })));
    }
}
