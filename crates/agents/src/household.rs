//! The household-side agent: an ECC unit.
//!
//! Per the paper (§I), an ECC "learns each household's daily power
//! consumption pattern through machine learning techniques; decides; and
//! reports the household's demand for the next day". This agent does all
//! three over the simulated network: it reports when a day starts
//! (re-sending until the allocation arrives — the network may drop
//! messages), consumes within its true preference as close to the
//! allocation as possible, feeds the realized consumption back into its
//! [`EccPredictor`], and submits the meter reading until billed.
//!
//! Retries use bounded exponential backoff with deterministic jitter
//! (see [`Backoff`]): the first retry fires after the base interval,
//! subsequent delays double up to a cap, and a small per-attempt jitter
//! decorrelates the retry trains of different households so a lossy
//! link is not hammered in lockstep. Message handling is idempotent —
//! duplicated `DayStart`, `Allocation`, or `Bill` envelopes (the fault
//! layer may replay any of them) never reset day state, double-consume,
//! or double-record a bill.

use enki_core::household::{HouseholdId, Preference};
use enki_core::time::Interval;
use enki_core::validation::RawPreference;
use enki_sim::behavior::{consume, ReportStrategy};
use enki_sim::ecc::EccPredictor;
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::UsageProfile;
use enki_telemetry::trace::{stage, TraceContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::message::{Envelope, Message, NodeId, Tick};

/// How the agent chooses what to report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReportSource {
    /// Report straight from the behaviour strategy (known preferences).
    Strategy,
    /// Let the ECC predictor generate the report once it has history,
    /// widening the predicted window by the given flexibility margin;
    /// falls back to the strategy until then.
    Ecc {
        /// Hours added on each side of the predicted window.
        margin: u8,
    },
}

// One retry contract for the whole system: `Backoff` now lives in the
// serve crate (ingestion producers pace themselves with the same
// exponential-plus-jitter schedule), re-exported here so
// `enki_agents::household::Backoff` keeps working.
pub use enki_serve::backoff::Backoff;

/// One household's view of the current day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
struct DayState {
    day: u64,
    report_deadline: Tick,
    meter_deadline: Tick,
    /// Tick the next report (re-)send is due; 0 means immediately.
    next_report_at: Tick,
    report_attempts: u32,
    allocation: Option<Interval>,
    consumed: Option<Interval>,
    /// Tick the next meter-reading (re-)send is due; 0 means immediately.
    next_reading_at: Tick,
    reading_attempts: u32,
    bill: Option<f64>,
}

/// A household ECC agent.
#[derive(Debug, Clone, PartialEq)]
pub struct HouseholdAgent {
    id: HouseholdId,
    profile: UsageProfile,
    truth_source: TruthSource,
    strategy: ReportStrategy,
    report_source: ReportSource,
    ecc: EccPredictor,
    backoff: Backoff,
    allocation_grace: Tick,
    rng: StdRng,
    state: Option<DayState>,
    bills: Vec<(u64, f64)>,
    /// When set, reports go out as this raw payload instead of the
    /// validated preference — modelling a compromised or buggy ECC. The
    /// appliance still consumes according to the household's truth.
    raw_report_override: Option<RawPreference>,
    /// Namespace for the causal contexts stamped onto outgoing
    /// envelopes; runtimes set it to their run seed so both ends of the
    /// wire derive identical ids.
    trace_seed: u64,
}

impl HouseholdAgent {
    /// Creates an agent. Retry jitter is seeded from the household id, so
    /// a roster of agents is deterministic as a whole.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "expects on compile-time constants (smoothing 0.3, deferment 0) inside \
                  the infallible agent tick; not input-reachable"
    )]
    pub fn new(
        id: HouseholdId,
        profile: UsageProfile,
        truth_source: TruthSource,
        strategy: ReportStrategy,
        report_source: ReportSource,
    ) -> Self {
        Self {
            id,
            profile,
            truth_source,
            strategy,
            report_source,
            ecc: EccPredictor::new(0.3).expect("0.3 is a valid smoothing factor"),
            backoff: Backoff::default(),
            allocation_grace: 10,
            rng: StdRng::seed_from_u64(0xECC0 ^ u64::from(id.index())),
            state: None,
            bills: Vec::new(),
            raw_report_override: None,
            trace_seed: 0,
        }
    }

    /// Sets the namespace seed for outgoing causal trace contexts.
    /// Runtimes call this with their run seed so every agent derives
    /// the same ids for the same report journey.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// Makes the agent report the given raw payload every day instead of
    /// its real preference — fault injection for a compromised or buggy
    /// ECC. The appliance still consumes according to the household's
    /// truth, so the center's admission layer (not this agent) decides
    /// what the malformed report means.
    #[must_use]
    pub fn with_raw_report_override(mut self, raw: RawPreference) -> Self {
        self.raw_report_override = Some(raw);
        self
    }

    /// Sets or clears the raw-report override mid-run — compromising (or
    /// repairing) a running ECC. See
    /// [`with_raw_report_override`](Self::with_raw_report_override).
    pub fn set_raw_report_override(&mut self, raw: Option<RawPreference>) {
        self.raw_report_override = raw;
    }

    /// Overrides the retry backoff base (ticks before the first re-send
    /// while unanswered); the exponential cap is set to twice the base.
    #[must_use]
    pub fn with_retry_interval(mut self, retry_interval: Tick) -> Self {
        let base = retry_interval.max(1);
        self.backoff = Backoff::new(base, base.saturating_mul(2));
        self
    }

    /// Overrides the full retry backoff schedule.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Ticks past the report deadline the agent waits for a late
    /// allocation before consuming without one (network latency slack).
    #[must_use]
    pub fn with_allocation_grace(mut self, grace: Tick) -> Self {
        self.allocation_grace = grace;
        self
    }

    /// The agent's network address.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        NodeId::Household(self.id)
    }

    /// The household id.
    #[must_use]
    pub fn id(&self) -> HouseholdId {
        self.id
    }

    /// Bills received so far, as `(day, amount)` pairs.
    #[must_use]
    pub fn bills(&self) -> &[(u64, f64)] {
        &self.bills
    }

    /// The ECC predictor (e.g. to inspect the learned pattern).
    #[must_use]
    pub fn ecc(&self) -> &EccPredictor {
        &self.ecc
    }

    /// The household's true preference for the day.
    #[must_use]
    pub fn truth(&self) -> Preference {
        match self.truth_source {
            TruthSource::Wide => self.profile.wide(),
            TruthSource::Narrow => self.profile.narrow(),
        }
    }

    fn report_preference(&self) -> Preference {
        match self.report_source {
            ReportSource::Strategy => self.strategy.report(&self.profile),
            ReportSource::Ecc { margin } => self
                .ecc
                .predict(self.truth().duration(), margin)
                .unwrap_or_else(|| self.strategy.report(&self.profile)),
        }
    }

    fn send_report(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        let Some(state) = self.state else {
            return;
        };
        let preference = self
            .raw_report_override
            .unwrap_or_else(|| self.report_preference().into());
        outbox.push(Envelope {
            from: NodeId::Household(self.id),
            to: NodeId::Center,
            message: Message::SubmitReport {
                day: state.day,
                preference,
            },
            trace: Some(TraceContext::report_stage(
                self.trace_seed,
                state.day,
                u64::from(self.id.index()),
                stage::REPORT,
            )),
        });
        let delay = self.backoff.delay(state.report_attempts, &mut self.rng);
        if let Some(state) = self.state.as_mut() {
            state.report_attempts += 1;
            state.next_report_at = now + delay;
        }
    }

    /// Handles a delivered message.
    pub fn on_message(
        &mut self,
        now: Tick,
        from: NodeId,
        message: Message,
        outbox: &mut Vec<Envelope>,
    ) {
        if from != NodeId::Center {
            return; // households only talk to the center
        }
        match message {
            Message::DayStart {
                day,
                report_deadline,
                meter_deadline,
            } => {
                // Idempotent: a duplicated or re-broadcast DayStart for
                // the day already in progress (or an older, reordered
                // one) must not reset state — that would discard the
                // allocation and double-observe consumption.
                if self.state.is_some_and(|s| day <= s.day) {
                    return;
                }
                self.state = Some(DayState {
                    day,
                    report_deadline,
                    meter_deadline,
                    ..DayState::default()
                });
                self.send_report(now, outbox);
            }
            Message::Allocation { day, window } => {
                if let Some(state) = self.state.as_mut() {
                    if state.day == day {
                        state.allocation = Some(window);
                    }
                }
            }
            Message::Bill { day, amount } => {
                if let Some(state) = self.state.as_mut() {
                    if state.day == day && state.bill.is_none() {
                        state.bill = Some(amount);
                        self.bills.push((day, amount));
                    }
                }
            }
            Message::SubmitReport { .. } | Message::MeterReading { .. } => {}
        }
    }

    /// Advances local time: retries the report (with backoff) while
    /// unallocated, consumes once the reporting phase ends, and retries
    /// the meter reading until billed.
    #[expect(
        clippy::expect_used,
        reason = "expects on compile-time constants (smoothing 0.3, deferment 0) inside \
                  the infallible agent tick; not input-reachable"
    )]
    pub fn on_tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        let Some(state) = self.state else {
            return;
        };
        // Retry the report while no allocation has arrived.
        if state.allocation.is_none() && now < state.report_deadline {
            if now >= state.next_report_at {
                self.send_report(now, outbox);
            }
            return;
        }
        // Consume once the allocation is in hand, or once the grace
        // period after the report deadline expires without one.
        let may_consume = state.allocation.is_some()
            || now >= state.report_deadline + self.allocation_grace;
        if state.consumed.is_none() && now >= state.report_deadline && may_consume {
            let truth = self.truth();
            let window = match state.allocation {
                Some(s) => consume(&truth, s),
                // No allocation ever arrived: consume at the preferred
                // start, like a household without a mechanism.
                None => truth
                    .window_at_deferment(0)
                    .expect("deferment 0 is always feasible"),
            };
            self.ecc.observe(window);
            if let Some(state) = self.state.as_mut() {
                state.consumed = Some(window);
            }
        }
        // Send / retry the meter reading until the bill arrives.
        let Some(state) = self.state else { return };
        if let Some(window) = state.consumed {
            if state.bill.is_none() && now < state.meter_deadline && now >= state.next_reading_at
            {
                outbox.push(Envelope {
                    from: NodeId::Household(self.id),
                    to: NodeId::Center,
                    message: Message::MeterReading {
                        day: state.day,
                        window,
                    },
                    // Meter readings feed settlement but are not one of
                    // the canonical report stages: they hang off the
                    // day root on their own labelled branch.
                    trace: Some(
                        TraceContext::day_root(self.trace_seed, state.day)
                            .child_salted("meter", u64::from(self.id.index())),
                    ),
                });
                let delay = self.backoff.delay(state.reading_attempts, &mut self.rng);
                if let Some(state) = self.state.as_mut() {
                    state.reading_attempts += 1;
                    state.next_reading_at = now + delay;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> UsageProfile {
        UsageProfile::new(
            Preference::new(18, 20, 2).unwrap(),
            Preference::new(16, 24, 2).unwrap(),
            5.0,
        )
        .unwrap()
    }

    fn agent() -> HouseholdAgent {
        HouseholdAgent::new(
            HouseholdId::new(0),
            profile(),
            TruthSource::Narrow,
            ReportStrategy::TruthfulNarrow,
            ReportSource::Strategy,
        )
        .with_retry_interval(3)
    }

    fn day_start(day: u64) -> Message {
        Message::DayStart {
            day,
            report_deadline: 30,
            meter_deadline: 70,
        }
    }

    #[test]
    fn day_start_triggers_a_report() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        assert_eq!(outbox.len(), 1);
        assert!(matches!(
            outbox[0].message,
            Message::SubmitReport { day: 1, .. }
        ));
    }

    #[test]
    fn report_is_retried_until_allocation_arrives() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        outbox.clear();
        a.on_tick(1, &mut outbox);
        assert!(outbox.is_empty(), "retry waits for the interval");
        a.on_tick(3, &mut outbox);
        assert_eq!(outbox.len(), 1, "first retry fires after the base interval");
        // Allocation stops the retries.
        a.on_message(
            4,
            NodeId::Center,
            Message::Allocation {
                day: 1,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        outbox.clear();
        a.on_tick(10, &mut outbox);
        assert!(outbox.is_empty());
    }

    #[test]
    fn retry_delays_grow_exponentially_to_the_cap() {
        let mut a = HouseholdAgent::new(
            HouseholdId::new(0),
            profile(),
            TruthSource::Narrow,
            ReportStrategy::TruthfulNarrow,
            ReportSource::Strategy,
        )
        .with_backoff(Backoff::new(2, 8));
        let mut outbox = Vec::new();
        a.on_message(
            0,
            NodeId::Center,
            Message::DayStart {
                day: 1,
                report_deadline: 200,
                meter_deadline: 300,
            },
            &mut outbox,
        );
        assert_eq!(outbox.len(), 1, "initial report sent with the DayStart");
        outbox.clear();
        let mut sends = vec![0]; // the initial send, at tick 0
        for t in 1..100 {
            a.on_tick(t, &mut outbox);
            if !outbox.is_empty() {
                sends.push(t);
                outbox.clear();
            }
        }
        assert!(sends.len() >= 5, "retries keep firing: {sends:?}");
        let gaps: Vec<Tick> = sends.windows(2).map(|w| w[1] - w[0]).collect();
        // First gap is the base; gaps grow but never exceed cap + jitter.
        assert_eq!(gaps[0], 2);
        assert!(gaps[1] >= 4, "second delay doubles: {gaps:?}");
        assert!(
            gaps.iter().all(|&g| g <= 8 + 3),
            "delays stay bounded by cap + jitter: {gaps:?}"
        );
        // The tail is capped: late gaps stop growing.
        let tail = &gaps[3..];
        assert!(
            tail.iter().all(|&g| (8..=11).contains(&g)),
            "tail delays sit at the cap: {gaps:?}"
        );
    }

    #[test]
    fn duplicate_day_start_does_not_reset_state() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        a.on_message(
            2,
            NodeId::Center,
            Message::Allocation {
                day: 1,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        outbox.clear();
        // A duplicated / re-broadcast DayStart for the same day arrives.
        a.on_message(3, NodeId::Center, day_start(1), &mut outbox);
        assert!(outbox.is_empty(), "no re-report for a replayed DayStart");
        a.on_tick(30, &mut outbox);
        assert_eq!(a.ecc().days_observed(), 1, "consumption observed once");
        // An older day's DayStart (reordered) is also ignored.
        a.on_message(31, NodeId::Center, day_start(0), &mut outbox);
        a.on_tick(32, &mut outbox);
        assert_eq!(a.ecc().days_observed(), 1);
    }

    #[test]
    fn consumption_follows_compatible_allocation() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        a.on_message(
            2,
            NodeId::Center,
            Message::Allocation {
                day: 1,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        outbox.clear();
        a.on_tick(30, &mut outbox); // past the report deadline: consume
        assert_eq!(outbox.len(), 1);
        match outbox[0].message {
            Message::MeterReading { day: 1, window } => {
                assert_eq!(window, Interval::new(18, 20).unwrap());
            }
            ref m => panic!("expected a meter reading, got {m:?}"),
        }
        assert_eq!(a.ecc().days_observed(), 1);
    }

    #[test]
    fn missing_allocation_falls_back_to_preferred_start() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        outbox.clear();
        // Never allocated: waits out the grace period, then falls back.
        a.on_tick(31, &mut outbox);
        assert!(outbox.is_empty(), "still within the allocation grace");
        a.on_tick(41, &mut outbox);
        match outbox.last().map(|e| e.message) {
            Some(Message::MeterReading { window, .. }) => {
                assert_eq!(window, Interval::new(18, 20).unwrap());
            }
            other => panic!("expected a meter reading, got {other:?}"),
        }
    }

    #[test]
    fn bill_is_recorded_once() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        a.on_message(40, NodeId::Center, Message::Bill { day: 1, amount: 3.5 }, &mut outbox);
        a.on_message(41, NodeId::Center, Message::Bill { day: 1, amount: 3.5 }, &mut outbox);
        assert_eq!(a.bills(), &[(1, 3.5)]);
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut a = agent();
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(2), &mut outbox);
        a.on_message(
            1,
            NodeId::Center,
            Message::Allocation {
                day: 1, // previous day
                window: Interval::new(10, 12).unwrap(),
            },
            &mut outbox,
        );
        a.on_message(2, NodeId::Center, Message::Bill { day: 1, amount: 9.0 }, &mut outbox);
        assert!(a.bills().is_empty());
    }

    #[test]
    fn ecc_report_source_kicks_in_with_history() {
        let mut a = HouseholdAgent::new(
            HouseholdId::new(0),
            profile(),
            TruthSource::Narrow,
            ReportStrategy::TruthfulNarrow,
            ReportSource::Ecc { margin: 2 },
        );
        let mut outbox = Vec::new();
        // Day 1: no history, falls back to the strategy (narrow truth).
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        match outbox[0].message {
            Message::SubmitReport { preference, .. } => {
                assert_eq!(
                    preference,
                    RawPreference::from(Preference::new(18, 20, 2).unwrap())
                );
            }
            ref m => panic!("unexpected {m:?}"),
        }
        a.on_message(
            1,
            NodeId::Center,
            Message::Allocation {
                day: 1,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        a.on_tick(30, &mut outbox);
        outbox.clear();
        // Day 2: the ECC has one observation, so the report widens.
        a.on_message(100, NodeId::Center, day_start(2), &mut outbox);
        match outbox[0].message {
            Message::SubmitReport { preference, .. } => {
                assert_eq!((preference.begin, preference.end), (16.0, 22.0));
            }
            ref m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn raw_report_override_goes_out_verbatim() {
        let mut a = agent().with_raw_report_override(RawPreference::new(f64::NAN, 30.0, -1.0));
        let mut outbox = Vec::new();
        a.on_message(0, NodeId::Center, day_start(1), &mut outbox);
        match outbox[0].message {
            Message::SubmitReport { preference, .. } => {
                assert!(preference.begin.is_nan());
                assert_eq!(preference.end, 30.0);
            }
            ref m => panic!("unexpected {m:?}"),
        }
    }
}
