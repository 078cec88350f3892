//! The wire protocol between household ECC agents and the neighborhood
//! center (the paper's Figure 1, steps 1–4).
//!
//! One day runs: `DayStart` ▸ households `SubmitReport` (with retries) ▸
//! center `Allocation` ▸ households consume and `MeterReading` ▸ center
//! `Bill`. Every message carries its day number so late deliveries from a
//! previous day are recognized and dropped by the recipient.
//!
//! Reports travel as **raw** wire-level preferences
//! ([`RawPreference`]): the center
//! trusts nothing off the wire and classifies every report through the
//! admission layer ([`enki_core::validation`]) before it can reach the
//! mechanism.

use enki_core::household::HouseholdId;
use enki_core::time::Interval;
use enki_core::validation::RawPreference;
use enki_telemetry::trace::TraceContext;
use serde::{Deserialize, Serialize};

/// Discrete simulation time, in ticks.
pub type Tick = u64;

/// A network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeId {
    /// The neighborhood center.
    Center,
    /// One household's ECC unit.
    Household(HouseholdId),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Center => write!(f, "center"),
            NodeId::Household(h) => write!(f, "{h}"),
        }
    }
}

/// Protocol messages (Figure 1's arrows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Center → all: a new day begins; report by `report_deadline`, meters
    /// are read at `meter_deadline`.
    DayStart {
        /// Day number.
        day: u64,
        /// Tick by which reports must arrive.
        report_deadline: Tick,
        /// Tick at which the center settles from meter readings.
        meter_deadline: Tick,
    },
    /// Household → center: the day's preference report (step 1). Carried
    /// raw and unvalidated; the center's admission layer decides whether
    /// it is accepted, clamped, or quarantined.
    SubmitReport {
        /// Day number.
        day: u64,
        /// Reported preference `χ̂`, unvalidated.
        preference: RawPreference,
    },
    /// Center → household: the suggested window (step 2).
    Allocation {
        /// Day number.
        day: u64,
        /// Suggested window `s_i`.
        window: Interval,
    },
    /// Household → center: the realized consumption (step 3; in a real
    /// deployment the smart meter reports this).
    MeterReading {
        /// Day number.
        day: u64,
        /// Realized window `ω_i`.
        window: Interval,
    },
    /// Center → household: the bill (step 4).
    Bill {
        /// Day number.
        day: u64,
        /// Payment `p_i` owed to the center.
        amount: f64,
    },
}

impl Message {
    /// The day this message belongs to.
    #[must_use]
    pub fn day(&self) -> u64 {
        match self {
            Message::DayStart { day, .. }
            | Message::SubmitReport { day, .. }
            | Message::Allocation { day, .. }
            | Message::MeterReading { day, .. }
            | Message::Bill { day, .. } => *day,
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub message: Message,
    /// Deterministic causal context: which stage of which report's
    /// journey this message carries. `None` on untraced paths. Because
    /// contexts are pure functions of `(seed, day, household, stage)`,
    /// a receiver can also re-derive the context from the payload —
    /// the field exists so intermediaries (queues, journals) need not.
    pub trace: Option<TraceContext>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_their_day() {
        let m = Message::SubmitReport {
            day: 3,
            preference: RawPreference::new(18.0, 22.0, 2.0),
        };
        assert_eq!(m.day(), 3);
        let m = Message::Bill { day: 9, amount: 4.5 };
        assert_eq!(m.day(), 9);
    }

    #[test]
    fn node_ids_display() {
        assert_eq!(NodeId::Center.to_string(), "center");
        assert_eq!(NodeId::Household(HouseholdId::new(4)).to_string(), "h4");
    }

    #[test]
    fn envelope_roundtrips_through_serde() {
        let env = Envelope {
            from: NodeId::Household(HouseholdId::new(1)),
            to: NodeId::Center,
            message: Message::MeterReading {
                day: 2,
                window: Interval::new(18, 20).unwrap(),
            },
            trace: Some(TraceContext::report_stage(7, 2, 1, 0)),
        };
        let json = serde_json::to_string(&env).unwrap();
        let back: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(env, back);
    }
}
