//! Load-shedding vocabulary and counters.
//!
//! When offered load outruns the drain rate, something must be dropped.
//! The policy is **cheapest-first**: work is ranked by what losing it
//! costs the day's settlement, and the cheapest work goes first.
//!
//! * A report from a household with a standing profile at the center is
//!   [`ShedCost::Replaceable`]: shedding it degrades the day's input
//!   from fresh data to the standing model — the mechanism still
//!   schedules the household, at slightly staler fidelity.
//! * A report from a household the center has no standing model for is
//!   [`ShedCost::Fresh`]: shedding it excludes the household from the
//!   day entirely. These are shed only when nothing cheaper remains.
//!
//! Every drop is attributed to exactly one [`ShedClass`] and counted in
//! [`ShedStats`], so an overloaded run can always answer "what did we
//! lose, and why".

use std::fmt;

use serde::{Decode, Deserialize, Encode, Serialize};

/// How expensive it is to shed one queued report.
///
/// The ordering is the shedding priority: `Replaceable < Fresh`, i.e.
/// replaceable work is cheaper and goes first.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Encode, Decode,
)]
pub enum ShedCost {
    /// The center holds a standing profile for this household; the
    /// admission fallback path can stand in for the report.
    Replaceable,
    /// No standing profile exists; shedding excludes the household from
    /// the day.
    Fresh,
}

/// Why a unit of work was dropped.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum ShedClass {
    /// The frame failed to decode and was quarantined by the codec.
    Malformed,
    /// The report's admission deadline had already passed on arrival or
    /// at drain time.
    Stale,
    /// Queue wait projected past the admission deadline: admitted-late
    /// work is worthless, so it is shed *early*, at enqueue time.
    DeadlineRisk,
    /// Evicted from a full queue to make room for more valuable work
    /// (cheapest-first: only replaceable work is ever evicted).
    Evicted,
    /// The queue was full and nothing cheaper could be evicted; the
    /// producer was told to back off and retry.
    Overflow,
    /// The batch panicked mid-classification and was contained by
    /// `catch_unwind`; none of its reports are trusted.
    Poisoned,
}

impl ShedClass {
    /// Every class, in a stable order (for iteration and reporting).
    pub const ALL: [ShedClass; 6] = [
        ShedClass::Malformed,
        ShedClass::Stale,
        ShedClass::DeadlineRisk,
        ShedClass::Evicted,
        ShedClass::Overflow,
        ShedClass::Poisoned,
    ];

    /// Stable metric-name suffix (`serve.shed.{key}`).
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::Malformed => "malformed",
            Self::Stale => "stale",
            Self::DeadlineRisk => "deadline_risk",
            Self::Evicted => "evicted",
            Self::Overflow => "overflow",
            Self::Poisoned => "poisoned",
        }
    }
}

impl fmt::Display for ShedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// Per-class shed counters.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize, Encode, Decode,
)]
pub struct ShedStats {
    /// Reports lost to malformed frames.
    pub malformed: u64,
    /// Reports whose deadline had already passed.
    pub stale: u64,
    /// Reports shed early because queue wait projected past the deadline.
    pub deadline_risk: u64,
    /// Reports evicted from a full queue by more valuable work.
    pub evicted: u64,
    /// Reports dropped because the queue was full and nothing cheaper
    /// could yield (the producer saw backpressure for these).
    pub overflow: u64,
    /// Reports lost to a poisoned (panicking) batch.
    pub poisoned: u64,
}

impl ShedStats {
    /// Adds `n` drops of the given class.
    pub fn record(&mut self, class: ShedClass, n: u64) {
        match class {
            ShedClass::Malformed => self.malformed += n,
            ShedClass::Stale => self.stale += n,
            ShedClass::DeadlineRisk => self.deadline_risk += n,
            ShedClass::Evicted => self.evicted += n,
            ShedClass::Overflow => self.overflow += n,
            ShedClass::Poisoned => self.poisoned += n,
        }
    }

    /// The counter for one class.
    #[must_use]
    pub fn get(&self, class: ShedClass) -> u64 {
        match class {
            ShedClass::Malformed => self.malformed,
            ShedClass::Stale => self.stale,
            ShedClass::DeadlineRisk => self.deadline_risk,
            ShedClass::Evicted => self.evicted,
            ShedClass::Overflow => self.overflow,
            ShedClass::Poisoned => self.poisoned,
        }
    }

    /// Total reports shed across every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        ShedClass::ALL.iter().map(|&c| self.get(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaceable_is_cheaper_than_fresh() {
        assert!(ShedCost::Replaceable < ShedCost::Fresh);
    }

    #[test]
    fn stats_roundtrip_every_class() {
        let mut s = ShedStats::default();
        for (i, &class) in ShedClass::ALL.iter().enumerate() {
            s.record(class, (i + 1) as u64);
        }
        for (i, &class) in ShedClass::ALL.iter().enumerate() {
            assert_eq!(s.get(class), (i + 1) as u64, "{class}");
        }
        assert_eq!(s.total(), 21);
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<_> = ShedClass::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ShedClass::ALL.len());
    }
}
