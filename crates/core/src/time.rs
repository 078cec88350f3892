//! Time model: hours of a day and half-open hour intervals.
//!
//! The paper models one day as `H = {0, …, 23}` and describes preferences,
//! allocations, and consumptions as contiguous hour windows. We represent a
//! window as a half-open interval `[begin, end)` with
//! `0 ≤ begin < end ≤ 24`, so a window occupies the hour slots
//! `begin, begin+1, …, end−1`. The paper's worked example `χ̂ = (18, 22, 2)`
//! ("consume for two hours at any time between 6PM and 10PM") becomes
//! `Interval::new(18, 22)` with a duration of 2.

use std::fmt;

use serde::{Decode, Deserialize, Encode, Serialize};

use crate::error::{Error, Result};

/// Number of schedulable hour slots in a day (`|H|`).
pub const HOURS_PER_DAY: usize = 24;

/// The exclusive upper bound for interval endpoints (midnight of the next
/// day).
pub const DAY_END: u8 = 24;

/// A half-open interval of hours `[begin, end)` within one day.
///
/// Invariants: `begin < end` and `end ≤ 24`. The interval covers the hour
/// slots `begin..end`, so its [`len`](Interval::len) equals the number of
/// hours of consumption it can host.
///
/// # Examples
///
/// ```
/// # use enki_core::time::Interval;
/// # fn main() -> Result<(), enki_core::Error> {
/// let evening = Interval::new(18, 22)?;
/// assert_eq!(evening.len(), 4);
/// assert!(evening.contains_slot(21));
/// assert!(!evening.contains_slot(22));
/// # Ok(())
/// # }
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Encode, Decode,
)]
pub struct Interval {
    begin: u8,
    end: u8,
}

impl Interval {
    /// Creates the interval `[begin, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] if `begin >= end` or `end > 24`.
    #[must_use = "dropping the Result discards the interval and skips bounds validation"]
    pub fn new(begin: u8, end: u8) -> Result<Self> {
        if begin >= end || end > DAY_END {
            return Err(Error::InvalidInterval { begin, end });
        }
        Ok(Self { begin, end })
    }

    /// Creates the interval starting at `begin` spanning `duration` hours.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] if the window would be empty or
    /// extend past midnight.
    #[must_use = "dropping the Result discards the interval and skips bounds validation"]
    pub fn with_duration(begin: u8, duration: u8) -> Result<Self> {
        let end = begin.checked_add(duration).ok_or(Error::InvalidInterval {
            begin,
            end: u8::MAX,
        })?;
        Self::new(begin, end)
    }

    /// The whole day `[0, 24)`.
    #[must_use]
    pub fn full_day() -> Self {
        Self {
            begin: 0,
            end: DAY_END,
        }
    }

    /// First hour covered by the interval.
    #[must_use]
    pub fn begin(&self) -> u8 {
        self.begin
    }

    /// Exclusive end of the interval.
    #[must_use]
    pub fn end(&self) -> u8 {
        self.end
    }

    /// Number of hour slots covered (`end − begin`). Always at least 1.
    #[must_use]
    pub fn len(&self) -> u8 {
        self.end - self.begin
    }

    /// Always `false`; intervals are non-empty by construction. Provided for
    /// API symmetry with collection types.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether hour slot `h` is covered by this interval.
    #[must_use]
    pub fn contains_slot(&self, h: u8) -> bool {
        self.begin <= h && h < self.end
    }

    /// Whether `other` lies entirely within this interval.
    #[must_use]
    pub fn contains(&self, other: &Interval) -> bool {
        self.begin <= other.begin && other.end <= self.end
    }

    /// Number of hour slots shared with `other` (`|self ∩ other|`).
    ///
    /// This is the paper's overlap measure used both for the valuation input
    /// `τ` and the defection overlap `o_i`.
    #[must_use]
    pub fn overlap(&self, other: &Interval) -> u8 {
        let lo = self.begin.max(other.begin);
        let hi = self.end.min(other.end);
        hi.saturating_sub(lo)
    }

    /// Iterator over the hour slots covered by the interval.
    pub fn slots(&self) -> impl Iterator<Item = u8> + '_ {
        self.begin..self.end
    }

    /// The interval shifted later by `hours`, if it still fits in the day.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] if the shifted interval would
    /// extend past midnight.
    #[must_use = "dropping the Result loses the shifted interval and hides an out-of-day shift"]
    pub fn shifted(&self, hours: u8) -> Result<Self> {
        Self::new(
            self.begin.saturating_add(hours),
            self.end.saturating_add(hours),
        )
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.begin, self.end)
    }
}

impl std::str::FromStr for Interval {
    type Err = Error;

    /// Parses `"18-22"` (and, leniently, `"[18, 22)"`) as the half-open
    /// interval `[18, 22)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] for malformed input or an
    /// interval that does not fit the day.
    fn from_str(s: &str) -> Result<Self> {
        let cleaned: String = s
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '-' || *c == ',')
            .collect();
        let mut parts = cleaned.split(['-', ',']).filter(|p| !p.is_empty());
        let begin = parts
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or(Error::InvalidInterval { begin: 0, end: 0 })?;
        let end = parts
            .next()
            .and_then(|p| p.parse::<u8>().ok())
            .ok_or(Error::InvalidInterval { begin, end: 0 })?;
        if parts.next().is_some() {
            return Err(Error::InvalidInterval { begin, end });
        }
        Self::new(begin, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_paper_example() {
        let iv = Interval::new(18, 22).unwrap();
        assert_eq!(iv.begin(), 18);
        assert_eq!(iv.end(), 22);
        assert_eq!(iv.len(), 4);
    }

    #[test]
    fn new_rejects_empty() {
        assert!(matches!(
            Interval::new(5, 5),
            Err(Error::InvalidInterval { begin: 5, end: 5 })
        ));
    }

    #[test]
    fn new_rejects_inverted() {
        assert!(Interval::new(10, 8).is_err());
    }

    #[test]
    fn new_rejects_past_midnight() {
        assert!(Interval::new(20, 25).is_err());
    }

    #[test]
    fn with_duration_matches_new() {
        assert_eq!(
            Interval::with_duration(18, 4).unwrap(),
            Interval::new(18, 22).unwrap()
        );
    }

    #[test]
    fn with_duration_rejects_overflowing_end() {
        assert!(Interval::with_duration(250, 10).is_err());
        assert!(Interval::with_duration(23, 2).is_err());
    }

    #[test]
    fn full_day_spans_all_slots() {
        let day = Interval::full_day();
        assert_eq!(day.len() as usize, HOURS_PER_DAY);
        assert_eq!(day.slots().count(), HOURS_PER_DAY);
    }

    #[test]
    fn contains_slot_is_half_open() {
        let iv = Interval::new(18, 20).unwrap();
        assert!(iv.contains_slot(18));
        assert!(iv.contains_slot(19));
        assert!(!iv.contains_slot(20));
        assert!(!iv.contains_slot(17));
    }

    #[test]
    fn containment_of_subinterval() {
        let outer = Interval::new(16, 24).unwrap();
        let inner = Interval::new(18, 20).unwrap();
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn overlap_matches_paper_example() {
        // Paper §IV-B3: s_i = (14, 18), ω_i = (15, 19) ⇒ overlap 3 of 4.
        let s = Interval::new(14, 18).unwrap();
        let w = Interval::new(15, 19).unwrap();
        assert_eq!(s.overlap(&w), 3);
    }

    #[test]
    fn overlap_disjoint_is_zero() {
        let a = Interval::new(2, 5).unwrap();
        let b = Interval::new(5, 9).unwrap();
        assert_eq!(a.overlap(&b), 0);
        assert_eq!(b.overlap(&a), 0);
    }

    #[test]
    fn overlap_is_symmetric_and_bounded() {
        let a = Interval::new(3, 10).unwrap();
        let b = Interval::new(6, 24).unwrap();
        assert_eq!(a.overlap(&b), b.overlap(&a));
        assert!(a.overlap(&b) <= a.len().min(b.len()));
    }

    #[test]
    fn shifted_moves_window() {
        let iv = Interval::new(10, 12).unwrap();
        assert_eq!(iv.shifted(3).unwrap(), Interval::new(13, 15).unwrap());
        assert!(iv.shifted(13).is_err());
    }

    #[test]
    fn slots_enumerates_covered_hours() {
        let iv = Interval::new(21, 24).unwrap();
        assert_eq!(iv.slots().collect::<Vec<_>>(), vec![21, 22, 23]);
    }

    #[test]
    fn display_formats_half_open() {
        assert_eq!(Interval::new(18, 22).unwrap().to_string(), "[18, 22)");
    }

    #[test]
    fn parses_dash_and_bracket_forms() {
        assert_eq!("18-22".parse::<Interval>().unwrap(), Interval::new(18, 22).unwrap());
        assert_eq!("[18, 22)".parse::<Interval>().unwrap(), Interval::new(18, 22).unwrap());
        assert!("22-18".parse::<Interval>().is_err());
        assert!("18".parse::<Interval>().is_err());
        assert!("18-22-2".parse::<Interval>().is_err());
        assert!("x-y".parse::<Interval>().is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let iv = Interval::new(7, 13).unwrap();
        assert_eq!(iv.to_string().parse::<Interval>().unwrap(), iv);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Interval::new(3, 5).unwrap();
        let b = Interval::new(3, 7).unwrap();
        let c = Interval::new(4, 5).unwrap();
        assert!(a < b);
        assert!(b < c);
    }
}
