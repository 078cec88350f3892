//! Households, preferences, and household types.
//!
//! A household's *preference* `χ = (α, β, v)` says it wants `v` contiguous
//! hours of consumption anywhere inside the interval `[α, β)`. Its *type*
//! `θ = (χ, ρ)` adds the private valuation factor `ρ`, a relative measure of
//! willingness to pay (paper §IV-B).

use std::fmt;

use serde::{Decode, Deserialize, Encode, Serialize};

use crate::error::{Error, Result};
use crate::time::Interval;

/// Opaque identifier for a household within a neighborhood.
///
/// # Examples
///
/// ```
/// # use enki_core::household::HouseholdId;
/// let id = HouseholdId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "h3");
/// ```
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Serialize,
    Deserialize,
    Encode,
    Decode,
    Default,
)]
pub struct HouseholdId(u32);

impl HouseholdId {
    /// Creates an id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The raw index backing the id.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.0
    }
}

impl From<u32> for HouseholdId {
    fn from(index: u32) -> Self {
        Self(index)
    }
}

impl fmt::Display for HouseholdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A consumption preference `χ = (α, β, v)`: `v` hours anywhere within the
/// window `[α, β)`.
///
/// Invariant: `1 ≤ v ≤ β − α` (paper: `β − α ≥ v`).
///
/// # Examples
///
/// ```
/// # use enki_core::household::Preference;
/// # fn main() -> Result<(), enki_core::Error> {
/// // "consume power for two hours at any time between 6PM and 10PM"
/// let pref = Preference::new(18, 22, 2)?;
/// assert_eq!(pref.feasible_starts().collect::<Vec<_>>(), vec![18, 19, 20]);
/// # Ok(())
/// # }
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Encode, Decode,
)]
pub struct Preference {
    window: Interval,
    duration: u8,
}

impl Preference {
    /// Creates the preference `(begin, end, duration)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] for a bad window and
    /// [`Error::InvalidDuration`] when the duration is zero or exceeds the
    /// window length.
    #[must_use = "dropping the Result discards the preference and skips interval validation"]
    pub fn new(begin: u8, end: u8, duration: u8) -> Result<Self> {
        Self::with_window(Interval::new(begin, end)?, duration)
    }

    /// Creates a preference from an existing window.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDuration`] when the duration is zero or
    /// exceeds the window length.
    #[must_use = "dropping the Result discards the preference and skips interval validation"]
    pub fn with_window(window: Interval, duration: u8) -> Result<Self> {
        if duration == 0 || duration > window.len() {
            return Err(Error::InvalidDuration {
                duration,
                window_len: window.len(),
            });
        }
        Ok(Self { window, duration })
    }

    /// A preference whose window is exactly its duration (no slack): the
    /// household insists on one specific placement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] if the window does not fit the day.
    #[must_use = "dropping the Result discards the preference and skips interval validation"]
    pub fn exact(begin: u8, duration: u8) -> Result<Self> {
        Self::with_window(Interval::with_duration(begin, duration)?, duration)
    }

    /// The preferred interval `[α, β)`.
    #[must_use]
    pub fn window(&self) -> Interval {
        self.window
    }

    /// Preferred begin hour `α`.
    #[must_use]
    pub fn begin(&self) -> u8 {
        self.window.begin()
    }

    /// Preferred (exclusive) end hour `β`.
    #[must_use]
    pub fn end(&self) -> u8 {
        self.window.end()
    }

    /// Preferred duration `v` in hours.
    #[must_use]
    pub fn duration(&self) -> u8 {
        self.duration
    }

    /// Scheduling slack: the number of alternative placements minus one
    /// (`β − α − v`), i.e. the maximum deferment `d` in Eq. 2.
    #[must_use]
    pub fn slack(&self) -> u8 {
        self.window.len() - self.duration
    }

    /// Iterator over the feasible window begin hours
    /// (`α, α+1, …, β − v`).
    pub fn feasible_starts(&self) -> impl Iterator<Item = u8> + '_ {
        self.begin()..=(self.end() - self.duration)
    }

    /// Iterator over all feasible placement windows, each of length `v`.
    #[expect(
        clippy::expect_used,
        reason = "window arithmetic on an already-validated Preference: feasible starts \
                  and deferments within slack cannot leave the day"
    )]
    pub fn feasible_windows(&self) -> impl Iterator<Item = Interval> + '_ {
        let duration = self.duration;
        self.feasible_starts().map(move |s| {
            Interval::with_duration(s, duration)
                .expect("feasible start always yields a valid in-day window")
        })
    }

    /// The placement with deferment `d` from the preferred begin time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WindowOutsideInterval`] when `d` exceeds
    /// [`slack`](Preference::slack).
    #[must_use = "dropping the Result loses the shifted window and hides an infeasible deferment"]
    #[expect(
        clippy::expect_used,
        reason = "window arithmetic on an already-validated Preference: feasible starts \
                  and deferments within slack cannot leave the day"
    )]
    pub fn window_at_deferment(&self, d: u8) -> Result<Interval> {
        if d > self.slack() {
            let window = Interval::with_duration(self.begin().saturating_add(d), self.duration)
                .unwrap_or(self.window);
            return Err(Error::WindowOutsideInterval {
                window,
                bounds: self.window,
            });
        }
        Ok(Interval::with_duration(self.begin() + d, self.duration)
            .expect("deferment within slack stays inside the day"))
    }

    /// Checks that `window` is a legal realization of this preference:
    /// exactly `v` hours long and inside `[α, β)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DurationMismatch`] or
    /// [`Error::WindowOutsideInterval`] accordingly.
    #[must_use = "an unchecked verdict lets an out-of-window consumption through"]
    pub fn validate_window(&self, window: Interval) -> Result<()> {
        if window.len() != self.duration {
            return Err(Error::DurationMismatch {
                got: window.len(),
                expected: self.duration,
            });
        }
        if !self.window.contains(&window) {
            return Err(Error::WindowOutsideInterval {
                window,
                bounds: self.window,
            });
        }
        Ok(())
    }

    /// The placement within this preference closest to `target`, measured by
    /// window overlap and then by begin-hour distance.
    ///
    /// This models the household-consumption step of the paper's user study:
    /// "selecting real consumption to be within the subject's true interval
    /// and close to his allocation" (§VII-B). If `target` already satisfies
    /// the preference it is returned unchanged.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "window arithmetic on an already-validated Preference: feasible starts \
                  and deferments within slack cannot leave the day"
    )]
    pub fn closest_window(&self, target: Interval) -> Interval {
        if self.validate_window(target).is_ok() {
            return target;
        }
        self.feasible_windows()
            .min_by_key(|w| {
                let dist = i32::from(w.begin()).abs_diff(i32::from(target.begin()));
                (std::cmp::Reverse(w.overlap(&target)), dist, w.begin())
            })
            .expect("a preference always has at least one feasible window")
    }
}

impl fmt::Display for Preference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.window.begin(),
            self.window.end(),
            self.duration
        )
    }
}

impl std::str::FromStr for Preference {
    type Err = Error;

    /// Parses the paper's tuple notation `"(18, 22, 2)"` (or the bare
    /// `"18,22,2"` / `"18-22x2"`) as the preference `χ = (18, 22, 2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInterval`] or [`Error::InvalidDuration`]
    /// for malformed or infeasible input.
    fn from_str(s: &str) -> Result<Self> {
        let cleaned: String = s
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == ',' || *c == '-' || *c == 'x')
            .collect();
        let parts: Vec<u8> = cleaned
            .split([',', '-', 'x'])
            .filter(|p| !p.is_empty())
            .map(|p| p.parse::<u8>())
            .collect::<std::result::Result<_, _>>()
            .map_err(|_| Error::InvalidInterval { begin: 0, end: 0 })?;
        match parts.as_slice() {
            [begin, end, duration] => Self::new(*begin, *end, *duration),
            _ => Err(Error::InvalidInterval { begin: 0, end: 0 }),
        }
    }
}

/// A household's private type `θ = (χ, ρ)`: true preference plus valuation
/// factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HouseholdType {
    /// True preference `χ`.
    pub preference: Preference,
    /// Valuation factor `ρ > 0` (relative willingness to pay).
    pub valuation_factor: f64,
}

impl HouseholdType {
    /// Creates a household type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `valuation_factor` is not a
    /// positive finite number.
    #[must_use = "dropping the Result discards the type and skips flexibility validation"]
    pub fn new(preference: Preference, valuation_factor: f64) -> Result<Self> {
        if !valuation_factor.is_finite() || valuation_factor <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "valuation_factor",
                constraint: "a positive finite number",
            });
        }
        Ok(Self {
            preference,
            valuation_factor,
        })
    }
}

/// A preference report submitted to the neighborhood center by one household.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct Report {
    /// Reporting household.
    pub household: HouseholdId,
    /// Reported preference `χ̂`. The paper assumes the duration component is
    /// always truthful; only the window may be misreported.
    pub preference: Preference,
}

impl Report {
    /// Creates a report.
    #[must_use]
    pub fn new(household: HouseholdId, preference: Preference) -> Self {
        Self {
            household,
            preference,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preference_rejects_duration_exceeding_window() {
        assert!(matches!(
            Preference::new(18, 20, 3),
            Err(Error::InvalidDuration {
                duration: 3,
                window_len: 2
            })
        ));
    }

    #[test]
    fn preference_rejects_zero_duration() {
        assert!(Preference::new(18, 20, 0).is_err());
    }

    #[test]
    fn preference_accepts_tight_window() {
        let p = Preference::new(18, 20, 2).unwrap();
        assert_eq!(p.slack(), 0);
        assert_eq!(p.feasible_starts().collect::<Vec<_>>(), vec![18]);
    }

    #[test]
    fn exact_constructor_has_zero_slack() {
        let p = Preference::exact(7, 3).unwrap();
        assert_eq!(p.window(), Interval::new(7, 10).unwrap());
        assert_eq!(p.slack(), 0);
    }

    #[test]
    fn feasible_windows_all_validate() {
        let p = Preference::new(16, 24, 2).unwrap();
        let windows: Vec<_> = p.feasible_windows().collect();
        assert_eq!(windows.len(), 7);
        for w in windows {
            p.validate_window(w).unwrap();
        }
    }

    #[test]
    fn window_at_deferment_walks_the_window() {
        let p = Preference::new(18, 22, 2).unwrap();
        assert_eq!(
            p.window_at_deferment(0).unwrap(),
            Interval::new(18, 20).unwrap()
        );
        assert_eq!(
            p.window_at_deferment(2).unwrap(),
            Interval::new(20, 22).unwrap()
        );
        assert!(p.window_at_deferment(3).is_err());
    }

    #[test]
    fn validate_window_rejects_wrong_duration() {
        let p = Preference::new(18, 22, 2).unwrap();
        let w = Interval::new(18, 21).unwrap();
        assert!(matches!(
            p.validate_window(w),
            Err(Error::DurationMismatch {
                got: 3,
                expected: 2
            })
        ));
    }

    #[test]
    fn validate_window_rejects_outside_interval() {
        let p = Preference::new(18, 22, 2).unwrap();
        let w = Interval::new(17, 19).unwrap();
        assert!(matches!(
            p.validate_window(w),
            Err(Error::WindowOutsideInterval { .. })
        ));
    }

    #[test]
    fn closest_window_keeps_satisfying_target() {
        let p = Preference::new(16, 24, 2).unwrap();
        let target = Interval::new(20, 22).unwrap();
        assert_eq!(p.closest_window(target), target);
    }

    #[test]
    fn closest_window_snaps_into_true_interval() {
        // Paper §V-B first scenario: true χ = (18, 20, 2), allocation
        // s = (14, 16). The defecting consumption is (18, 20).
        let truth = Preference::new(18, 20, 2).unwrap();
        let allocation = Interval::new(14, 16).unwrap();
        assert_eq!(
            truth.closest_window(allocation),
            Interval::new(18, 20).unwrap()
        );
    }

    #[test]
    fn closest_window_prefers_overlap_over_distance() {
        let truth = Preference::new(10, 16, 3).unwrap();
        // Allocation (13, 16) fits; a target (12, 15) overlapping placement
        // should beat any zero-overlap placement.
        let target = Interval::new(12, 15).unwrap();
        let chosen = truth.closest_window(target);
        assert_eq!(chosen, target);
    }

    #[test]
    fn household_type_rejects_nonpositive_rho() {
        let p = Preference::new(18, 22, 2).unwrap();
        assert!(HouseholdType::new(p, 0.0).is_err());
        assert!(HouseholdType::new(p, -3.0).is_err());
        assert!(HouseholdType::new(p, f64::NAN).is_err());
        assert!(HouseholdType::new(p, 5.0).is_ok());
    }

    #[test]
    fn display_matches_paper_notation() {
        let p = Preference::new(18, 22, 2).unwrap();
        assert_eq!(p.to_string(), "(18, 22, 2)");
    }

    #[test]
    fn parses_paper_and_compact_notations() {
        let expected = Preference::new(18, 22, 2).unwrap();
        assert_eq!("(18, 22, 2)".parse::<Preference>().unwrap(), expected);
        assert_eq!("18,22,2".parse::<Preference>().unwrap(), expected);
        assert_eq!("18-22x2".parse::<Preference>().unwrap(), expected);
        assert!("(18, 22)".parse::<Preference>().is_err());
        assert!("(18, 22, 9)".parse::<Preference>().is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let p = Preference::new(6, 14, 3).unwrap();
        assert_eq!(p.to_string().parse::<Preference>().unwrap(), p);
    }
}
