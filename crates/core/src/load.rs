//! Hourly load profiles (`l_h` in the paper).
//!
//! A [`LoadProfile`] is the aggregated consumption of the neighborhood for
//! each hour of the day, in kWh. It is the input to the pricing function
//! `κ(ω) = Σ_h σ·l_h²` and to the peak-to-average-ratio metric reported in
//! Figure 4.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Decode, Deserialize, Encode, Serialize};

use crate::time::{Interval, HOURS_PER_DAY};

/// Aggregated hourly load over one day, in kWh per hour slot.
///
/// # Examples
///
/// ```
/// # use enki_core::load::LoadProfile;
/// # use enki_core::time::Interval;
/// # fn main() -> Result<(), enki_core::Error> {
/// let mut load = LoadProfile::new();
/// load.add_window(Interval::new(18, 20)?, 2.0);
/// load.add_window(Interval::new(19, 21)?, 2.0);
/// assert_eq!(load.peak(), 4.0);
/// assert_eq!(load.total(), 8.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct LoadProfile {
    hours: [f64; HOURS_PER_DAY],
}

impl LoadProfile {
    /// An empty (all-zero) profile.
    #[must_use]
    pub fn new() -> Self {
        Self {
            hours: [0.0; HOURS_PER_DAY],
        }
    }

    /// Builds a profile from per-hour loads.
    #[must_use]
    pub fn from_hours(hours: [f64; HOURS_PER_DAY]) -> Self {
        Self { hours }
    }

    /// Builds the profile of a set of consumption windows, each drawing
    /// `rate` kW while active.
    #[must_use]
    pub fn from_windows<'a, I>(windows: I, rate: f64) -> Self
    where
        I: IntoIterator<Item = &'a Interval>,
    {
        let mut profile = Self::new();
        for w in windows {
            profile.add_window(*w, rate);
        }
        profile
    }

    /// Load at hour `h` in kWh.
    ///
    /// # Panics
    ///
    /// Panics if `h >= 24`.
    #[must_use]
    pub fn at(&self, h: u8) -> f64 {
        self.hours[usize::from(h)]
    }

    /// Adds `rate` kWh to every hour covered by `window`.
    pub fn add_window(&mut self, window: Interval, rate: f64) {
        for h in window.slots() {
            self.hours[usize::from(h)] += rate;
        }
    }

    /// Removes `rate` kWh from every hour covered by `window`.
    pub fn remove_window(&mut self, window: Interval, rate: f64) {
        for h in window.slots() {
            self.hours[usize::from(h)] -= rate;
        }
    }

    /// Adds `amount` kWh at a single hour.
    ///
    /// # Panics
    ///
    /// Panics if `h >= 24`.
    pub fn add_at(&mut self, h: u8, amount: f64) {
        self.hours[usize::from(h)] += amount;
    }

    /// Maximum hourly load (the peak).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.hours.iter().copied().fold(0.0_f64, f64::max)
    }

    /// Total daily energy (`Σ_h l_h`).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.hours.iter().sum()
    }

    /// Mean hourly load over the 24 slots.
    #[must_use]
    pub fn average(&self) -> f64 {
        self.total() / HOURS_PER_DAY as f64
    }

    /// Mean hourly load over the hours that carry any load at all.
    ///
    /// The paper's peak-to-average ratio divides by the average over *active*
    /// hours; otherwise small neighborhoods with short nightly quiet periods
    /// would inflate the PAR mechanically.
    #[must_use]
    pub fn active_average(&self) -> f64 {
        let active: Vec<f64> = self
            .hours
            .iter()
            .copied()
            .filter(|&l| l > 0.0)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Peak-to-average ratio over active hours. Zero for an empty profile.
    #[must_use]
    pub fn peak_to_average(&self) -> f64 {
        let avg = self.active_average();
        if crate::float::approx_zero(avg) {
            0.0
        } else {
            self.peak() / avg
        }
    }

    /// Sum of squared hourly loads (`Σ_h l_h²`), the σ-free part of the
    /// quadratic cost. Useful as an allocation tie-break objective.
    #[must_use]
    pub fn sum_of_squares(&self) -> f64 {
        self.hours.iter().map(|l| l * l).sum()
    }

    /// Change in [`sum_of_squares`](Self::sum_of_squares) if `rate` kWh
    /// were added to every hour of `window` (pass a negative `rate` for a
    /// removal). Does not mutate; costs O(window duration) instead of a
    /// full 24-hour recompute, which is what makes move evaluation in the
    /// solvers O(duration) per candidate.
    #[must_use]
    pub fn sum_of_squares_delta(&self, window: Interval, rate: f64) -> f64 {
        window
            .slots()
            .map(|h| {
                let l = self.at(h);
                (l + rate) * (l + rate) - l * l
            })
            .sum()
    }

    /// Iterator over `(hour, load)` pairs.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "h indexes the [f64; HOURS_PER_DAY] array, so h < HOURS_PER_DAY fits u8"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (u8, f64)> + '_ {
        self.hours
            .iter()
            .enumerate()
            .map(|(h, &l)| (h as u8, l))
    }

    /// The raw per-hour loads.
    #[must_use]
    pub fn hours(&self) -> &[f64; HOURS_PER_DAY] {
        &self.hours
    }

    /// The hour with the maximum load (first one on ties), or `None` when
    /// the profile is all-zero.
    #[must_use]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "h indexes the [f64; HOURS_PER_DAY] array, so h < HOURS_PER_DAY fits u8"
    )]
    pub fn peak_hour(&self) -> Option<u8> {
        let peak = self.peak();
        if crate::float::approx_zero(peak) {
            return None;
        }
        self.hours
            .iter()
            .position(|&l| l == peak)
            .map(|h| h as u8)
    }
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl Add for LoadProfile {
    type Output = LoadProfile;

    fn add(mut self, rhs: LoadProfile) -> LoadProfile {
        self += rhs;
        self
    }
}

impl AddAssign for LoadProfile {
    fn add_assign(&mut self, rhs: LoadProfile) {
        for (l, r) in self.hours.iter_mut().zip(rhs.hours.iter()) {
            *l += r;
        }
    }
}

impl fmt::Display for LoadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (h, l) in self.iter() {
            if h > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:.1}")?;
        }
        write!(f, "]")
    }
}

impl<'a> FromIterator<&'a Interval> for LoadProfile {
    /// Collects unit-rate (1 kWh) windows into a profile.
    fn from_iter<I: IntoIterator<Item = &'a Interval>>(iter: I) -> Self {
        Self::from_windows(iter, 1.0)
    }
}

/// Aggregate load together with its running `Σ_h l_h²`, maintained
/// incrementally: adding or removing a window updates both in
/// O(window duration), so evaluating a candidate move never needs the
/// full 24-hour recompute. In debug builds every mutation cross-checks
/// the running sum against [`LoadProfile::sum_of_squares`].
///
/// # Examples
///
/// ```
/// # use enki_core::load::IncrementalCost;
/// # use enki_core::time::Interval;
/// # fn main() -> Result<(), enki_core::Error> {
/// let mut cost = IncrementalCost::new();
/// let w = Interval::new(18, 20)?;
/// let delta = cost.add_window(w, 2.0);
/// assert_eq!(delta, 8.0);
/// assert_eq!(cost.sum_of_squares(), 8.0);
/// cost.remove_window(w, 2.0);
/// assert_eq!(cost.sum_of_squares(), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalCost {
    load: LoadProfile,
    sumsq: f64,
}

impl IncrementalCost {
    /// Empty state: zero load, zero cost.
    #[must_use]
    pub fn new() -> Self {
        Self {
            load: LoadProfile::new(),
            sumsq: 0.0,
        }
    }

    /// Starts from an existing profile (one full recompute, then
    /// everything is incremental).
    #[must_use]
    pub fn from_profile(load: LoadProfile) -> Self {
        let sumsq = load.sum_of_squares();
        Self { load, sumsq }
    }

    /// Builds the state of a set of consumption windows at `rate` kW.
    #[must_use]
    pub fn from_windows<'a, I>(windows: I, rate: f64) -> Self
    where
        I: IntoIterator<Item = &'a Interval>,
    {
        Self::from_profile(LoadProfile::from_windows(windows, rate))
    }

    /// The aggregate load profile.
    #[must_use]
    pub fn load(&self) -> &LoadProfile {
        &self.load
    }

    /// The running `Σ_h l_h²`.
    #[must_use]
    pub fn sum_of_squares(&self) -> f64 {
        self.sumsq
    }

    /// `Σl²` change if `rate` kWh were added over `window` — a pure
    /// preview, no mutation. O(window duration).
    #[must_use]
    pub fn preview_add(&self, window: Interval, rate: f64) -> f64 {
        self.load.sum_of_squares_delta(window, rate)
    }

    /// Adds a window, updating load and running cost; returns the `Σl²`
    /// delta (equal to what [`preview_add`](Self::preview_add) reported).
    pub fn add_window(&mut self, window: Interval, rate: f64) -> f64 {
        let delta = self.load.sum_of_squares_delta(window, rate);
        self.load.add_window(window, rate);
        self.sumsq += delta;
        self.cross_check();
        delta
    }

    /// Removes a window, updating load and running cost; returns the
    /// (typically negative) `Σl²` delta.
    pub fn remove_window(&mut self, window: Interval, rate: f64) -> f64 {
        let delta = self.load.sum_of_squares_delta(window, -rate);
        self.load.remove_window(window, rate);
        self.sumsq += delta;
        self.cross_check();
        delta
    }

    fn cross_check(&self) {
        debug_assert!(
            crate::float::approx_eq(self.sumsq, self.load.sum_of_squares()),
            "incremental Σl² drifted from the full recompute: {} vs {}",
            self.sumsq,
            self.load.sum_of_squares(),
        );
    }
}

impl Default for IncrementalCost {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Interval;

    fn iv(b: u8, e: u8) -> Interval {
        Interval::new(b, e).unwrap()
    }

    #[test]
    fn empty_profile_is_zero_everywhere() {
        let p = LoadProfile::new();
        assert_eq!(p.total(), 0.0);
        assert_eq!(p.peak(), 0.0);
        assert_eq!(p.peak_to_average(), 0.0);
        assert_eq!(p.peak_hour(), None);
    }

    #[test]
    fn add_window_accumulates() {
        let mut p = LoadProfile::new();
        p.add_window(iv(18, 20), 2.0);
        p.add_window(iv(19, 21), 2.0);
        assert_eq!(p.at(18), 2.0);
        assert_eq!(p.at(19), 4.0);
        assert_eq!(p.at(20), 2.0);
        assert_eq!(p.at(21), 0.0);
        assert_eq!(p.peak_hour(), Some(19));
    }

    #[test]
    fn remove_window_undoes_add() {
        let mut p = LoadProfile::new();
        p.add_window(iv(5, 9), 2.0);
        p.remove_window(iv(5, 9), 2.0);
        assert_eq!(p, LoadProfile::new());
    }

    #[test]
    fn from_windows_matches_manual_accumulation() {
        let windows = vec![iv(18, 20), iv(18, 20), iv(20, 22)];
        let p = LoadProfile::from_windows(&windows, 2.0);
        assert_eq!(p.at(18), 4.0);
        assert_eq!(p.at(20), 2.0);
        assert_eq!(p.total(), 12.0);
    }

    #[test]
    fn par_uses_active_hours() {
        let mut p = LoadProfile::new();
        // 2 kWh for 4 hours, flat: PAR should be exactly 1.
        p.add_window(iv(10, 14), 2.0);
        assert!((p.peak_to_average() - 1.0).abs() < 1e-12);
        // Stack a second household on one hour: peak 4, active avg 10/4.
        p.add_window(iv(10, 11), 2.0);
        assert!((p.peak_to_average() - 4.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn average_divides_by_full_day() {
        let mut p = LoadProfile::new();
        p.add_window(iv(0, 24), 1.0);
        assert!((p.average() - 1.0).abs() < 1e-12);
        assert!((p.active_average() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_squares_is_quadratic() {
        let mut p = LoadProfile::new();
        p.add_window(iv(3, 5), 3.0);
        assert_eq!(p.sum_of_squares(), 18.0);
    }

    #[test]
    fn add_assign_sums_hourly() {
        let mut a = LoadProfile::new();
        a.add_window(iv(1, 3), 1.0);
        let mut b = LoadProfile::new();
        b.add_window(iv(2, 4), 2.0);
        let c = a + b;
        assert_eq!(c.at(1), 1.0);
        assert_eq!(c.at(2), 3.0);
        assert_eq!(c.at(3), 2.0);
    }

    #[test]
    fn collect_unit_windows() {
        let windows = [iv(4, 6), iv(5, 7)];
        let p: LoadProfile = windows.iter().collect();
        assert_eq!(p.at(5), 2.0);
        assert_eq!(p.total(), 4.0);
    }

    #[test]
    fn display_is_compact() {
        let p = LoadProfile::new();
        let s = p.to_string();
        assert!(s.starts_with('['));
        assert!(s.ends_with(']'));
        assert_eq!(s.matches("0.0").count(), 24);
    }

    #[test]
    fn sum_of_squares_delta_matches_recompute() {
        use crate::float::approx_eq;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x10AD);
        for _ in 0..200 {
            let mut p = LoadProfile::new();
            for _ in 0..rng.random_range(0..6) {
                let b = rng.random_range(0..22u8);
                let e = rng.random_range(b + 1..=24u8.min(b + 6));
                p.add_window(iv(b, e), rng.random_range(1..=4) as f64 * 0.5);
            }
            let b = rng.random_range(0..22u8);
            let e = rng.random_range(b + 1..=24u8.min(b + 6));
            let w = iv(b, e);
            let rate = if rng.random_range(0..2) == 0 { 2.0 } else { -1.5 };
            let delta = p.sum_of_squares_delta(w, rate);
            let before = p.sum_of_squares();
            let mut after = p;
            after.add_window(w, rate);
            assert!(
                approx_eq(delta, after.sum_of_squares() - before),
                "delta {delta} vs recompute {}",
                after.sum_of_squares() - before
            );
        }
    }

    #[test]
    fn incremental_cost_tracks_full_recompute_over_random_moves() {
        use crate::float::approx_eq;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let rate = 2.0;
        let mut rng = StdRng::seed_from_u64(0xC057);
        let mut cost = IncrementalCost::new();
        let mut shadow: Vec<Interval> = Vec::new();
        for _ in 0..500 {
            let remove = !shadow.is_empty() && rng.random_range(0..3) == 0;
            if remove {
                let w = shadow.swap_remove(rng.random_range(0..shadow.len()));
                cost.remove_window(w, rate);
            } else {
                let b = rng.random_range(0..22u8);
                let e = rng.random_range(b + 1..=24u8.min(b + 5));
                let w = iv(b, e);
                let preview = cost.preview_add(w, rate);
                let applied = cost.add_window(w, rate);
                assert_eq!(preview, applied, "preview must equal the applied delta");
                shadow.push(w);
            }
            let full = LoadProfile::from_windows(&shadow, rate);
            assert!(
                approx_eq(cost.sum_of_squares(), full.sum_of_squares()),
                "running Σl² {} drifted from recompute {}",
                cost.sum_of_squares(),
                full.sum_of_squares()
            );
            assert_eq!(cost.load(), &full);
        }
    }

    #[test]
    fn incremental_cost_rollback_restores_state() {
        use crate::float::approx_eq;

        // Regression: a rejected move (remove, preview alternatives, put
        // the same window back) must leave the running state equal to the
        // untouched one — the preview must not mutate, and the add must
        // exactly undo the remove.
        let rate = 2.0;
        let windows = [iv(6, 10), iv(8, 12), iv(9, 11)];
        let mut cost = IncrementalCost::from_windows(&windows, rate);
        let reference = cost;
        let removed = cost.remove_window(windows[1], rate);
        for b in 0..20u8 {
            let _ = cost.preview_add(iv(b, b + 3), rate);
        }
        let restored = cost.add_window(windows[1], rate);
        assert!(approx_eq(removed + restored, 0.0));
        assert!(approx_eq(
            cost.sum_of_squares(),
            reference.sum_of_squares()
        ));
        assert_eq!(cost.load(), reference.load());
    }
}
