//! The optimal-allocation problem (Eq. 2).
//!
//! Choose a deferment `d_i ∈ {0, …, β̂_i − α̂_i − v_i}` for every household
//! so that the quadratic neighborhood cost
//! `Σ_h σ·(Σ_i γ_h·r)²` is minimized, where `γ_h` indicates whether
//! household `i`'s window (shifted by `d_i`) covers hour `h`. The paper
//! solved this with IBM CPLEX's MIQP solver; this crate solves it with a
//! from-scratch branch-and-bound ([`crate::exact`]), local search
//! ([`crate::local_search`]), and exhaustive enumeration
//! ([`crate::brute`]).

use std::collections::BTreeMap;

use enki_core::config::EnkiConfig;
use enki_core::household::Preference;
use enki_core::load::LoadProfile;
use enki_core::pricing::QuadraticPricing;
use enki_core::time::{Interval, HOURS_PER_DAY};
use enki_core::{Error, Result};
use serde::{Deserialize, Serialize};

/// An instance of the Eq. 2 scheduling MIQP.
///
/// # Examples
///
/// ```
/// # use enki_solver::problem::AllocationProblem;
/// # use enki_core::household::Preference;
/// # fn main() -> Result<(), enki_core::Error> {
/// let problem = AllocationProblem::new(
///     vec![Preference::new(18, 22, 2)?, Preference::new(18, 20, 2)?],
///     2.0,
///     0.3,
/// )?;
/// assert_eq!(problem.len(), 2);
/// assert_eq!(problem.choices(0), 3); // deferments 0, 1, 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocationProblem {
    preferences: Vec<Preference>,
    rate: f64,
    sigma: f64,
}

impl AllocationProblem {
    /// Creates a problem instance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyNeighborhood`] without households and
    /// [`Error::InvalidConfig`] for non-positive `rate` or `sigma`.
    #[must_use = "dropping the Result discards the problem and skips input validation"]
    pub fn new(preferences: Vec<Preference>, rate: f64, sigma: f64) -> Result<Self> {
        if preferences.is_empty() {
            return Err(Error::EmptyNeighborhood);
        }
        if !rate.is_finite() || rate <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "rate",
                constraint: "a positive finite number",
            });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(Error::InvalidConfig {
                parameter: "sigma",
                constraint: "a positive finite number",
            });
        }
        Ok(Self {
            preferences,
            rate,
            sigma,
        })
    }

    /// Builds the problem from reported preferences and a mechanism
    /// configuration (uses its `rate` and `sigma`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyNeighborhood`] without households.
    #[must_use = "dropping the Result discards the problem and skips input validation"]
    pub fn from_config(preferences: Vec<Preference>, config: &EnkiConfig) -> Result<Self> {
        Self::new(preferences, config.rate(), config.sigma())
    }

    /// Number of households.
    #[must_use]
    pub fn len(&self) -> usize {
        self.preferences.len()
    }

    /// Whether the instance is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.preferences.is_empty()
    }

    /// The reported preferences.
    #[must_use]
    pub fn preferences(&self) -> &[Preference] {
        &self.preferences
    }

    /// Per-household power rating in kW.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Pricing scale `σ`.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The pricing rule the objective uses.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "sigma was checked finite and positive in new(), the only constructor; \
                  pricing() is infallible by that invariant"
    )]
    pub fn pricing(&self) -> QuadraticPricing {
        QuadraticPricing::new(self.sigma).expect("validated at construction")
    }

    /// Number of feasible deferments for household `i`
    /// (`β̂ − α̂ − v + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn choices(&self, i: usize) -> u8 {
        self.preferences[i].slack() + 1
    }

    /// Base-10 logarithm of the search-space size `Π_i choices(i)` — the
    /// quantity that makes exhaustive search infeasible at n = 50.
    #[must_use]
    pub fn log10_search_space(&self) -> f64 {
        (0..self.len())
            .map(|i| f64::from(self.choices(i)).log10())
            .sum()
    }

    /// The consumption windows implied by a deferment vector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WindowOutsideInterval`] when a deferment exceeds its
    /// household's slack, and [`Error::UnknownHousehold`] when the vector
    /// length does not match the household count.
    #[must_use = "dropping the Result loses the windows and hides an infeasible deferment"]
    pub fn windows(&self, deferments: &[u8]) -> Result<Vec<Interval>> {
        if deferments.len() != self.len() {
            return Err(Error::UnknownHousehold(
                enki_core::household::HouseholdId::new(
                    u32::try_from(deferments.len()).unwrap_or(u32::MAX),
                ),
            ));
        }
        self.preferences
            .iter()
            .zip(deferments)
            .map(|(p, &d)| p.window_at_deferment(d))
            .collect()
    }

    /// Load profile of a deferment vector.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`windows`](Self::windows).
    #[must_use = "dropping the Result loses the load profile and hides an infeasible deferment"]
    pub fn load(&self, deferments: &[u8]) -> Result<LoadProfile> {
        Ok(LoadProfile::from_windows(
            &self.windows(deferments)?,
            self.rate,
        ))
    }

    /// Objective value `κ = Σ_h σ·l_h²` of a deferment vector.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`windows`](Self::windows).
    #[must_use = "dropping the Result loses the cost and hides an infeasible deferment"]
    pub fn cost(&self, deferments: &[u8]) -> Result<f64> {
        Ok(self.cost_of_windows(&self.windows(deferments)?))
    }

    /// Objective value of explicit windows (e.g. from the greedy allocator).
    ///
    /// Computed canonically through the integer unit counts: every hour
    /// carries a whole number of unit jobs at the shared `rate`, so
    /// `κ = σ·rate²·Σc²` with `Σc²` exact in `u64`. Two schedules that
    /// tie in `Σc²` therefore get bit-identical objectives regardless of
    /// which hours carry the load — the float rounding no longer depends
    /// on the hour layout, only on the (integer) sum of squares.
    #[must_use]
    pub fn cost_of_windows(&self, windows: &[Interval]) -> f64 {
        let mut counts = [0u32; HOURS_PER_DAY];
        for w in windows {
            for h in w.begin()..w.end() {
                counts[usize::from(h)] += 1;
            }
        }
        let sumsq: u64 = counts.iter().map(|&c| u64::from(c) * u64::from(c)).sum();
        self.pricing()
            .cost_of_sum_of_squares(self.rate * self.rate * sumsq as f64)
    }
}

/// A feasible solution: deferments, the windows they imply, and the
/// objective value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Chosen deferment `d_i` per household.
    pub deferments: Vec<u8>,
    /// Consumption windows implied by the deferments.
    pub windows: Vec<Interval>,
    /// Objective value `κ` (quadratic neighborhood cost).
    pub objective: f64,
}

impl Solution {
    /// Assembles a solution from deferments, computing windows and cost.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`AllocationProblem::windows`].
    #[must_use = "dropping the Result discards the solution and skips deferment validation"]
    pub fn from_deferments(problem: &AllocationProblem, deferments: Vec<u8>) -> Result<Self> {
        let windows = problem.windows(&deferments)?;
        let objective = problem.cost_of_windows(&windows);
        Ok(Self {
            deferments,
            windows,
            objective,
        })
    }
}

/// One equivalence class of interchangeable households: every member
/// reported the same `(begin, end, duration)` signature. The power
/// rating is shared by the whole problem (`rate`), so the preference is
/// the complete class key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreferenceClass {
    preference: Preference,
    /// Member household indices (input order), ascending.
    members: Vec<usize>,
}

impl PreferenceClass {
    /// The shared preference signature.
    #[must_use]
    pub fn preference(&self) -> &Preference {
        &self.preference
    }

    /// Member household indices in ascending input order.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of households in the class.
    #[must_use]
    pub fn size(&self) -> u32 {
        u32::try_from(self.members.len()).unwrap_or(u32::MAX)
    }

    /// Number of feasible deferments per member (`slack + 1`).
    #[must_use]
    pub fn choices(&self) -> u8 {
        self.preference.slack() + 1
    }
}

/// The equivalence-class view of a problem: households grouped by
/// identical signatures, with a canonical *slot* layout for branching.
///
/// Households inside one class are interchangeable in the Eq. 2
/// objective, so an exact search needs only the *count* of members at
/// each deferment — a multiset instead of a product enumeration. The
/// slot layout assigns one slot per `(class, deferment)` pair: class
/// `c`'s slots are `offset(c) .. offset(c) + choices(c)`, deferments
/// ascending. Classes are ordered as a left-to-right hour sweep
/// (earliest window start first, then earliest end, then shortest
/// duration): once every class starting at or before an hour is placed,
/// that hour's load is final, which is what lets the branch-and-bound
/// project *dead* hours out of its dominance and bound-cache keys.
///
/// The within-class assignment rule is deterministic: when a count
/// vector is [`expand`](Self::expand)ed back to per-household
/// deferments, members in ascending input order receive deferments in
/// ascending order. Expansion is therefore a pure function of the
/// count vectors, which keeps settlements and traces byte-reproducible
/// no matter which symmetric argmin the search visited first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceClasses {
    classes: Vec<PreferenceClass>,
    /// Slot offset per class; `offsets[classes.len()]` is the total
    /// slot count.
    offsets: Vec<usize>,
    households: usize,
}

impl EquivalenceClasses {
    /// Groups a problem's households into signature classes.
    #[must_use]
    pub fn group(problem: &AllocationProblem) -> Self {
        let mut map: BTreeMap<Preference, Vec<usize>> = BTreeMap::new();
        for (i, p) in problem.preferences().iter().enumerate() {
            map.entry(*p).or_default().push(i);
        }
        let mut classes: Vec<PreferenceClass> = map
            .into_iter()
            .map(|(preference, members)| PreferenceClass {
                preference,
                members,
            })
            .collect();
        classes.sort_by_key(|c| {
            (
                c.preference.begin(),
                c.preference.end(),
                c.preference.duration(),
            )
        });
        let mut offsets = Vec::with_capacity(classes.len() + 1);
        let mut total = 0usize;
        for c in &classes {
            offsets.push(total);
            total += usize::from(c.choices());
        }
        offsets.push(total);
        Self {
            classes,
            offsets,
            households: problem.len(),
        }
    }

    /// The classes, most-constrained-first.
    #[must_use]
    pub fn classes(&self) -> &[PreferenceClass] {
        &self.classes
    }

    /// Number of distinct signature classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of households across all classes.
    #[must_use]
    pub fn households(&self) -> usize {
        self.households
    }

    /// Total number of `(class, deferment)` slots.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// First slot index of class `c`.
    #[must_use]
    pub fn offset(&self, c: usize) -> usize {
        self.offsets.get(c).copied().unwrap_or(0)
    }

    /// Expands per-slot member counts into per-household deferments
    /// using the canonical within-class rule: ascending members get
    /// ascending deferments. Slots beyond the vector (or count mass
    /// beyond the class size) are treated as zero, so the result is
    /// always a feasible full-length vector.
    #[must_use]
    pub fn expand(&self, chosen: &[u32]) -> Vec<u8> {
        let mut deferments = vec![0u8; self.households];
        for (c, class) in self.classes.iter().enumerate() {
            let mut next = 0usize;
            for d in 0..class.choices() {
                let slot = self.offsets[c] + usize::from(d);
                let k = chosen.get(slot).copied().unwrap_or(0);
                for _ in 0..k {
                    let Some(&member) = class.members.get(next) else {
                        break;
                    };
                    deferments[member] = d;
                    next += 1;
                }
            }
        }
        deferments
    }

    /// The per-slot member counts of a deferment vector — the inverse
    /// of [`expand`](Self::expand) up to within-class symmetry.
    /// Out-of-range entries are ignored.
    #[must_use]
    pub fn chosen_of(&self, deferments: &[u8]) -> Vec<u32> {
        let mut chosen = vec![0u32; self.slot_count()];
        for (c, class) in self.classes.iter().enumerate() {
            for &member in &class.members {
                let Some(&d) = deferments.get(member) else {
                    continue;
                };
                if d < class.choices() {
                    chosen[self.offsets[c] + usize::from(d)] += 1;
                }
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pref(b: u8, e: u8, v: u8) -> Preference {
        Preference::new(b, e, v).unwrap()
    }

    #[test]
    fn rejects_empty_and_bad_parameters() {
        assert!(AllocationProblem::new(vec![], 2.0, 0.3).is_err());
        assert!(AllocationProblem::new(vec![pref(0, 4, 1)], 0.0, 0.3).is_err());
        assert!(AllocationProblem::new(vec![pref(0, 4, 1)], 2.0, -1.0).is_err());
    }

    #[test]
    fn choices_counts_deferments() {
        let p = AllocationProblem::new(vec![pref(18, 22, 2), pref(18, 20, 2)], 2.0, 0.3).unwrap();
        assert_eq!(p.choices(0), 3);
        assert_eq!(p.choices(1), 1);
    }

    #[test]
    fn log10_search_space_accumulates() {
        let p = AllocationProblem::new(vec![pref(0, 24, 2); 10], 2.0, 0.3).unwrap();
        // 23 placements each: 10·log10(23).
        assert!((p.log10_search_space() - 10.0 * 23f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn cost_matches_hand_computation() {
        let p = AllocationProblem::new(vec![pref(18, 22, 2), pref(18, 22, 2)], 2.0, 0.5).unwrap();
        // Both at deferment 0: hours 18, 19 carry 4 kWh ⇒ κ = 0.5·(16+16).
        assert!((p.cost(&[0, 0]).unwrap() - 16.0).abs() < 1e-12);
        // Disjoint: 4 hours at 2 kWh ⇒ κ = 0.5·4·4 = 8.
        assert!((p.cost(&[0, 2]).unwrap() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn windows_rejects_excessive_deferment() {
        let p = AllocationProblem::new(vec![pref(18, 22, 2)], 2.0, 0.3).unwrap();
        assert!(p.windows(&[2]).is_ok());
        assert!(p.windows(&[3]).is_err());
    }

    #[test]
    fn windows_rejects_wrong_length() {
        let p = AllocationProblem::new(vec![pref(18, 22, 2)], 2.0, 0.3).unwrap();
        assert!(p.windows(&[0, 0]).is_err());
    }

    #[test]
    fn solution_from_deferments_is_consistent() {
        let p = AllocationProblem::new(vec![pref(16, 20, 2), pref(18, 24, 3)], 2.0, 0.3).unwrap();
        let s = Solution::from_deferments(&p, vec![1, 2]).unwrap();
        assert_eq!(s.windows[0], Interval::new(17, 19).unwrap());
        assert_eq!(s.windows[1], Interval::new(20, 23).unwrap());
        assert!((s.objective - p.cost(&[1, 2]).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn grouping_merges_identical_signatures() {
        // Households 0 and 2 share a signature; 1 is alone.
        let p = AllocationProblem::new(
            vec![pref(18, 22, 2), pref(16, 20, 3), pref(18, 22, 2)],
            2.0,
            0.3,
        )
        .unwrap();
        let eq = EquivalenceClasses::group(&p);
        assert_eq!(eq.class_count(), 2);
        assert_eq!(eq.households(), 3);
        // Fewest choices first: [16,20) duration 3 has slack 1 (2 slots),
        // [18,22) duration 2 has slack 2 (3 slots).
        assert_eq!(eq.classes()[0].members(), &[1]);
        assert_eq!(eq.classes()[1].members(), &[0, 2]);
        assert_eq!(eq.slot_count(), 2 + 3);
        assert_eq!(eq.offset(0), 0);
        assert_eq!(eq.offset(1), 2);
    }

    #[test]
    fn expand_assigns_ascending_deferments_to_ascending_members() {
        let p = AllocationProblem::new(vec![pref(18, 22, 2); 4], 2.0, 0.3).unwrap();
        let eq = EquivalenceClasses::group(&p);
        assert_eq!(eq.class_count(), 1);
        // Counts (1, 2, 1) over deferments 0, 1, 2: members 0..=3 get
        // 0, 1, 1, 2 in order.
        assert_eq!(eq.expand(&[1, 2, 1]), vec![0, 1, 1, 2]);
    }

    #[test]
    fn chosen_of_inverts_expand_up_to_symmetry() {
        let p = AllocationProblem::new(
            vec![pref(18, 22, 2), pref(16, 20, 3), pref(18, 22, 2), pref(0, 24, 1)],
            2.0,
            0.3,
        )
        .unwrap();
        let eq = EquivalenceClasses::group(&p);
        let chosen = eq.chosen_of(&[2, 1, 0, 17]);
        let expanded = eq.expand(&chosen);
        // Same multiset per class: re-deriving counts is a fixed point.
        assert_eq!(eq.chosen_of(&expanded), chosen);
        // Canonical order within the symmetric class swaps 0 and 2.
        assert_eq!(expanded, vec![0, 1, 2, 17]);
        // The expansion preserves the objective exactly.
        let a = p.cost(&[2, 1, 0, 17]).unwrap();
        let b = p.cost(&expanded).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn class_order_is_deterministic_and_total() {
        let p = AllocationProblem::new(
            vec![pref(0, 24, 1), pref(18, 22, 2), pref(16, 20, 3), pref(18, 22, 2)],
            2.0,
            0.3,
        )
        .unwrap();
        let eq = EquivalenceClasses::group(&p);
        let keys: Vec<(u8, u8, u8)> = eq
            .classes()
            .iter()
            .map(|c| {
                let p = c.preference();
                (p.window().begin(), p.window().end(), p.duration())
            })
            .collect();
        // Sorted by (begin, end, duration) — the left-to-right hour
        // sweep — and signature keys are unique, so the order is total.
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
        let uniq: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(uniq.len(), keys.len());
    }
}
