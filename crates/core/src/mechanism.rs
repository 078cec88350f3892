//! The Enki mechanism: reports → allocations → settlement.
//!
//! [`Enki`] is the neighborhood center of Figure 1. Each day it
//!
//! 1. collects one [`Report`] per household ([`Enki::allocate`]) and
//!    computes suggested windows with the greedy allocator (§IV-C);
//! 2. observes each household's real consumption and settles the day
//!    ([`Enki::settle`]): realized flexibility and defection scores,
//!    social-cost scores (Eq. 6), payments (Eq. 7), and the center's
//!    budget position (Theorem 1);
//! 3. optionally evaluates a household's quasilinear utility (Eq. 8) given
//!    its private type.
//!
//! The no-mechanism baseline of §V-D (price-taking households billed in
//! proportion to energy) is available as
//! [`Enki::proportional_settlement`].

use rand::Rng;
use serde::{Decode, Deserialize, Encode, Serialize};

use crate::allocation::{greedy_allocation, GreedyOutcome};
use crate::config::EnkiConfig;
use crate::defection::{defection_score, overlap_ratio};
use crate::error::{Error, Result};
use crate::flexibility::flexibility_scores;
use crate::household::{HouseholdId, HouseholdType, Report};
use crate::load::LoadProfile;
use crate::payment::{payments, proportional_payments};
use crate::pricing::Pricing;
use crate::social_cost::{social_cost_scores, SocialCost};
use crate::time::Interval;
use crate::valuation::{satisfied_slots, valuation};

/// One household's suggested allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct Assignment {
    /// The household this window is suggested to.
    pub household: HouseholdId,
    /// Suggested consumption window `s_i` (inside the reported interval,
    /// exactly `v_i` hours long).
    pub window: Interval,
}

/// Result of the allocation step for a whole neighborhood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct AllocationOutcome {
    /// Suggested windows aligned with the input reports.
    pub assignments: Vec<Assignment>,
    /// Predicted flexibility scores (Eq. 4), aligned with the reports.
    pub predicted_flexibility: Vec<f64>,
    /// Order in which households were placed (least flexible first).
    pub placement_order: Vec<usize>,
    /// Load profile if every household follows its window.
    pub planned_load: LoadProfile,
    /// Neighborhood cost `κ(s)` of the planned load.
    pub planned_cost: f64,
}

impl AllocationOutcome {
    /// The suggested window for `household`, if it was part of the day.
    #[must_use]
    pub fn window_for(&self, household: HouseholdId) -> Option<Interval> {
        self.assignments
            .iter()
            .find(|a| a.household == household)
            .map(|a| a.window)
    }
}

/// A household's settled day: scores, payment, and the data they came from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct SettlementEntry {
    /// The settled household.
    pub household: HouseholdId,
    /// Suggested window `s_i`.
    pub allocation: Interval,
    /// Real consumption `ω_i`.
    pub consumption: Interval,
    /// Whether the household deviated from its allocation (`ω_i ≠ s_i`).
    pub defected: bool,
    /// Overlap fraction `o_i = |s_i ∩ ω_i|/v_i`.
    pub overlap: f64,
    /// Realized flexibility (Eq. 4; zero when the household defected).
    pub flexibility: f64,
    /// Defection score `δ_i` (Eq. 5).
    pub defection: f64,
    /// Normalized scores and `Ψ_i` (Eq. 6).
    pub social_cost: SocialCost,
    /// Payment `p_i` (Eq. 7).
    pub payment: f64,
}

/// The settled day for a whole neighborhood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct Settlement {
    /// Per-household results aligned with the reports passed to
    /// [`Enki::settle`].
    pub entries: Vec<SettlementEntry>,
    /// Realized load profile from actual consumption.
    pub load: LoadProfile,
    /// Neighborhood cost `κ(ω)` paid to the power company.
    pub total_cost: f64,
    /// Revenue collected from households (`Σ p_i = ξ·κ(ω)`).
    pub revenue: f64,
    /// Center utility `Σ p_i − κ(ω) = (ξ−1)·κ(ω)` (Theorem 1).
    pub center_utility: f64,
}

impl Settlement {
    /// The entry for `household`, if present.
    #[must_use]
    pub fn entry_for(&self, household: HouseholdId) -> Option<&SettlementEntry> {
        self.entries.iter().find(|e| e.household == household)
    }

    /// Verifies the settlement's accounting invariants against a
    /// configuration: every aggregate and per-household value is a finite
    /// real number, payments sum to `ξ·κ(ω)`, the center's utility is
    /// `(ξ−1)·κ(ω) ≥ 0`, every normalized score lies in `[½, 1½]`, and
    /// every bill is non-negative (the mechanism never pays households).
    /// Useful for downstream consumers that deserialize settlements from
    /// storage or the network, and called by the chaos oracle on every
    /// settled day.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NonFiniteValue`] when any value is NaN or
    /// infinite, and [`Error::InvalidConfig`] naming the violated
    /// accounting invariant otherwise.
    #[must_use = "an unchecked verdict silently skips the Theorem 1 budget-balance check"]
    pub fn verify(&self, config: &EnkiConfig) -> Result<()> {
        let finite = |value: f64, parameter: &'static str| {
            if value.is_finite() {
                Ok(())
            } else {
                Err(Error::NonFiniteValue { parameter })
            }
        };
        finite(self.total_cost, "total_cost")?;
        finite(self.revenue, "revenue")?;
        finite(self.center_utility, "center_utility")?;
        for &hour in self.load.hours() {
            finite(hour, "load")?;
        }
        for e in &self.entries {
            finite(e.payment, "payment")?;
            finite(e.overlap, "overlap")?;
            finite(e.flexibility, "flexibility")?;
            finite(e.defection, "defection")?;
            finite(e.social_cost.normalized_flexibility, "normalized_flexibility")?;
            finite(e.social_cost.normalized_defection, "normalized_defection")?;
            finite(e.social_cost.psi, "psi")?;
        }
        let tolerance = 1e-6 * (1.0 + self.total_cost.abs());
        if (self.revenue - config.xi() * self.total_cost).abs() > tolerance {
            return Err(Error::InvalidConfig {
                parameter: "revenue",
                constraint: "xi * total_cost (Eq. 7)",
            });
        }
        if (self.center_utility - (self.revenue - self.total_cost)).abs() > tolerance
            || self.center_utility < -tolerance
        {
            return Err(Error::InvalidConfig {
                parameter: "center_utility",
                constraint: "(xi - 1) * total_cost >= 0 (Theorem 1)",
            });
        }
        let paid: f64 = self.entries.iter().map(|e| e.payment).sum();
        if (paid - self.revenue).abs() > tolerance {
            return Err(Error::InvalidConfig {
                parameter: "payments",
                constraint: "summing exactly to the revenue",
            });
        }
        for e in &self.entries {
            let sc = e.social_cost;
            let in_band = |x: f64| (0.5 - 1e-9..=1.5 + 1e-9).contains(&x);
            if !in_band(sc.normalized_flexibility) || !in_band(sc.normalized_defection) {
                return Err(Error::InvalidConfig {
                    parameter: "entry scores",
                    constraint: "normalized scores in [1/2, 3/2]",
                });
            }
            if e.payment < -1e-9 {
                return Err(Error::InvalidConfig {
                    parameter: "payment",
                    constraint: "non-negative bills (the center never pays households)",
                });
            }
        }
        Ok(())
    }
}

/// The §V-D no-mechanism baseline: every household consumes at will and is
/// billed proportionally to its energy use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSettlement {
    /// Per-household payments `p^z_i`, aligned with the consumption input.
    pub payments: Vec<f64>,
    /// Realized load profile.
    pub load: LoadProfile,
    /// Neighborhood cost `κ(ω^z)`.
    pub total_cost: f64,
}

/// The Enki neighborhood center.
///
/// # Examples
///
/// One full day for a two-household neighborhood:
///
/// ```
/// # use enki_core::prelude::*;
/// # use rand::SeedableRng;
/// # fn main() -> Result<(), enki_core::Error> {
/// let enki = Enki::new(EnkiConfig::default());
/// let reports = vec![
///     Report::new(HouseholdId::new(0), Preference::new(18, 20, 1)?),
///     Report::new(HouseholdId::new(1), Preference::new(18, 20, 1)?),
/// ];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = enki.allocate(&reports, &mut rng)?;
/// // Everyone follows their allocation:
/// let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
/// let settlement = enki.settle(&reports, &outcome, &consumption)?;
/// assert!(settlement.center_utility >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Enki {
    config: EnkiConfig,
}

impl Enki {
    /// Creates a center with the given configuration.
    #[must_use]
    pub fn new(config: EnkiConfig) -> Self {
        Self { config }
    }

    /// The center's configuration.
    #[must_use]
    pub fn config(&self) -> &EnkiConfig {
        &self.config
    }

    /// Admission step: classifies a batch of raw wire-level reports as
    /// accepted, clamped, or quarantined before any of them can reach the
    /// mechanism. Total and panic-free for every possible input; see
    /// [`validation::admit`](crate::validation::admit).
    pub fn admit(&self, raw: &[crate::validation::RawReport]) -> crate::validation::AdmissionReport {
        crate::validation::admit(raw)
    }

    /// [`admit`](Enki::admit), plus cross-day replay flagging against
    /// each household's previously submitted raw preference; see
    /// [`validation::admit_with_history`](crate::validation::admit_with_history).
    pub fn admit_with_history<H>(
        &self,
        raw: &[crate::validation::RawReport],
        history: H,
    ) -> crate::validation::AdmissionReport
    where
        H: FnMut(crate::household::HouseholdId) -> Option<crate::validation::RawPreference>,
    {
        crate::validation::admit_with_history(raw, history)
    }

    /// Allocation step: computes suggested windows from the day's reports.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyNeighborhood`] with no reports and
    /// [`Error::DuplicateHousehold`] when two reports share an id.
    #[must_use = "dropping the outcome discards the day-ahead schedule and any rejection"]
    pub fn allocate<R: Rng + ?Sized>(
        &self,
        reports: &[Report],
        rng: &mut R,
    ) -> Result<AllocationOutcome> {
        validate_unique(reports)?;
        let preferences: Vec<_> = reports.iter().map(|r| r.preference).collect();
        let pricing = self.config.pricing();
        let GreedyOutcome {
            windows,
            placement_order,
            predicted_flexibility,
            planned_load,
        } = greedy_allocation(&preferences, self.config.rate(), &pricing, rng)?;
        let planned_cost = pricing.cost(&planned_load);
        Ok(AllocationOutcome {
            assignments: reports
                .iter()
                .zip(windows)
                .map(|(r, window)| Assignment {
                    household: r.household,
                    window,
                })
                .collect(),
            predicted_flexibility,
            placement_order,
            planned_load,
            planned_cost,
        })
    }

    /// Settlement step: given the day's reports, allocation, and real
    /// consumption (aligned with the reports), computes scores, payments,
    /// and the center's budget position.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHousehold`] if the allocation does not cover
    /// exactly the reported households, [`Error::EmptyNeighborhood`] for an
    /// empty day, and [`Error::DurationMismatch`] when a consumption window
    /// has the wrong length for its household's duration. Consumption
    /// windows are *not* checked against true intervals — the center never
    /// learns true preferences.
    #[must_use = "dropping the settlement loses the bills and ignores malformed consumption"]
    pub fn settle(
        &self,
        reports: &[Report],
        outcome: &AllocationOutcome,
        consumption: &[Interval],
    ) -> Result<Settlement> {
        if reports.is_empty() {
            return Err(Error::EmptyNeighborhood);
        }
        validate_unique(reports)?;
        if outcome.assignments.len() != reports.len() || consumption.len() != reports.len() {
            let missing = reports
                .iter()
                .map(|r| r.household)
                .find(|h| outcome.window_for(*h).is_none())
                .unwrap_or_else(|| reports[0].household);
            return Err(Error::UnknownHousehold(missing));
        }
        let pricing = self.config.pricing();
        let rate = self.config.rate();

        let mut allocations = Vec::with_capacity(reports.len());
        for report in reports {
            let window = outcome
                .window_for(report.household)
                .ok_or(Error::UnknownHousehold(report.household))?;
            allocations.push(window);
        }
        for (report, (s, w)) in reports.iter().zip(allocations.iter().zip(consumption)) {
            if w.len() != s.len() {
                return Err(Error::DurationMismatch {
                    got: w.len(),
                    expected: report.preference.duration(),
                });
            }
        }

        // Realized load and cost κ(ω), computed canonically through the
        // integer unit counts: every hour carries a whole number of unit
        // jobs at the shared `rate`, so κ = σ·rate²·Σc² with Σc² exact in
        // `u64`. Consumption layouts that tie in Σc² settle to
        // bit-identical bills — float rounding depends only on the sum of
        // squares, never on which hours carry the load.
        let load = LoadProfile::from_windows(consumption, rate);
        let mut unit_counts = [0u64; crate::time::HOURS_PER_DAY];
        for w in consumption {
            for h in w.begin()..w.end() {
                unit_counts[usize::from(h)] += 1;
            }
        }
        let unit_sumsq: u64 = unit_counts.iter().map(|&c| c * c).sum();
        let total_cost = pricing.cost_of_sum_of_squares(rate * rate * unit_sumsq as f64);

        // Scores: realized flexibility zeroes out for defectors (§IV-B3);
        // defection compares each unilateral deviation against the plan.
        let reported_prefs: Vec<_> = reports.iter().map(|r| r.preference).collect();
        let reported_flexibility = flexibility_scores(&reported_prefs);
        let planned_cost = pricing.cost(&outcome.planned_load);
        let mut flexibility = Vec::with_capacity(reports.len());
        let mut defection = Vec::with_capacity(reports.len());
        for (i, (&s, &w)) in allocations.iter().zip(consumption.iter()).enumerate() {
            let defected = s != w;
            flexibility.push(if defected { 0.0 } else { reported_flexibility[i] });
            defection.push(defection_score(
                &pricing,
                rate,
                &outcome.planned_load,
                planned_cost,
                s,
                w,
            ));
        }

        let social = social_cost_scores(&flexibility, &defection, self.config.k());
        let pays = payments(&social, self.config.xi(), total_cost);
        let revenue: f64 = pays.iter().sum();

        let entries = reports
            .iter()
            .enumerate()
            .map(|(i, report)| SettlementEntry {
                household: report.household,
                allocation: allocations[i],
                consumption: consumption[i],
                defected: allocations[i] != consumption[i],
                overlap: overlap_ratio(allocations[i], consumption[i]),
                flexibility: flexibility[i],
                defection: defection[i],
                social_cost: social[i],
                payment: pays[i],
            })
            .collect();

        Ok(Settlement {
            entries,
            load,
            total_cost,
            revenue,
            center_utility: revenue - total_cost,
        })
    }

    /// Quasilinear utility (Eq. 8) of a household with private type `ty`
    /// given its settled entry: `U_i = V(τ_i, v_i, ρ_i) − p_i`, where `τ_i`
    /// is the overlap between the *allocation* and the true interval.
    #[must_use]
    pub fn utility(&self, ty: &HouseholdType, entry: &SettlementEntry) -> f64 {
        let tau = satisfied_slots(&ty.preference, entry.allocation);
        valuation(tau, ty.preference.duration(), ty.valuation_factor) - entry.payment
    }

    /// The §V-D baseline: no mechanism, every household consumes `windows`
    /// at will and pays proportionally to its energy (`p^z_i`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyNeighborhood`] when `windows` is empty.
    #[must_use = "dropping the settlement loses the baseline bills used for comparison"]
    pub fn proportional_settlement(&self, windows: &[Interval]) -> Result<BaselineSettlement> {
        if windows.is_empty() {
            return Err(Error::EmptyNeighborhood);
        }
        let pricing = self.config.pricing();
        let rate = self.config.rate();
        let load = LoadProfile::from_windows(windows, rate);
        let total_cost = pricing.cost(&load);
        let energy: Vec<f64> = windows.iter().map(|w| f64::from(w.len()) * rate).collect();
        let payments = proportional_payments(&energy, self.config.xi(), total_cost);
        Ok(BaselineSettlement {
            payments,
            load,
            total_cost,
        })
    }
}

impl Default for Enki {
    /// A center with the paper's §VI parameters.
    fn default() -> Self {
        Self::new(EnkiConfig::default())
    }
}

fn validate_unique(reports: &[Report]) -> Result<()> {
    if reports.is_empty() {
        return Err(Error::EmptyNeighborhood);
    }
    let mut ids: Vec<HouseholdId> = reports.iter().map(|r| r.household).collect();
    ids.sort_unstable();
    for pair in ids.windows(2) {
        if pair[0] == pair[1] {
            return Err(Error::DuplicateHousehold(pair[0]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::household::Preference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pref(b: u8, e: u8, v: u8) -> Preference {
        Preference::new(b, e, v).unwrap()
    }

    fn reports(prefs: &[Preference]) -> Vec<Report> {
        prefs
            .iter()
            .enumerate()
            .map(|(i, &p)| Report::new(HouseholdId::new(i as u32), p))
            .collect()
    }

    fn iv(b: u8, e: u8) -> Interval {
        Interval::new(b, e).unwrap()
    }

    #[test]
    fn allocate_rejects_duplicates() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(0);
        let rs = vec![
            Report::new(HouseholdId::new(1), pref(18, 20, 1)),
            Report::new(HouseholdId::new(1), pref(18, 20, 1)),
        ];
        assert!(matches!(
            enki.allocate(&rs, &mut rng),
            Err(Error::DuplicateHousehold(_))
        ));
    }

    #[test]
    fn allocate_rejects_empty() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            enki.allocate(&[], &mut rng),
            Err(Error::EmptyNeighborhood)
        ));
    }

    #[test]
    fn full_cooperative_day_balances_budget() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(7);
        let rs = reports(&[pref(18, 22, 2), pref(16, 24, 3), pref(18, 20, 2)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        // Theorem 1: center utility = (ξ−1)·κ(ω) ≥ 0.
        assert!((st.center_utility - 0.2 * st.total_cost).abs() < 1e-9);
        assert!(st.center_utility >= 0.0);
        // Nobody defected.
        for e in &st.entries {
            assert!(!e.defected);
            assert_eq!(e.defection, 0.0);
            assert_eq!(e.overlap, 1.0);
            assert!(e.flexibility > 0.0);
        }
    }

    #[test]
    fn example4_defector_pays_more() {
        // Example 4 / Fig. 3: both report (18, 20, 1); B overrides its
        // allocation onto A's hour and must pay more.
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(3);
        let rs = reports(&[pref(18, 20, 1), pref(18, 20, 1)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let a = outcome.assignments[0].window;
        let consumption = vec![a, a]; // B consumes A's hour
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        assert!(!st.entries[0].defected);
        assert!(st.entries[1].defected);
        assert!(st.entries[1].defection > 0.0);
        assert!(st.entries[1].payment > st.entries[0].payment);
    }

    #[test]
    fn example1_identical_households_pay_equally() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(11);
        let rs = reports(&[pref(18, 20, 1), pref(18, 20, 1)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        assert!((st.entries[0].payment - st.entries[1].payment).abs() < 1e-9);
    }

    #[test]
    fn example2_narrower_interval_pays_more() {
        // Example 2: A truthfully reports a narrower interval and pays more.
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(5);
        let rs = reports(&[pref(18, 19, 1), pref(18, 20, 1), pref(18, 20, 1)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        assert!(st.entries[0].payment > st.entries[1].payment);
        assert!((st.entries[1].payment - st.entries[2].payment).abs() < 1e-9);
    }

    #[test]
    fn settle_rejects_wrong_duration_consumption() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(0);
        let rs = reports(&[pref(18, 22, 2)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let bad = vec![iv(18, 21)];
        assert!(matches!(
            enki.settle(&rs, &outcome, &bad),
            Err(Error::DurationMismatch { .. })
        ));
    }

    #[test]
    fn settle_rejects_misaligned_consumption() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(0);
        let rs = reports(&[pref(18, 22, 2), pref(18, 22, 2)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        assert!(enki.settle(&rs, &outcome, &[iv(18, 20)]).is_err());
    }

    #[test]
    fn utility_uses_true_preference_not_report() {
        // §V-B scenario 1: true (18,20,2), misreported as (14,20,2),
        // allocated (14,16): τ = 0 ⇒ valuation 0 ⇒ utility = −payment.
        let enki = Enki::default();
        let truth = HouseholdType::new(pref(18, 20, 2), 5.0).unwrap();
        let entry = SettlementEntry {
            household: HouseholdId::new(0),
            allocation: iv(14, 16),
            consumption: iv(18, 20),
            defected: true,
            overlap: 0.0,
            flexibility: 0.0,
            defection: 1.0,
            social_cost: crate::social_cost::SocialCost {
                normalized_flexibility: 0.5,
                normalized_defection: 1.5,
                psi: 3.0,
            },
            payment: 4.0,
        };
        assert_eq!(enki.utility(&truth, &entry), -4.0);
        // Truthful counterpart: allocation inside the true interval.
        let good = SettlementEntry {
            allocation: iv(18, 20),
            payment: 4.0,
            ..entry
        };
        assert_eq!(enki.utility(&truth, &good), 5.0 - 4.0);
    }

    #[test]
    fn proportional_settlement_charges_by_energy() {
        let enki = Enki::default();
        let st = enki
            .proportional_settlement(&[iv(18, 20), iv(18, 22)])
            .unwrap();
        // Energies 4 and 8 kWh: payments 1:2.
        assert!((st.payments[1] / st.payments[0] - 2.0).abs() < 1e-9);
        let revenue: f64 = st.payments.iter().sum();
        assert!((revenue - 1.2 * st.total_cost).abs() < 1e-9);
    }

    #[test]
    fn proportional_settlement_rejects_empty() {
        let enki = Enki::default();
        assert!(matches!(
            enki.proportional_settlement(&[]),
            Err(Error::EmptyNeighborhood)
        ));
    }

    #[test]
    fn defection_zeroes_realized_flexibility() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(2);
        let rs = reports(&[pref(16, 24, 2), pref(18, 20, 2)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let mut consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        // Household 0 deviates by one hour.
        let w = consumption[0];
        consumption[0] = if w.begin() > 16 {
            iv(w.begin() - 1, w.end() - 1)
        } else {
            iv(w.begin() + 1, w.end() + 1)
        };
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        assert!(st.entries[0].defected);
        assert_eq!(st.entries[0].flexibility, 0.0);
        assert!(st.entries[1].flexibility > 0.0);
    }

    #[test]
    fn verify_accepts_real_settlements_and_rejects_tampering() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(8);
        let rs = reports(&[pref(18, 22, 2), pref(16, 24, 3)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        st.verify(enki.config()).unwrap();
        // Tampering with a payment breaks the invariant.
        let mut bad = st.clone();
        bad.entries[0].payment += 1.0;
        assert!(bad.verify(enki.config()).is_err());
        let mut bad = st;
        bad.center_utility = -5.0;
        assert!(bad.verify(enki.config()).is_err());
    }

    #[test]
    fn verify_rejects_non_finite_and_negative_values() {
        let enki = Enki::default();
        let mut rng = StdRng::seed_from_u64(9);
        let rs = reports(&[pref(18, 22, 2), pref(16, 24, 3)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();

        let mut bad = st.clone();
        bad.entries[0].payment = f64::NAN;
        assert!(matches!(
            bad.verify(enki.config()),
            Err(Error::NonFiniteValue { parameter: "payment" })
        ));

        let mut bad = st.clone();
        bad.revenue = f64::INFINITY;
        assert!(matches!(
            bad.verify(enki.config()),
            Err(Error::NonFiniteValue { parameter: "revenue" })
        ));

        let mut bad = st.clone();
        bad.entries[1].social_cost.psi = f64::NAN;
        assert!(matches!(
            bad.verify(enki.config()),
            Err(Error::NonFiniteValue { parameter: "psi" })
        ));

        // A negative bill is rejected even if the totals are rebalanced to
        // keep the sums consistent.
        let mut bad = st;
        let shift = bad.entries[0].payment + 1.0;
        bad.entries[0].payment -= shift;
        bad.entries[1].payment += shift;
        assert!(matches!(
            bad.verify(enki.config()),
            Err(Error::InvalidConfig { parameter: "payment", .. })
        ));
    }

    #[test]
    fn settlement_revenue_equals_xi_times_cost() {
        let enki = Enki::new(EnkiConfig::builder().xi(1.5).build().unwrap());
        let mut rng = StdRng::seed_from_u64(20);
        let rs = reports(&[pref(10, 16, 2), pref(12, 18, 3), pref(14, 20, 1)]);
        let outcome = enki.allocate(&rs, &mut rng).unwrap();
        let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
        let st = enki.settle(&rs, &outcome, &consumption).unwrap();
        assert!((st.revenue - 1.5 * st.total_cost).abs() < 1e-9);
    }
}
