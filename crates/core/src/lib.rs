//! # enki-core
//!
//! A from-scratch implementation of **Enki**, the cooperative demand-side
//! management (DSM) mechanism of *"A Mechanism for Cooperative Demand-Side
//! Management"* (Yuan, Hang, Huhns, Singh — ICDCS 2017).
//!
//! Enki is a day-ahead mechanism for a neighborhood of households. Each
//! household reports a preferred consumption window and duration
//! (`χ̂ = (α̂, β̂, v)`); the neighborhood center computes suggested windows
//! that respect every report while flattening the aggregate load (a greedy
//! approximation of the MIQP in Eq. 2); and after the day, each household is
//! billed its share of the neighborhood's quadratic wholesale cost,
//! weighted by a *social-cost score* that rewards flexibility and punishes
//! defection. The mechanism is ex ante budget balanced (Theorem 1), weakly
//! Bayesian incentive-compatible (Theorem 2), and weakly Pareto efficient
//! (Theorem 3).
//!
//! ## Quick start
//!
//! ```
//! use enki_core::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), enki_core::Error> {
//! // Three households declare tomorrow's demand.
//! let reports = vec![
//!     Report::new(HouseholdId::new(0), Preference::new(16, 18, 2)?),
//!     Report::new(HouseholdId::new(1), Preference::new(18, 21, 2)?),
//!     Report::new(HouseholdId::new(2), Preference::new(18, 21, 2)?),
//! ];
//!
//! let enki = Enki::new(EnkiConfig::default());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(2017);
//!
//! // Day-ahead: suggested windows.
//! let outcome = enki.allocate(&reports, &mut rng)?;
//!
//! // Everyone cooperates; settle the day.
//! let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
//! let settlement = enki.settle(&reports, &outcome, &consumption)?;
//!
//! // The center never runs a deficit (Theorem 1).
//! assert!(settlement.center_utility >= 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module tour
//!
//! * [`time`] — hours and half-open hour intervals.
//! * [`household`] — preferences `χ`, types `θ = (χ, ρ)`, reports.
//! * [`load`] / [`pricing`] — hourly load profiles and the quadratic cost
//!   `κ(ω) = Σ σ·l_h²` (plus the two-step convex alternative).
//! * [`valuation`] — Eq. 3, the concave willingness-to-pay.
//! * [`flexibility`] / [`defection`] — the two halves of the social-cost
//!   score (Eqs. 4–5).
//! * [`social_cost`] / [`payment`] — normalization, `Ψ_i`, and payments
//!   (Eqs. 6–7), plus the proportional no-mechanism baseline.
//! * [`allocation`] — the greedy scheduler (§IV-C).
//! * [`mechanism`] — [`Enki`](mechanism::Enki), the center orchestrating a
//!   full day.
//! * [`validation`] — admission control: raw wire-level reports are
//!   accepted, clamped, or quarantined before they can reach the
//!   mechanism.
//! * [`float`] — total-order and tolerant f64 comparison (the sanctioned
//!   alternative to `partial_cmp().unwrap()` and exact `==` on money).
//! * [`config`] — scaling factors `σ`, `k`, `ξ`, and the power rating `r`.
//! * [`appliances`] — the §III multi-appliance extension: several shiftable
//!   jobs plus a nonshiftable base load per household.

// Mechanism crate: no panics and no silently truncating casts outside
// test code (a panic or a wrapped bill mid-settlement voids Theorem 1).
// Each sanctioned exception carries an `#[expect(.., reason)]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocation;
pub mod appliances;
pub mod config;
pub mod defection;
pub mod error;
pub mod flexibility;
pub mod float;
pub mod household;
pub mod load;
pub mod mechanism;
pub mod payment;
pub mod pricing;
pub mod social_cost;
pub mod time;
pub mod validation;
pub mod valuation;

pub use error::{Error, Result};

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::allocation::{
        greedy_allocation, greedy_allocation_with_policy, GreedyOutcome, OrderingPolicy,
    };
    pub use crate::appliances::{
        Appliance, MultiAllocation, MultiEnki, MultiReport, MultiSettlement,
        MultiSettlementEntry,
    };
    pub use crate::config::EnkiConfig;
    pub use crate::error::{Error, Result};
    pub use crate::float::{approx_eq, approx_zero, cmp_f64, EPSILON};
    pub use crate::household::{HouseholdId, HouseholdType, Preference, Report};
    pub use crate::load::LoadProfile;
    pub use crate::mechanism::{
        AllocationOutcome, Assignment, BaselineSettlement, Enki, Settlement, SettlementEntry,
    };
    pub use crate::pricing::{Pricing, QuadraticPricing, TwoStepPricing};
    pub use crate::social_cost::SocialCost;
    pub use crate::time::{Interval, HOURS_PER_DAY};
    pub use crate::validation::{
        admit, AdmissionReport, RawPreference, RawReport, Verdict,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::mechanism::Enki>();
        assert_send_sync::<crate::mechanism::Settlement>();
        assert_send_sync::<crate::household::Preference>();
        assert_send_sync::<crate::load::LoadProfile>();
        assert_send_sync::<crate::error::Error>();
    }
}
