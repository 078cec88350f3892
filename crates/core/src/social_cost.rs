//! Social-cost scores (Eq. 6).
//!
//! Flexibility and defection scores are normalized into `[0.5, 1.5]` by
//! `x_i/Σx + ½`, and combined into the social-cost score
//!
//! `Ψ_i = k · (δ_i/Σδ + ½) / (f_i/Σf + ½)`
//!
//! so that defectors (large normalized `Δ_i`) pay more and flexible truthful
//! households (large normalized `F_i`) pay less. When a score vector is
//! all-zero — e.g. nobody defected — every normalized entry takes the floor
//! value ½, which the paper's Theorem 2 derivation also uses
//! (`Ψ″_a = k/2 · 1/F_a` for a cooperating household).

use serde::{Decode, Deserialize, Encode, Serialize};

/// A household's normalized score components and combined social cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct SocialCost {
    /// Normalized flexibility `F_i ∈ [0.5, 1.5]`.
    pub normalized_flexibility: f64,
    /// Normalized defection `Δ_i ∈ [0.5, 1.5]`.
    pub normalized_defection: f64,
    /// Combined score `Ψ_i = k·Δ_i/F_i`.
    pub psi: f64,
}

/// Normalizes a non-negative score vector to `[0.5, 1.5]` via `x/Σx + ½`.
///
/// An all-zero (or empty) vector maps every entry to the floor ½.
///
/// # Examples
///
/// ```
/// # use enki_core::social_cost::normalize;
/// assert_eq!(normalize(&[1.0, 3.0]), vec![0.75, 1.25]);
/// assert_eq!(normalize(&[0.0, 0.0]), vec![0.5, 0.5]);
/// ```
#[must_use]
pub fn normalize(scores: &[f64]) -> Vec<f64> {
    let total: f64 = scores.iter().sum();
    if total <= 0.0 {
        return vec![0.5; scores.len()];
    }
    scores.iter().map(|x| x / total + 0.5).collect()
}

/// Computes every household's social-cost score `Ψ_i` from raw flexibility
/// and defection scores.
///
/// # Panics
///
/// Panics if the two slices differ in length.
#[must_use]
pub fn social_cost_scores(flexibility: &[f64], defection: &[f64], k: f64) -> Vec<SocialCost> {
    assert_eq!(
        flexibility.len(),
        defection.len(),
        "flexibility and defection vectors must align"
    );
    let f = normalize(flexibility);
    let d = normalize(defection);
    f.iter()
        .zip(d.iter())
        .map(|(&fi, &di)| SocialCost {
            normalized_flexibility: fi,
            normalized_defection: di,
            psi: k * di / fi,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_spans_half_to_three_halves() {
        let n = normalize(&[0.0, 1.0]);
        assert_eq!(n, vec![0.5, 1.5]);
    }

    #[test]
    fn normalize_is_shift_of_share() {
        let n = normalize(&[2.0, 2.0, 4.0]);
        assert_eq!(n, vec![0.75, 0.75, 1.0]);
    }

    #[test]
    fn normalize_all_zero_floors() {
        assert_eq!(normalize(&[0.0; 4]), vec![0.5; 4]);
        assert!(normalize(&[]).is_empty());
    }

    #[test]
    fn normalized_values_stay_in_range() {
        let xs = [0.3, 12.0, 0.0, 5.5, 1.0];
        for v in normalize(&xs) {
            assert!((0.5..=1.5).contains(&v));
        }
    }

    #[test]
    fn psi_is_k_delta_over_f() {
        let sc = social_cost_scores(&[1.0, 3.0], &[0.0, 2.0], 1.0);
        // F = [0.75, 1.25], Δ = [0.5, 1.5]
        assert!((sc[0].psi - 0.5 / 0.75).abs() < 1e-12);
        assert!((sc[1].psi - 1.5 / 1.25).abs() < 1e-12);
    }

    #[test]
    fn k_scales_psi_linearly() {
        let a = social_cost_scores(&[1.0, 2.0], &[1.0, 0.0], 1.0);
        let b = social_cost_scores(&[1.0, 2.0], &[1.0, 0.0], 2.5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((y.psi - 2.5 * x.psi).abs() < 1e-12);
        }
    }

    #[test]
    fn defector_has_higher_psi_than_identical_cooperator() {
        // Property 3: all else equal, the deviating household pays more.
        let flex = [1.0, 1.0];
        let defect = [0.0, 0.7];
        let sc = social_cost_scores(&flex, &defect, 1.0);
        assert!(sc[1].psi > sc[0].psi);
    }

    #[test]
    fn more_flexible_household_has_lower_psi() {
        // Properties 1-2: all else equal, higher flexibility ⇒ lower Ψ.
        let flex = [0.4, 1.2];
        let defect = [0.0, 0.0];
        let sc = social_cost_scores(&flex, &defect, 1.0);
        assert!(sc[1].psi < sc[0].psi);
    }

    #[test]
    fn all_cooperative_identical_households_share_psi() {
        let sc = social_cost_scores(&[0.8; 5], &[0.0; 5], 1.0);
        for w in sc.windows(2) {
            assert!((w[0].psi - w[1].psi).abs() < 1e-12);
        }
    }

    #[test]
    fn psi_bounds_follow_from_normalization() {
        // Ψ ∈ [k·(1/3), k·3] because Δ, F ∈ [0.5, 1.5].
        let flex = [0.0, 0.1, 5.0, 2.0];
        let defect = [3.0, 0.0, 0.0, 1.0];
        for sc in social_cost_scores(&flex, &defect, 1.0) {
            assert!(sc.psi >= 1.0 / 3.0 - 1e-12);
            assert!(sc.psi <= 3.0 + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = social_cost_scores(&[1.0], &[1.0, 2.0], 1.0);
    }
}
