//! Coordinate-descent local search (best-response dynamics).
//!
//! Repeatedly re-places one household at a time into its cheapest deferment
//! given everyone else. Because the quadratic cost is an exact potential
//! for this move set, every move strictly decreases `Σ_h l_h²` and the
//! procedure converges to a local optimum in finitely many passes. With a
//! handful of random restarts it is a strong incumbent generator for the
//! branch-and-bound solver and a fast near-optimal baseline on its own.
//!
//! Like the exact solver, the descent runs on the flat fixed-point load
//! representation: per-hour *unit counts* of the shared rate, so every
//! move preview is exact `u64` arithmetic (`Σc²` deltas) with no epsilon
//! tolerance, and the objective is converted to f64 once, at the solution
//! boundary, where [`Solution::from_deferments`] recomputes it from the
//! settled windows.

use enki_core::time::HOURS_PER_DAY;
use enki_core::Result;
use rand::{Rng, RngExt};

use crate::bounds::unit_sum_of_squares;
use crate::problem::{AllocationProblem, Solution};

/// Configuration for the coordinate-descent search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearch {
    max_passes: usize,
}

impl LocalSearch {
    /// A search bounded to 200 full passes (far more than convergence ever
    /// needs on day-sized instances).
    #[must_use]
    pub fn new() -> Self {
        Self { max_passes: 200 }
    }

    /// Overrides the maximum number of full improvement passes.
    #[must_use]
    pub fn with_max_passes(mut self, max_passes: usize) -> Self {
        self.max_passes = max_passes.max(1);
        self
    }

    /// Descends from a given deferment vector to a local optimum.
    ///
    /// # Errors
    ///
    /// Propagates window-validation errors from a malformed start vector.
    #[must_use = "dropping the solution discards the improved schedule and any validation error"]
    pub fn improve(&self, problem: &AllocationProblem, start: Vec<u8>) -> Result<Solution> {
        let mut deferments = start;
        let windows = problem.windows(&deferments)?;
        let rate = problem.rate();
        // Running per-hour unit counts: each candidate move is previewed
        // in O(duration) exact integer arithmetic against the residual
        // counts (cross-checked against a full recompute in debug
        // builds) instead of being recomputed per pass. Comparisons are
        // exact — no epsilon — so ties always keep the earliest
        // deferment and a pass cannot cycle.
        let mut counts = [0u32; HOURS_PER_DAY];
        for w in &windows {
            for h in w.begin()..w.end() {
                counts[usize::from(h)] += 1;
            }
        }

        for _ in 0..self.max_passes {
            let mut improved = false;
            #[expect(
                clippy::needless_range_loop,
                reason = "indexes two parallel vectors (deferments and preferences); an \
                          iterator would need a zip of mutable and shared borrows"
            )]
            for i in 0..problem.len() {
                let pref = &problem.preferences()[i];
                // The start vector was validated by problem.windows() above
                // and every later assignment picks d from 0..=slack, so
                // these lookups cannot fail; `?` keeps that an error, not
                // a panic, if the invariant ever breaks.
                let current = pref.window_at_deferment(deferments[i])?;
                for h in current.begin()..current.end() {
                    counts[usize::from(h)] -= 1;
                }
                // Find the cheapest placement against the residual
                // counts: Σ((c+1)² − c²) = Σ(2c + 1) over the block.
                let mut best_d = deferments[i];
                let mut best_delta = u64::MAX;
                for d in 0..=pref.slack() {
                    let w = pref.window_at_deferment(d)?;
                    let mut delta = 0u64;
                    for h in w.begin()..w.end() {
                        delta += 2 * u64::from(counts[usize::from(h)]) + 1;
                    }
                    if delta < best_delta {
                        best_delta = delta;
                        best_d = d;
                    }
                }
                if best_d != deferments[i] {
                    improved = true;
                    deferments[i] = best_d;
                }
                let chosen = pref.window_at_deferment(deferments[i])?;
                for h in chosen.begin()..chosen.end() {
                    counts[usize::from(h)] += 1;
                }
            }
            if !improved {
                break;
            }
        }
        let solution = Solution::from_deferments(problem, deferments)?;
        debug_assert!(
            enki_core::float::approx_eq(
                problem
                    .pricing()
                    .cost_of_sum_of_squares(rate * rate * unit_sum_of_squares(&counts) as f64),
                solution.objective,
            ),
            "running unit counts drifted from the recomputed objective {}",
            solution.objective,
        );
        Ok(solution)
    }

    /// Runs the descent from `restarts` random starting vectors (plus the
    /// all-zero start) and returns the best local optimum found.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`improve`](Self::improve) (none occur for
    /// internally generated starts).
    #[must_use = "dropping the solution discards the improved schedule and any validation error"]
    pub fn solve<R: Rng + ?Sized>(
        &self,
        problem: &AllocationProblem,
        restarts: usize,
        rng: &mut R,
    ) -> Result<Solution> {
        let mut best = self.improve(problem, vec![0; problem.len()])?;
        for _ in 0..restarts {
            let start: Vec<u8> = (0..problem.len())
                .map(|i| rng.random_range(0..problem.choices(i)))
                .collect();
            let candidate = self.improve(problem, start)?;
            if candidate.objective < best.objective {
                best = candidate;
            }
        }
        Ok(best)
    }
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enki_core::household::Preference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pref(b: u8, e: u8, v: u8) -> Preference {
        Preference::new(b, e, v).unwrap()
    }

    #[test]
    fn descent_never_worsens_the_start() {
        let p = AllocationProblem::new(
            vec![pref(18, 24, 2), pref(18, 22, 2), pref(18, 22, 2)],
            2.0,
            0.3,
        )
        .unwrap();
        let start = vec![0, 0, 0];
        let start_cost = p.cost(&start).unwrap();
        let improved = LocalSearch::new().improve(&p, start).unwrap();
        assert!(improved.objective <= start_cost + 1e-12);
    }

    #[test]
    fn perfect_packing_is_found() {
        // Three 2-hour jobs in a 6-hour shared window pack disjointly.
        let p = AllocationProblem::new(vec![pref(12, 18, 2); 3], 2.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = LocalSearch::new().solve(&p, 5, &mut rng).unwrap();
        // Disjoint: 6 hours at 2 kWh ⇒ Σl² = 6·4 = 24.
        assert!((s.objective - 24.0).abs() < 1e-9);
    }

    #[test]
    fn local_optimum_is_stable() {
        let p = AllocationProblem::new(
            vec![pref(16, 24, 3), pref(18, 22, 2), pref(17, 23, 1)],
            2.0,
            0.3,
        )
        .unwrap();
        let ls = LocalSearch::new();
        let s1 = ls.improve(&p, vec![0, 0, 0]).unwrap();
        let s2 = ls.improve(&p, s1.deferments.clone()).unwrap();
        assert_eq!(s1.deferments, s2.deferments);
    }

    #[test]
    fn zero_slack_instance_is_untouched() {
        let p = AllocationProblem::new(vec![pref(18, 20, 2), pref(19, 21, 2)], 2.0, 0.3).unwrap();
        let s = LocalSearch::new().improve(&p, vec![0, 0]).unwrap();
        assert_eq!(s.deferments, vec![0, 0]);
    }

    #[test]
    fn restarts_only_improve() {
        let p = AllocationProblem::new(
            vec![
                pref(14, 22, 3),
                pref(16, 24, 2),
                pref(15, 23, 4),
                pref(18, 22, 2),
            ],
            2.0,
            0.3,
        )
        .unwrap();
        let ls = LocalSearch::new();
        let mut rng = StdRng::seed_from_u64(5);
        let no_restart = ls.solve(&p, 0, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let restarted = ls.solve(&p, 10, &mut rng).unwrap();
        assert!(restarted.objective <= no_restart.objective + 1e-12);
    }

    #[test]
    fn incremental_descent_reaches_a_true_local_optimum() {
        // Cross-check of the incremental delta evaluation against full
        // recomputation: at every returned point, no single-household
        // move improves the exactly recomputed objective. A bug in the
        // O(duration) previews (stale residual load, wrong sign, missed
        // rollback) would leave an improving move on the table.
        let mut rng = StdRng::seed_from_u64(0xA11C);
        for _ in 0..20 {
            let n = rng.random_range(3..=8);
            let prefs: Vec<Preference> = (0..n)
                .map(|_| {
                    let b = rng.random_range(0..18u8);
                    let span = rng.random_range(2..=6u8).min(24 - b);
                    let v = rng.random_range(1..=span.min(3));
                    Preference::new(b, b + span, v).unwrap()
                })
                .collect();
            let p = AllocationProblem::new(prefs, 2.0, 0.3).unwrap();
            let s = LocalSearch::new().improve(&p, vec![0; p.len()]).unwrap();
            assert!(enki_core::float::approx_eq(
                s.objective,
                p.cost(&s.deferments).unwrap()
            ));
            for i in 0..p.len() {
                for d in 0..p.choices(i) {
                    let mut alt = s.deferments.clone();
                    alt[i] = d;
                    let alt_cost = p.cost(&alt).unwrap();
                    assert!(
                        alt_cost >= s.objective - 1e-9,
                        "household {i} deferment {d} improves {} -> {alt_cost}",
                        s.objective
                    );
                }
            }
        }
    }

    #[test]
    fn improve_rejects_malformed_start() {
        let p = AllocationProblem::new(vec![pref(18, 20, 2)], 2.0, 0.3).unwrap();
        assert!(LocalSearch::new().improve(&p, vec![5]).is_err());
        assert!(LocalSearch::new().improve(&p, vec![0, 0]).is_err());
    }
}
