//! Exact branch-and-bound solver for the Eq. 2 MIQP, searching over
//! **equivalence classes** of interchangeable households.
//!
//! This replaces the paper's IBM CPLEX V12.4 MIQP baseline ("Optimal" in
//! Figures 4–6) with a from-scratch depth-first branch-and-bound:
//!
//! * **Variables** — households with identical (begin, end, duration)
//!   signatures are interchangeable in the objective (the power rating is
//!   shared per problem), so the search branches over *per-class deferment
//!   count vectors* instead of per-household deferments: one slot per
//!   `(class, deferment)` pair, choosing how many of the class's remaining
//!   members take that deferment. A class of `m` households with `s + 1`
//!   choices contributes `C(m + s, s)` count vectors instead of
//!   `(s + 1)^m` assignments — a combinatorial collapse on realistic
//!   populations where signatures repeat heavily.
//! * **Arithmetic** — the day's load lives in flat *unit counts* (hours ×
//!   slot-hours of the shared rate), so the running `Σl²` is an exact
//!   `u64` and every delta evaluation and prune comparison is branch-free
//!   integer math. The one-shot conversion back to f64 happens at the
//!   solution boundary ([`Solution::from_deferments`] recomputes the
//!   settled objective), keeping reported objectives bit-identical to a
//!   cross-check recompute.
//! * **Order** — classes with the fewest feasible deferments first
//!   (most-constrained-first), longer durations breaking ties; within a
//!   slot, counts ascending, which is also ascending immediate cost, so
//!   the first dive usually reproduces the incumbent or better.
//! * **Incumbent** — a coordinate-descent local optimum
//!   ([`crate::local_search`]) seeds the upper bound, so pruning is sharp
//!   from the first node.
//! * **Bounds** — layered cheap-to-strong: a Lagrangian *price bound*
//!   first (fixed-point integer prices from the continuous relaxation's
//!   dual, solved once per instance by Frank–Wolfe — O(hours) per node,
//!   with each hour's saving taken over whole-unit loads only), then
//!   the analytic integer union fill ([`unit_fill_extra`]), then the
//!   pigeonhole partition bound ([`unit_pigeonhole_bound`]) with its
//!   values memoized per `(slot, counts)` subtree key.
//! * **Parity** — every household adds its duration in units, so `Σc` is
//!   the same for every schedule, and `c² ≡ c (mod 2)` gives every
//!   schedule's `Σc²` that one parity. A better schedule than the
//!   incumbent therefore sits at `best − 2` or below, and every prune test
//!   fires once its bound exceeds `best − 2`.
//! * **Dominance** — different orders of interleaving class decisions can
//!   reach the same `(slot, counts)` state; once a state's subtree has
//!   been exhausted, revisits are pruned. The dominance set is scoped to
//!   one split-subtree at a time so sequential, speculative, and
//!   validation drives stay bit-identical (see [`crate::par`]).
//!
//! The solver is *anytime*: node and wall-clock limits make it safe on
//! large instances, and the [`SolveReport`] says whether optimality was
//! proven. The within-class expansion back to per-household deferments is
//! deterministic (ascending members get ascending deferments), so
//! settlements and traces remain byte-reproducible.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use enki_core::time::HOURS_PER_DAY;
use enki_core::Result;
use enki_telemetry::{Clock, MonotonicClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bounds::{
    hours_mask, unit_fill_extra, unit_pigeonhole_bound, unit_sum_of_squares, ForcedUnits,
};
use crate::local_search::LocalSearch;
use crate::problem::{AllocationProblem, EquivalenceClasses, Solution};

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReport {
    /// Best solution found (optimal when `proven_optimal`).
    pub solution: Solution,
    /// Number of search nodes expanded.
    pub nodes: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether the search ran to completion (no limit was hit).
    pub proven_optimal: bool,
    /// Objective of the initial (local-search) incumbent, for gap reporting.
    pub initial_incumbent: f64,
    /// The root relaxation's lower bound on the optimum (σ-scaled): the
    /// strongest of the union fill, the integer price bound and, when
    /// those two do not already prove the incumbent, the pigeonhole
    /// bound. Valid whether or not the search completed.
    pub root_bound: f64,
}

impl SolveReport {
    /// Relative improvement of the final solution over the initial
    /// incumbent (0 when local search was already optimal).
    #[must_use]
    pub fn improvement_over_incumbent(&self) -> f64 {
        if self.initial_incumbent <= 0.0 {
            return 0.0;
        }
        (self.initial_incumbent - self.solution.objective) / self.initial_incumbent
    }

    /// Relative optimality gap certified by the root bound:
    /// `(objective − root_bound)/objective`. Zero when proven optimal; an
    /// upper bound on the true gap otherwise.
    #[must_use]
    pub fn certified_gap(&self) -> f64 {
        if self.proven_optimal || self.solution.objective <= 0.0 {
            return 0.0;
        }
        ((self.solution.objective - self.root_bound) / self.solution.objective).max(0.0)
    }
}

/// Configurable branch-and-bound solver.
///
/// # Examples
///
/// ```
/// # use enki_solver::prelude::*;
/// # use enki_core::household::Preference;
/// # fn main() -> Result<(), enki_core::Error> {
/// let problem = AllocationProblem::new(
///     vec![Preference::new(18, 22, 2)?, Preference::new(18, 22, 2)?],
///     2.0,
///     0.3,
/// )?;
/// let report = BranchAndBound::new().solve(&problem)?;
/// assert!(report.proven_optimal);
/// // Two 2-hour jobs in a 4-hour window pack disjointly: 4 hours at 2 kWh.
/// assert!((report.solution.objective - 0.3 * 4.0 * 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    node_limit: u64,
    time_limit: Option<Duration>,
    incumbent_restarts: usize,
    seed: u64,
    threads: usize,
    profiling: bool,
    /// Time source for the deadline check. The production default is the
    /// real monotonic clock; tests inject a virtual clock so deadline
    /// behaviour (e.g. a zero time limit) is deterministic.
    clock: Arc<dyn Clock>,
}

impl BranchAndBound {
    /// A solver with no time limit and a generous node limit (10⁸).
    #[must_use]
    pub fn new() -> Self {
        Self {
            node_limit: 100_000_000,
            time_limit: None,
            incumbent_restarts: 8,
            seed: 0x5eed_cafe,
            threads: 1,
            profiling: false,
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Number of worker threads for the search. `1` (the default) runs
    /// the plain sequential depth-first search. More threads explore
    /// subtrees speculatively through the work-stealing pool in
    /// [`crate::par`]; the result — solution, gap, *and* node count — is
    /// bit-identical to the sequential solver's for the same seed.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables per-phase profiling: the parallel driver then reports a
    /// [`PhaseProfile`](crate::par::PhaseProfile) in its
    /// [`ParStats`](crate::par::ParStats). Off by default; the profile
    /// measures wall time, so it is *not* part of the bit-identical
    /// solve contract.
    #[must_use]
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }

    /// Whether per-phase profiling is enabled (for the parallel driver).
    pub(crate) fn profiling_cfg(&self) -> bool {
        self.profiling
    }

    /// Configured node limit (for the parallel driver).
    pub(crate) fn node_limit_cfg(&self) -> u64 {
        self.node_limit
    }

    /// Configured time limit (for the parallel driver).
    pub(crate) fn time_limit_cfg(&self) -> Option<Duration> {
        self.time_limit
    }

    /// Configured time source (for the parallel driver).
    pub(crate) fn clock_cfg(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Caps the number of expanded nodes (anytime behaviour).
    #[must_use]
    pub fn with_node_limit(mut self, node_limit: u64) -> Self {
        self.node_limit = node_limit.max(1);
        self
    }

    /// Caps wall-clock time (anytime behaviour).
    #[must_use]
    pub fn with_time_limit(mut self, time_limit: Duration) -> Self {
        self.time_limit = Some(time_limit);
        self
    }

    /// Number of random restarts for the local-search incumbent.
    #[must_use]
    pub fn with_incumbent_restarts(mut self, restarts: usize) -> Self {
        self.incumbent_restarts = restarts;
        self
    }

    /// Seed for the incumbent's random restarts (determinism).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects the time source used for the wall-clock deadline. With a
    /// [`VirtualClock`](enki_telemetry::VirtualClock) the deadline check
    /// becomes deterministic: time only moves when the test advances it.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Solves the instance.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the incumbent local search
    /// (none occur for a well-formed [`AllocationProblem`]).
    #[must_use = "dropping the outcome discards the branch-and-bound solution and its bound"]
    pub fn solve(&self, problem: &AllocationProblem) -> Result<SolveReport> {
        if self.threads > 1 {
            return crate::par::solve_parallel(self, problem).map(|(report, _)| report);
        }
        self.solve_sequential(problem)
    }

    /// [`solve`](Self::solve), additionally returning the parallel-run
    /// statistics (task, steal, and re-validation counters). With one
    /// thread the statistics are all zero.
    ///
    /// # Errors
    ///
    /// Exactly as [`solve`](Self::solve).
    #[must_use = "dropping the outcome discards the branch-and-bound solution and its bound"]
    pub fn solve_with_stats(
        &self,
        problem: &AllocationProblem,
    ) -> Result<(SolveReport, crate::par::ParStats)> {
        if self.threads > 1 {
            return crate::par::solve_parallel(self, problem);
        }
        Ok((
            self.solve_sequential(problem)?,
            crate::par::ParStats::sequential(),
        ))
    }

    /// The plain sequential depth-first search — also the semantic
    /// reference the parallel driver in [`crate::par`] must reproduce
    /// bit-for-bit.
    pub(crate) fn solve_sequential(&self, problem: &AllocationProblem) -> Result<SolveReport> {
        let start = self.clock.now();
        let prep = self.prepare(problem)?;
        let mut search = prep.search(self.clock.as_ref(), start, self.node_limit, self.time_limit);
        search.run_from(0);

        let proven_optimal = !search.aborted;
        let nodes = search.nodes;
        let deferments = prep.eq.expand(&search.best_chosen);
        let solution = Solution::from_deferments(problem, deferments)?;
        Ok(SolveReport {
            solution,
            nodes,
            elapsed: self.clock.now().saturating_sub(start),
            proven_optimal,
            initial_incumbent: prep.initial_incumbent,
            root_bound: prep.root_bound,
        })
    }

    /// Everything a search drive needs that does not depend on *how* the
    /// tree is walked: incumbent, class layout, per-slot and per-class
    /// tables, the split point, and the root bound.
    pub(crate) fn prepare(&self, problem: &AllocationProblem) -> Result<Prep> {
        // Incumbent via coordinate descent with restarts.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let incumbent = LocalSearch::new().solve(problem, self.incumbent_restarts, &mut rng)?;
        let initial_incumbent = incumbent.objective;

        let eq = EquivalenceClasses::group(problem);
        let class_count = eq.class_count();

        // Suffix slot-hour units and suffix allowed-hours mask per
        // *class* index: entry `c` covers classes `c..`, so `c + 1` is
        // "everything after the class being branched".
        let mut suffix_units = vec![0u32; class_count + 1];
        let mut suffix_mask = vec![0u32; class_count + 1];
        for c in (0..class_count).rev() {
            let class = &eq.classes()[c];
            let p = class.preference();
            suffix_units[c] = suffix_units[c + 1] + class.size() * u32::from(p.duration());
            suffix_mask[c] = suffix_mask[c + 1] | hours_mask(p.begin(), p.end());
        }

        // Per-slot branching tables in class order, deferments ascending.
        let mut class_size = Vec::with_capacity(class_count);
        let mut slots = Vec::with_capacity(eq.slot_count());
        for (c, class) in eq.classes().iter().enumerate() {
            class_size.push(class.size());
            let p = class.preference();
            let (b, e, dur) = (p.begin(), p.end(), p.duration());
            let next_class_slot = eq.offset(c + 1);
            for d in 0..class.choices() {
                slots.push(SlotInfo {
                    class: c,
                    begin: b + d,
                    end: e,
                    duration: dur,
                    block_mask: hours_mask(b + d, b + d + dur),
                    // Hours any remaining slot can still touch. Hours
                    // outside it are *dead*: their counts are final, so
                    // dominance and bound-cache keys project them away.
                    live_mask: hours_mask(b + d, e) | suffix_mask[c + 1],
                    last: d + 1 == class.choices(),
                    next_class_slot,
                });
            }
        }

        // Split where the tree is wide enough to feed a worker pool. The
        // product of per-class count-vector counts bounds the number of
        // seeds from above. The target is a fixed constant — NOT a
        // function of the thread count — so the split slot, and with it
        // the dominance scope below, is a pure function of the instance:
        // every drive at every thread count prunes identically.
        let mut width: u64 = 1;
        let mut split_slot = None;
        for (c, class) in eq.classes().iter().enumerate() {
            width = width.saturating_mul(compositions(class.size(), class.choices()));
            if width >= TASK_TARGET && c + 1 < class_count {
                split_slot = Some(eq.offset(c + 1));
                break;
            }
        }
        let memo_floor = split_slot.unwrap_or(0);

        // Integer view of the incumbent: per-slot counts and the exact
        // Σc² it settles to.
        let incumbent_chosen = eq.chosen_of(&incumbent.deferments);
        let mut counts = [0u32; HOURS_PER_DAY];
        for (p, &d) in problem.preferences().iter().zip(&incumbent.deferments) {
            let b = p.begin() + d;
            for h in b..b + p.duration() {
                counts[usize::from(h)] += 1;
            }
        }
        let incumbent_sumsq = unit_sum_of_squares(&counts);

        // Reference prices for the Lagrangian price bound. For any price
        // vector λ ≥ 0,
        //
        //   min Σ(c+x)²  ≥  min⟨λ, x⟩ + Σ_h min_{y∈ℕ}[(c_h+y)² − λ_h y]
        //
        // where the job minimum ranges over each remaining member's
        // feasible contiguous blocks and y over whole units, because hour
        // loads are integers. The bound is near its best at the dual
        // optimum λ* = 2·x* of the continuous relaxation, which
        // Frank-Wolfe approaches; the prices are then frozen as
        // fixed-point integers Λ = round(λ·2^[`PRICE_SHIFT`]) so every
        // in-tree evaluation is exact `u64` arithmetic (any Λ ≥ 0 keeps
        // the bound admissible — rounding only loosens it).
        let lambda = relaxation_prices(&eq, &counts, incumbent_sumsq);
        let mut prep = Prep {
            eq,
            slots,
            class_size,
            suffix_units,
            suffix_forced: OnceLock::new(),
            split_slot,
            memo_floor,
            incumbent_chosen,
            incumbent_sumsq,
            initial_incumbent,
            root_bound: 0.0,
            price_bound: false,
            lambda,
            min_price_from: Vec::new(),
            suffix_price: Vec::new(),
        };
        prep.set_prices(lambda);

        // Root bounds, reported in Σc² units (f64 for reporting only; the
        // in-tree prune comparisons stay in scaled integers). At the
        // empty prefix the price part is Σ·Λ-min and every hour's saving
        // is its integer penalty at c = 0.
        let zero = [0u32; HOURS_PER_DAY];
        let fill = unit_fill_extra(&zero, suffix_mask[0], prep.suffix_units[0]);
        let (lag_root, price_proves) = if prep.price_bound {
            let penalty = root_penalty(&lambda);
            let scaled = (prep.suffix_price[0] << (PRICE_SHIFT + 2)).saturating_sub(penalty);
            (
                scaled as f64 / (1u64 << SUMSQ_SHIFT) as f64,
                price_prunes(prep.suffix_price[0], 0, penalty, incumbent_sumsq),
            )
        } else {
            (0.0, false)
        };
        let mut bound = (fill as f64).max(lag_root);
        // A root that the price bound or the union fill already proves
        // never builds the pigeonhole tables.
        if !price_proves && !cannot_improve(fill, incumbent_sumsq) {
            let pigeon = unit_pigeonhole_bound(&zero, suffix_mask[0], &prep.suffix_forced()[0]);
            bound = bound.max(pigeon as f64);
        }
        prep.root_bound = problem.sigma() * problem.rate() * problem.rate() * bound;
        Ok(prep)
    }
}

/// Fixed seed-count target for the parallel split. Intentionally not
/// scaled by the thread count (see [`BranchAndBound::prepare`]); 64
/// seeds oversubscribe any realistic pool, and the validation drive's
/// cost grows only with the prefix.
const TASK_TARGET: u64 = 64;

/// Entries kept in the per-subtree dominance set before it stops
/// growing (further states are explored normally — still correct, just
/// unpruned). Bounds memory deterministically.
const DOMINANCE_CAP: usize = 100_000;

/// Entries kept in the pigeonhole bound-value cache. The cache is pure
/// (values, not decisions), so capping it never changes the walk.
const BOUND_CACHE_CAP: usize = 100_000;

/// Fixed-point scale shift for the Lagrangian reference prices: prices
/// are stored as `Λ = round(λ · 2^PRICE_SHIFT)`. The in-tree prune test
/// compares values scaled by `4·2^(2·PRICE_SHIFT)`, which stays exact in
/// `u64` only inside an envelope that [`price_bound_fits`] checks once
/// per instance — roughly `Σc² < 2^30`, comfortably beyond day-sized
/// instances (`Σc²` at n=1024 is ≈ 2^19).
const PRICE_SHIFT: u32 = 16;

/// Shift that lifts a `Σc²` value to the price-bound comparison's scale
/// `4·2^(2·PRICE_SHIFT)`.
const SUMSQ_SHIFT: u32 = 2 * PRICE_SHIFT + 2;

/// One whole unit of hour load on the scale of an hour's price
/// shortfall `Λ − 2^(PRICE_SHIFT+1)·c` (see [`integer_penalty`]). A power
/// of two, so rounding to it is a mask.
const LOAD_UNIT: u64 = 1 << (PRICE_SHIFT + 1);

/// The parity cut's 2 `Σc²` units at the comparison scale: the price
/// bound prunes once it exceeds `best − 2`.
const PARITY_SLACK: u64 = 2 << SUMSQ_SHIFT;

/// The parity cut for an integer bound on `Σc²`. Every schedule's `Σc²`
/// has the parity of the schedule-independent `Σc`, so anything better
/// than `best` is at most `best − 2`: a subtree whose bound exceeds that
/// holds no improvement.
#[inline]
fn cannot_improve(bound: u64, best: u64) -> bool {
    bound + 1 >= best
}

/// What one live hour can still save below its price level, at the
/// comparison scale, with whole-unit loads: `min_{y∈ℕ}[(c+y)² − λy]` is
/// `c² − (s² − r²)` for the real shortfall `s = λ/2 − c` and its distance
/// `r` to the nearest integer. `short` is `s` in fixed point
/// (`Λ − 2^(PRICE_SHIFT+1)·c`, saturated at 0), so `r` is its distance to
/// the nearest multiple of [`LOAD_UNIT`].
#[inline]
fn integer_penalty(short: u64) -> u64 {
    let below = short & (LOAD_UNIT - 1);
    let r = below.min(LOAD_UNIT - below);
    short * short - r * r
}

/// The price-bound prune test at the comparison scale: the bound
/// `price/2^PRICE_SHIFT + sumsq − penalty/2^SUMSQ_SHIFT` exceeds
/// `best − 2`, rearranged to stay unsigned. Exact inside the instance's
/// [`price_bound_fits`] envelope.
#[inline]
fn price_prunes(price_part: u64, sumsq: u64, penalty: u64, best: u64) -> bool {
    (price_part << (PRICE_SHIFT + 2)) + (sumsq << SUMSQ_SHIFT) + PARITY_SLACK
        > (best << SUMSQ_SHIFT) + penalty
}

/// Σ over every hour of the [`integer_penalty`] at an empty prefix (`c =
/// 0`). Hours no window reaches carry `Λ = 0` and add nothing. Call only
/// inside the [`price_bound_fits`] envelope.
fn root_penalty(lambda: &[u64; HOURS_PER_DAY]) -> u64 {
    lambda.iter().map(|&l| integer_penalty(l)).sum()
}

/// Whether every term of the scaled price-bound comparison in
/// [`price_prunes`] fits `u64` on this instance. The search only
/// descends while the prefix Σc² is below the incumbent's, the price
/// part never exceeds `price_cap`, and the penalty never exceeds ΣΛ².
/// Outside this envelope the price bound is skipped: union fill and
/// pigeonhole still prune, so the search stays exact, only slower.
fn price_bound_fits(price_cap: u64, incumbent_sumsq: u64, lambda: &[u64; HOURS_PER_DAY]) -> bool {
    let sumsq_part = incumbent_sumsq.checked_mul(1 << SUMSQ_SHIFT);
    let price_part = price_cap.checked_mul(1 << (PRICE_SHIFT + 2));
    let penalty = lambda
        .iter()
        .try_fold(0u64, |acc, &l| acc.checked_add(l.checked_mul(l)?));
    let lhs = sumsq_part
        .zip(price_part)
        .and_then(|(s, p)| s.checked_add(p)?.checked_add(PARITY_SLACK));
    let rhs = sumsq_part.zip(penalty).and_then(|(s, q)| s.checked_add(q));
    lhs.is_some() && rhs.is_some()
}

/// The Λ-price of every `(class, deferment)` block, in slot order.
fn slot_prices(eq: &EquivalenceClasses, lambda: &[u64; HOURS_PER_DAY]) -> Vec<u64> {
    // Λ_h < 2^49 (see `fixed_prices`), so 24 of them sum well inside u64.
    let mut prefix = [0u64; HOURS_PER_DAY + 1];
    for h in 0..HOURS_PER_DAY {
        prefix[h + 1] = prefix[h] + lambda[h];
    }
    let mut prices = Vec::with_capacity(eq.slot_count());
    for class in eq.classes() {
        let p = class.preference();
        let (b, v) = (usize::from(p.begin()), usize::from(p.duration()));
        for d in 0..usize::from(class.choices()) {
            prices.push(prefix[b + d + v] - prefix[b + d]);
        }
    }
    prices
}

/// Σ over classes of size · cheapest block price and of size · dearest
/// block price, saturating: the root price part and the cap on every
/// in-tree price part.
fn class_price_totals(eq: &EquivalenceClasses, slot_price: &[u64]) -> (u64, u64) {
    let mut totals = (0u64, 0u64);
    for (c, class) in eq.classes().iter().enumerate() {
        let blocks = &slot_price[eq.offset(c)..eq.offset(c + 1)];
        let size = u64::from(class.size());
        let cheapest = blocks.iter().copied().min().unwrap_or(0);
        let dearest = blocks.iter().copied().max().unwrap_or(0);
        totals.0 = totals.0.saturating_add(size.saturating_mul(cheapest));
        totals.1 = totals.1.saturating_add(size.saturating_mul(dearest));
    }
    totals
}

/// Whether the price bound at `lambda` runs on this instance and prunes
/// the root against `incumbent_sumsq`: the search's first prune test,
/// evaluated ahead of it.
fn root_price_proves(
    eq: &EquivalenceClasses,
    lambda: &[u64; HOURS_PER_DAY],
    incumbent_sumsq: u64,
) -> bool {
    let (cheapest, cap) = class_price_totals(eq, &slot_prices(eq, lambda));
    price_bound_fits(cap, incumbent_sumsq, lambda)
        && price_prunes(cheapest, 0, root_penalty(lambda), incumbent_sumsq)
}

/// Frank-Wolfe iteration cap for the continuous-relaxation prices. The
/// loop usually exits early on the root proof or the duality-gap test;
/// the cap bounds preparation time deterministically.
const FW_MAX_ITERS: u32 = 20_000;

/// Frank-Wolfe duality-gap stop (in Σc² units): once the linearized gap
/// is below this the prices are within a quarter unit of dual-optimal,
/// which is far below the integrality gap the branching must close
/// anyway.
const FW_EPS: f64 = 0.25;

/// Dual reference prices for the price bound, via Frank-Wolfe on the
/// continuous relaxation of Eq. 2 (members may split fractionally across
/// their feasible blocks). Each step places every class on its cheapest
/// block under the gradient prices `2x` and moves with the exact
/// closed-form line search; the run is warm-started from the incumbent
/// loads and is a pure function of `(eq, incumbent)`, so every drive of
/// the same instance sees identical prices.
///
/// Each direction step also prices the root: at `λ = 2x` the integer
/// bound is `⟨2x, s⟩ − Σx² + Σr²` (with `r_h` the distance of `x_h` to the
/// nearest integer), and once that exceeds `incumbent − 2` and the
/// fixed-point test confirms it ([`root_price_proves`]), the search will
/// prune its root, so the loop stops there. Otherwise it runs to the gap
/// test or the iteration cap. Returns the fixed-point integer prices
/// `Λ = round(2·x·2^PRICE_SHIFT)`.
fn relaxation_prices(
    eq: &EquivalenceClasses,
    incumbent_counts: &[u32; HOURS_PER_DAY],
    incumbent_sumsq: u64,
) -> [u64; HOURS_PER_DAY] {
    let mut x = [0.0f64; HOURS_PER_DAY];
    for (xh, &c) in x.iter_mut().zip(incumbent_counts) {
        *xh = f64::from(c);
    }
    let proof_level = incumbent_sumsq as f64 - 2.0;
    for _ in 0..FW_MAX_ITERS {
        // Direction: every class fully on its cheapest block under ∇f=2x.
        let mut s = [0.0f64; HOURS_PER_DAY];
        for class in eq.classes() {
            let p = class.preference();
            let (b, v) = (usize::from(p.begin()), usize::from(p.duration()));
            let mut best = f64::INFINITY;
            let mut best_d = 0;
            for d in 0..usize::from(class.choices()) {
                let val: f64 = x[b + d..b + d + v].iter().sum();
                if val < best {
                    best = val;
                    best_d = d;
                }
            }
            let weight = f64::from(class.size());
            for sh in &mut s[b + best_d..b + best_d + v] {
                *sh += weight;
            }
        }
        // Linearized gap ⟨∇f, s − x⟩ ≤ 0; small means near-optimal.
        let gap: f64 = x.iter().zip(&s).map(|(&xh, &sh)| 2.0 * xh * (sh - xh)).sum();
        // The root bound at λ = 2x: ⟨2x, s⟩ − Σx² + Σr² = Σx² + gap + Σr².
        let root: f64 = x
            .iter()
            .map(|&xh| {
                let r = xh - xh.round();
                xh * xh + r * r
            })
            .sum::<f64>()
            + gap;
        if root > proof_level {
            let lambda = fixed_prices(&x);
            if root_price_proves(eq, &lambda, incumbent_sumsq) {
                return lambda;
            }
        }
        if gap >= -FW_EPS {
            break;
        }
        let dir_sq: f64 = x.iter().zip(&s).map(|(&xh, &sh)| (sh - xh) * (sh - xh)).sum();
        if dir_sq <= 0.0 {
            break;
        }
        // Exact line search of the quadratic along x + γ(s − x).
        let gamma = (-gap / (2.0 * dir_sq)).clamp(0.0, 1.0);
        if gamma <= 0.0 {
            break;
        }
        for (xh, &sh) in x.iter_mut().zip(&s) {
            *xh += gamma * (sh - *xh);
        }
    }
    fixed_prices(&x)
}

/// Fixed-point prices `Λ = round(2·x·2^PRICE_SHIFT)` of relaxed loads.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "0 <= x_h <= member count < 2^32, so x_h·2^(PRICE_SHIFT+1) < 2^49 fits u64"
)]
fn fixed_prices(x: &[f64; HOURS_PER_DAY]) -> [u64; HOURS_PER_DAY] {
    let mut lambda = [0u64; HOURS_PER_DAY];
    let to_fixed = f64::from(1u32 << (PRICE_SHIFT + 1));
    for (l, &xh) in lambda.iter_mut().zip(x) {
        // Loads are bounded by the member count, so the product fits u64
        // with room to spare; negative is impossible but clamp anyway.
        *l = (xh * to_fixed).round().max(0.0) as u64;
    }
    lambda
}

/// Number of per-class deferment count vectors: `C(size + slack, slack)`
/// compositions of `size` members into `slack + 1` deferment bins,
/// saturating at `u64::MAX` (only ever compared against the small
/// [`TASK_TARGET`]).
fn compositions(size: u32, choices: u8) -> u64 {
    let k = u64::from(choices).saturating_sub(1);
    let n = u64::from(size) + k;
    let mut result: u64 = 1;
    for i in 1..=k {
        // Binomial prefix products are exact under this interleaved
        // multiply/divide; saturation only kicks in far above the target.
        result = result.saturating_mul(n - k + i) / i;
    }
    result
}

/// One `(class, deferment)` branching slot.
struct SlotInfo {
    /// Owning class index (into [`Prep::class_size`] and the suffix
    /// tables).
    class: usize,
    /// Block start at this deferment (`begin + d`).
    begin: u8,
    /// Window end (unchanged by deferment).
    end: u8,
    duration: u8,
    /// Hours covered by the block placed at this deferment.
    block_mask: u32,
    /// Hours any slot from this one on can still touch (the hours
    /// reachable by members deferred at least this far, `[begin + d, end)`,
    /// plus every later class's window). The complement is dead: those
    /// counts are final for the rest of the walk.
    live_mask: u32,
    /// Whether this is the class's final deferment (the remaining count
    /// is forced here).
    last: bool,
    /// First slot of the next class (jump target when the class's
    /// members are exhausted early).
    next_class_slot: usize,
}

/// Search-strategy-independent preparation of one instance: incumbent,
/// class layout, and the per-slot tables. Built once per solve and
/// shared (immutably) by every search drive — sequential, speculative
/// worker, or validation.
pub(crate) struct Prep {
    pub(crate) eq: EquivalenceClasses,
    slots: Vec<SlotInfo>,
    class_size: Vec<u32>,
    suffix_units: Vec<u32>,
    /// Per class index `c`, the pigeonhole table of classes `c..`; built
    /// by the first pigeonhole evaluation ([`Prep::suffix_forced`]).
    suffix_forced: OnceLock<Vec<ForcedUnits>>,
    /// Class-boundary slot where the parallel driver splits, when the
    /// tree is wide enough ([`TASK_TARGET`]); `None` means sequential.
    pub(crate) split_slot: Option<usize>,
    /// Dominance scope root: the split slot, or 0 when there is none.
    /// Equal across every drive of the same instance by construction.
    memo_floor: usize,
    pub(crate) incumbent_chosen: Vec<u32>,
    pub(crate) incumbent_sumsq: u64,
    pub(crate) initial_incumbent: f64,
    pub(crate) root_bound: f64,
    /// Whether the Lagrangian price bound runs: false when this instance
    /// lies outside its fixed-point envelope ([`price_bound_fits`]).
    price_bound: bool,
    /// Fixed-point reference prices for the Lagrangian price bound:
    /// `Λ_h = round(λ_h · 2^PRICE_SHIFT)` with λ ≈ 2·x* the dual-optimal
    /// prices of the continuous relaxation (see [`relaxation_prices`]).
    lambda: [u64; HOURS_PER_DAY],
    /// Per slot, the cheapest Λ-price over the class's blocks at this
    /// deferment or later (members unassigned at slot (class, d) may only
    /// defer ≥ d).
    min_price_from: Vec<u64>,
    /// Per class index `c`, Σ over classes `c'. ≥ c` of
    /// size · min block Λ-price; entry `class_count` is 0.
    suffix_price: Vec<u64>,
}

/// Per class index `c`, the pigeonhole table of classes `c..`; entry
/// `class_count` is empty.
fn forced_suffixes(eq: &EquivalenceClasses) -> Vec<ForcedUnits> {
    let mut suffix = vec![ForcedUnits::new(); eq.class_count() + 1];
    for c in (0..eq.class_count()).rev() {
        let class = &eq.classes()[c];
        let p = class.preference();
        let mut forced = suffix[c + 1].clone();
        forced.add_window_times(p.begin(), p.end(), p.duration(), class.size());
        suffix[c] = forced;
    }
    suffix
}

impl Prep {
    /// The per-class suffix pigeonhole tables, built on first use: a
    /// search the price bound or the union fill settles never needs them.
    fn suffix_forced(&self) -> &[ForcedUnits] {
        self.suffix_forced.get_or_init(|| forced_suffixes(&self.eq))
    }

    /// Freezes the reference prices `Λ` and derives the in-tree price
    /// tables and the fixed-point envelope check from them.
    fn set_prices(&mut self, lambda: [u64; HOURS_PER_DAY]) {
        let slot_price = slot_prices(&self.eq, &lambda);
        // Suffix-min within each class: members still unassigned at slot
        // (class, d) may only take deferments ≥ d.
        let mut min_price_from = slot_price.clone();
        for s in (0..min_price_from.len().saturating_sub(1)).rev() {
            if self.slots[s].class == self.slots[s + 1].class {
                min_price_from[s] = min_price_from[s].min(min_price_from[s + 1]);
            }
        }
        // Σ over whole classes `c'. ≥ c` of size · min block price.
        // Saturating: past the envelope below the sums are never used.
        let class_count = self.eq.class_count();
        let mut suffix_price = vec![0u64; class_count + 1];
        for c in (0..class_count).rev() {
            suffix_price[c] = suffix_price[c + 1].saturating_add(
                u64::from(self.class_size[c]).saturating_mul(min_price_from[self.eq.offset(c)]),
            );
        }
        let (_, price_cap) = class_price_totals(&self.eq, &slot_price);
        self.price_bound = price_bound_fits(price_cap, self.incumbent_sumsq, &lambda);
        self.lambda = lambda;
        self.min_price_from = min_price_from;
        self.suffix_price = suffix_price;
    }

    /// A fresh root-state search over this preparation.
    pub(crate) fn search<'a>(
        &'a self,
        clock: &'a dyn Clock,
        start: Duration,
        node_limit: u64,
        time_limit: Option<Duration>,
    ) -> Search<'a> {
        Search {
            prep: self,
            best_sumsq: self.incumbent_sumsq,
            best_chosen: self.incumbent_chosen.clone(),
            improved: false,
            chosen: vec![0u32; self.eq.slot_count()],
            counts: [0u32; HOURS_PER_DAY],
            sumsq: 0,
            nodes: 0,
            node_limit,
            clock,
            deadline: time_limit.map(|t| start.saturating_add(t)),
            aborted: false,
            split_slot: usize::MAX,
            seeds: Vec::new(),
            memo: None,
            consumed_tasks: 0,
            revalidated_tasks: 0,
            dominated: BTreeMap::new(),
            dominated_prefix: BTreeMap::new(),
            bound_cache: BTreeMap::new(),
            bound_evals: 0,
            bound_cache_hits: 0,
            profile_bounds: false,
            bound_ns: 0,
        }
    }
}

impl Default for BranchAndBound {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable depth-first search state over the slot tree.
pub(crate) struct Search<'a> {
    prep: &'a Prep,
    /// Best Σc² found so far (objective / (σ·rate²)), exact.
    pub(crate) best_sumsq: u64,
    /// Best per-slot member counts.
    pub(crate) best_chosen: Vec<u32>,
    /// Whether this drive improved on the incumbent it started from.
    pub(crate) improved: bool,
    /// Member count chosen per slot along the current path.
    pub(crate) chosen: Vec<u32>,
    /// Aggregate unit count per hour from the placed prefix.
    pub(crate) counts: [u32; HOURS_PER_DAY],
    /// Σc² of the placed prefix (kept incrementally, exact).
    pub(crate) sumsq: u64,
    pub(crate) nodes: u64,
    node_limit: u64,
    clock: &'a dyn Clock,
    deadline: Option<Duration>,
    pub(crate) aborted: bool,
    /// Slot at which the walk hands over to the parallel machinery:
    /// collect a [`TaskSeed`](crate::par::TaskSeed) (when `memo` is
    /// `None`) or consume a validated speculative result (when `memo` is
    /// set). `usize::MAX` — the sequential default — disables both.
    pub(crate) split_slot: usize,
    /// Subtree seeds collected at `split_slot` in visit order.
    pub(crate) seeds: Vec<crate::par::TaskSeed>,
    /// Speculative subtree results, keyed by the slot-capped `chosen`
    /// prefix. Presence turns the walk into the validation drive.
    pub(crate) memo: Option<&'a BTreeMap<Vec<u32>, crate::par::SpecResult>>,
    /// Validation drive: speculative results consumed as-is.
    pub(crate) consumed_tasks: u64,
    /// Validation drive: subtrees re-expanded inline because the
    /// speculative run raced against a different incumbent (or was
    /// missing, aborted, or would cross the node limit).
    pub(crate) revalidated_tasks: u64,
    /// Value dominance over `(slot, rem, live-hour counts)` states of the
    /// current split-subtree: the smallest prefix Σc² that has reached
    /// each state. Dead hours are projected out of the key — every
    /// completion adds the same cost to two states that agree on the
    /// live hours, so the cheaper arrival dominates. Cleared on every
    /// entry at `memo_floor`, so its contents are a pure function of the
    /// subtree walk — identical for the sequential drive, a speculative
    /// task, and inline revalidation.
    dominated: BTreeMap<(usize, u32, [u32; HOURS_PER_DAY]), u64>,
    /// The same value dominance for slots *above* the split (`slot <
    /// memo_floor`), never cleared. Sound across subtrees because only
    /// root drives (sequential, enumeration, validation) ever walk the
    /// prefix, and each builds this map deterministically from its own
    /// walk.
    dominated_prefix: BTreeMap<(usize, u32, [u32; HOURS_PER_DAY]), u64>,
    /// Memoized pigeonhole bound *increments* (bound − prefix Σc²) per
    /// `(slot, rem, live-hour counts)`. Dead hours enter the pigeonhole
    /// value only as an additive constant shared with the prefix Σc², so
    /// the increment is a pure function of the projected key. Purely a
    /// value cache, shared across the whole drive without scoping.
    bound_cache: BTreeMap<(usize, u32, [u32; HOURS_PER_DAY]), u64>,
    pub(crate) bound_evals: u64,
    pub(crate) bound_cache_hits: u64,
    /// Measure wall time spent in bound evaluation (profiling only; off
    /// in the bit-identical solve contract).
    pub(crate) profile_bounds: bool,
    pub(crate) bound_ns: u64,
}

impl Search<'_> {
    /// Starts (or resumes) the walk at a class-boundary slot: slot 0 for
    /// a root drive, the split slot for a speculative task.
    pub(crate) fn run_from(&mut self, slot: usize) {
        let rem = self.rem_at_boundary(slot);
        self.dfs(slot, rem);
    }

    /// Class size at a boundary slot (0 past the last slot).
    fn rem_at_boundary(&self, slot: usize) -> u32 {
        match self.prep.slots.get(slot) {
            Some(info) => self.prep.class_size[info.class],
            None => 0,
        }
    }

    /// Expands the node at `slot` with `rem` members of the slot's class
    /// still unassigned. `rem ≥ 1` at every in-class entry: exhausting a
    /// class jumps straight to the next class boundary.
    fn dfs(&mut self, slot: usize, rem: u32) {
        if self.aborted {
            return;
        }
        let total = self.prep.slots.len();
        if slot == self.split_slot && slot < total {
            match self.memo {
                None => {
                    // Speculative enumeration: suspend the subtree as a
                    // task instead of walking it. No node is counted —
                    // the task itself (or the validation drive) will
                    // count this node when it actually expands it.
                    self.seeds.push(crate::par::TaskSeed {
                        key: self.chosen[..slot].to_vec(),
                        chosen: self.chosen.clone(),
                        counts: self.counts,
                        sumsq: self.sumsq,
                    });
                    return;
                }
                Some(memo) => {
                    // Validation drive: a speculative result is the
                    // sequential subtree's result exactly when it ran
                    // against the incumbent the sequential search holds
                    // here (equal Σc², so every pruning decision inside
                    // matched) and consuming its node count keeps us
                    // strictly under the node limit (otherwise the limit
                    // fires *inside* the subtree and the walk must go
                    // there to abort at the right node). Anything else
                    // falls through and is re-expanded inline, which is
                    // just the sequential walk.
                    if let Some(spec) = memo.get(&self.chosen[..slot]) {
                        if !spec.aborted
                            && spec.hint == self.best_sumsq
                            && self.nodes + spec.nodes < self.node_limit
                        {
                            self.consumed_tasks += 1;
                            self.nodes += spec.nodes;
                            if let Some((sumsq, chosen)) = &spec.improved {
                                self.best_sumsq = *sumsq;
                                self.best_chosen.clone_from(chosen);
                                self.improved = true;
                            }
                            return;
                        }
                    }
                    self.revalidated_tasks += 1;
                }
            }
        }
        self.nodes += 1;
        if self.nodes >= self.node_limit {
            self.aborted = true;
            return;
        }
        // Check the wall clock at the root (so an already-expired deadline
        // aborts before any expansion) and every 4096 nodes thereafter.
        if self.nodes == 1 || self.nodes.is_multiple_of(4096) {
            if let Some(deadline) = self.deadline {
                if self.clock.now() >= deadline {
                    self.aborted = true;
                    return;
                }
            }
        }
        if slot == total {
            debug_assert_eq!(
                self.sumsq,
                unit_sum_of_squares(&self.counts),
                "incremental Σc² drifted from the full recompute at a leaf",
            );
            if self.sumsq < self.best_sumsq {
                self.best_sumsq = self.sumsq;
                self.best_chosen.clone_from(&self.chosen);
                self.improved = true;
            }
            return;
        }

        // Value dominance on the live-hour projection: a state reached
        // before with a prefix Σc² at least as small cannot be improved
        // by re-exploring it — every completion adds identical deltas
        // (remaining blocks only touch live hours), and the earlier
        // visit already searched them against an incumbent no better
        // than the current one. Subtree states are scoped to one
        // split-subtree so every drive walks identically; prefix states
        // live in their own never-cleared map.
        if slot == self.prep.memo_floor {
            self.dominated.clear();
        }
        let info = &self.prep.slots[slot];
        let mut live = self.counts;
        let mut bits = !info.live_mask & ((1u32 << HOURS_PER_DAY) - 1);
        while bits != 0 {
            let h = bits.trailing_zeros() as usize;
            live[h] = 0;
            bits &= bits - 1;
        }
        let key = (slot, rem, live);
        let map = if slot >= self.prep.memo_floor {
            &mut self.dominated
        } else {
            &mut self.dominated_prefix
        };
        match map.get_mut(&key) {
            Some(prev) if *prev <= self.sumsq => return,
            Some(prev) => *prev = self.sumsq,
            None => {
                if map.len() < DOMINANCE_CAP {
                    map.insert(key, self.sumsq);
                }
            }
        }

        if self.bound_prunes(slot, rem, &live) {
            return;
        }

        let info = &self.prep.slots[slot];
        let dur = u64::from(info.duration);
        // Σ counts over the block: delta(k) = 2k·S + k²·dur, monotone in
        // k, so children ascend in immediate cost and the per-child
        // prune below can break instead of continue.
        let mut block_sum: u64 = 0;
        let mut bits = info.block_mask;
        while bits != 0 {
            let h = bits.trailing_zeros() as usize;
            block_sum += u64::from(self.counts[h]);
            bits &= bits - 1;
        }
        let k_min = if info.last { rem } else { 0 };
        let next_class_slot = info.next_class_slot;
        let block_mask = info.block_mask;
        for k in k_min..=rem {
            let k64 = u64::from(k);
            let delta = 2 * k64 * block_sum + k64 * k64 * dur;
            // Even the relaxed completion of the remaining suffix cannot
            // rescue a child whose partial Σc² already exceeds the parity
            // cut below the incumbent; larger k only costs more, so stop
            // here.
            if cannot_improve(self.sumsq + delta, self.best_sumsq) {
                break;
            }
            self.apply(block_mask, k, true);
            self.sumsq += delta;
            self.chosen[slot] = k;
            let next_rem = rem - k;
            if !info.last && next_rem > 0 {
                self.dfs(slot + 1, next_rem);
            } else {
                // The class is exhausted (or at its final deferment):
                // jump over its remaining all-zero slots straight to the
                // next class boundary, zeroing the skipped entries so the
                // path's `chosen` stays canonical.
                for entry in &mut self.chosen[slot + 1..next_class_slot] {
                    *entry = 0;
                }
                let boundary_rem = self.rem_at_boundary(next_class_slot);
                self.dfs(next_class_slot, boundary_rem);
            }
            self.sumsq -= delta;
            self.apply(block_mask, k, false);
            if self.aborted {
                return;
            }
        }
    }

    /// Layered lower bounds at `(slot, rem)`; `true` means the subtree
    /// cannot beat the incumbent. Members of the branched class still
    /// unassigned are confined to the deferment-tightened window
    /// `[begin + d, end)`, which sharpens both bounds over the plain
    /// class window.
    fn bound_prunes(&mut self, slot: usize, rem: u32, live: &[u32; HOURS_PER_DAY]) -> bool {
        let started = self.profile_bounds.then(|| self.clock.now());
        let info = &self.prep.slots[slot];
        let class = info.class;
        let rem_units = rem * u32::from(info.duration) + self.prep.suffix_units[class + 1];
        let avail_mask = info.live_mask;

        // Cheapest first: the Lagrangian price bound. Remaining members
        // each pay at least their cheapest feasible block at the frozen
        // fixed-point reference prices; the per-hour penalty is what the
        // relaxed whole-unit load could still save below the price level
        // ([`integer_penalty`]) — evaluated on *live* hours only, because
        // dead hours can take no further load and contribute their exact
        // c². The comparison runs at scale `4·2^(2·PRICE_SHIFT)` with the
        // parity slack ([`price_prunes`]). Skipped outside the instance's
        // fixed-point envelope.
        let best = self.best_sumsq;
        let mut prunes = self.prep.price_bound && {
            let price_part =
                u64::from(rem) * self.prep.min_price_from[slot] + self.prep.suffix_price[class + 1];
            let mut penalty: u64 = 0;
            let mut bits = avail_mask;
            while bits != 0 {
                let h = bits.trailing_zeros() as usize;
                penalty += integer_penalty(
                    self.prep.lambda[h]
                        .saturating_sub(u64::from(self.counts[h]) << (PRICE_SHIFT + 1)),
                );
                bits &= bits - 1;
            }
            price_prunes(price_part, self.sumsq, penalty, best)
        };

        // Next: the analytic union fill of the remaining units.
        if !prunes {
            let fill = self.sumsq + unit_fill_extra(&self.counts, avail_mask, rem_units);
            prunes = cannot_improve(fill, best);
        }
        if !prunes {
            // The union fill pools all remaining units anywhere; when it
            // fails to prune, pay for the pigeonhole partition bound,
            // which knows the demand concentrates where the windows do.
            // The *increment* over the prefix Σc² is memoized per
            // (slot, rem, live counts): dead-hour counts enter the
            // pigeonhole value and the prefix Σc² by the same additive
            // constant, so the increment is a pure function of the
            // projected key. A pure value cache — no scoping needed.
            let key = (slot, rem, *live);
            let extra = if let Some(&value) = self.bound_cache.get(&key) {
                self.bound_cache_hits += 1;
                value
            } else {
                self.bound_evals += 1;
                let mut forced = self.prep.suffix_forced()[class + 1].clone();
                forced.add_window_times(info.begin, info.end, info.duration, rem);
                let pigeon = unit_pigeonhole_bound(&self.counts, avail_mask, &forced);
                let value = pigeon.saturating_sub(self.sumsq);
                if self.bound_cache.len() < BOUND_CACHE_CAP {
                    self.bound_cache.insert(key, value);
                }
                value
            };
            prunes = cannot_improve(self.sumsq + extra, best);
        }
        if let Some(started) = started {
            let spent = self.clock.now().saturating_sub(started);
            self.bound_ns = self
                .bound_ns
                .saturating_add(u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX));
        }
        prunes
    }

    /// Adds (or removes) `k` units on every hour of the block mask.
    fn apply(&mut self, mask: u32, k: u32, add: bool) {
        if k == 0 {
            return;
        }
        let mut bits = mask;
        while bits != 0 {
            let h = bits.trailing_zeros() as usize;
            if add {
                self.counts[h] += k;
            } else {
                self.counts[h] -= k;
            }
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use enki_core::household::Preference;

    fn pref(b: u8, e: u8, v: u8) -> Preference {
        Preference::new(b, e, v).unwrap()
    }

    fn problem(prefs: Vec<Preference>) -> AllocationProblem {
        AllocationProblem::new(prefs, 2.0, 0.3).unwrap()
    }

    #[test]
    fn solves_trivial_instance() {
        let p = problem(vec![pref(18, 20, 2)]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.proven_optimal);
        assert_eq!(r.solution.deferments, vec![0]);
    }

    #[test]
    fn packs_disjoint_jobs() {
        let p = problem(vec![pref(12, 18, 2); 3]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.proven_optimal);
        // Disjoint packing: Σl² = 6·4 ⇒ κ = 0.3·24.
        assert!((r.solution.objective - 0.3 * 24.0).abs() < 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let cases: Vec<Vec<Preference>> = vec![
            vec![pref(18, 22, 2), pref(18, 22, 2), pref(18, 20, 1)],
            vec![pref(16, 24, 3), pref(18, 21, 2), pref(17, 23, 4), pref(20, 24, 1)],
            vec![pref(0, 6, 2), pref(2, 8, 3), pref(4, 10, 2), pref(1, 7, 1)],
            vec![pref(10, 14, 1); 5],
            vec![
                pref(12, 20, 2),
                pref(14, 22, 2),
                pref(16, 24, 2),
                pref(12, 24, 3),
                pref(18, 22, 1),
            ],
        ];
        for prefs in cases {
            let p = problem(prefs);
            let exact = BranchAndBound::new().solve(&p).unwrap();
            let brute = brute_force(&p).unwrap();
            assert!(exact.proven_optimal);
            assert!(
                (exact.solution.objective - brute.objective).abs() < 1e-9,
                "B&B {} != brute {}",
                exact.solution.objective,
                brute.objective
            );
        }
    }

    #[test]
    fn class_collapse_shrinks_the_tree_on_duplicate_heavy_instances() {
        // 12 identical households: the per-household tree has 5¹² ≈ 2.4·10⁸
        // assignments; the class tree has C(16, 4) = 1820 count vectors.
        let p = problem(vec![pref(14, 20, 2); 12]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.proven_optimal);
        assert!(
            r.nodes < 20_000,
            "class search expanded {} nodes on a 1-class instance",
            r.nodes
        );
        // Perfect 3-way split: hours 14..20 at 4 households ⇒ objective
        // 0.3·6·(4·2)² = 115.2.
        assert!((r.solution.objective - 0.3 * 6.0 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn expansion_is_canonical_within_classes() {
        // Deferments within a class come back non-decreasing over members
        // in input order, whatever the search visited first.
        let p = problem(vec![pref(12, 18, 2); 3]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        let mut sorted = r.solution.deferments.clone();
        sorted.sort_unstable();
        assert_eq!(r.solution.deferments, sorted);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        // A node limit of one aborts at the root before any proof.
        let p = problem(vec![pref(0, 24, 2); 10]);
        let r = BranchAndBound::new().with_node_limit(1).solve(&p).unwrap();
        assert!(!r.proven_optimal);
        // Still returns the incumbent, a feasible solution.
        assert_eq!(r.solution.deferments.len(), 10);
        assert!(r.solution.objective >= 0.0);
    }

    #[test]
    fn time_limit_degrades_gracefully() {
        let p = problem(vec![pref(0, 24, 3); 14]);
        let r = BranchAndBound::new()
            .with_time_limit(Duration::from_millis(1))
            .solve(&p)
            .unwrap();
        assert_eq!(r.solution.deferments.len(), 14);
        assert!(r.solution.objective > 0.0);
    }

    #[test]
    fn never_worse_than_local_search_incumbent() {
        let p = problem(vec![
            pref(14, 22, 3),
            pref(16, 24, 2),
            pref(15, 23, 4),
            pref(18, 22, 2),
            pref(12, 20, 1),
        ]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.solution.objective <= r.initial_incumbent + 1e-9);
        assert!(r.improvement_over_incumbent() >= 0.0);
    }

    #[test]
    fn report_counts_nodes_and_time() {
        let p = problem(vec![pref(18, 24, 2), pref(18, 22, 2)]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.nodes >= 1);
    }

    #[test]
    fn root_bound_is_valid_and_gap_is_sane() {
        let p = problem(vec![pref(16, 24, 2), pref(18, 22, 3), pref(17, 23, 1)]);
        let r = BranchAndBound::new().solve(&p).unwrap();
        assert!(r.root_bound <= r.solution.objective + 1e-9);
        assert_eq!(r.certified_gap(), 0.0, "proven runs certify a zero gap");
        // An aborted run still reports a valid certified gap in [0, 1].
        let aborted = BranchAndBound::new().with_node_limit(1).solve(&p).unwrap();
        assert!(!aborted.proven_optimal);
        let gap = aborted.certified_gap();
        assert!((0.0..=1.0).contains(&gap), "gap = {gap}");
        assert!(aborted.root_bound <= aborted.solution.objective + 1e-9);
    }

    #[test]
    fn zero_deadline_aborts_deterministically_under_a_virtual_clock() {
        use enki_telemetry::VirtualClock;
        // On a virtual clock, time never advances on its own, so the
        // deadline comparison is pure arithmetic: a zero time limit hits
        // at the root node on every machine, every run.
        let p = problem(vec![pref(0, 24, 2); 10]);
        let runs: Vec<SolveReport> = (0..2)
            .map(|_| {
                let clock = VirtualClock::new();
                BranchAndBound::new()
                    .with_time_limit(Duration::ZERO)
                    .with_clock(clock)
                    .solve(&p)
                    .unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(!runs[0].proven_optimal);
        assert_eq!(runs[0].nodes, 1, "aborts at the root, deterministically");
        assert_eq!(runs[0].elapsed, Duration::ZERO);

        // Conversely, a generous deadline on a frozen clock never fires:
        // the search completes no matter how slow the host is.
        let clock = VirtualClock::new();
        let r = BranchAndBound::new()
            .with_time_limit(Duration::from_nanos(1))
            .with_clock(clock)
            .solve(&problem(vec![pref(18, 22, 2); 3]))
            .unwrap();
        assert!(r.proven_optimal);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = problem(vec![pref(10, 20, 2); 6]);
        let a = BranchAndBound::new().with_seed(7).solve(&p).unwrap();
        let b = BranchAndBound::new().with_seed(7).solve(&p).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn compositions_counts_multisets() {
        // C(size + slack, slack): 3 members, 3 choices ⇒ C(5, 2) = 10.
        assert_eq!(compositions(3, 3), 10);
        assert_eq!(compositions(1, 1), 1);
        assert_eq!(compositions(5, 1), 1);
        assert_eq!(compositions(0, 4), 1);
        assert_eq!(compositions(12, 5), 1820);
        // Saturates instead of overflowing.
        assert!(compositions(u32::MAX, 24) > 1u64 << 40);
    }

    /// Drives one sequential search, with the price bound forced off
    /// when `price_bound` is false. Returns whether the bound ran, whether
    /// the search proved optimality, and the best Σc².
    fn drive(bb: &BranchAndBound, p: &AllocationProblem, price_bound: bool) -> (bool, bool, u64) {
        let mut prep = bb.prepare(p).unwrap();
        prep.price_bound &= price_bound;
        let mut search = prep.search(bb.clock.as_ref(), Duration::ZERO, bb.node_limit, None);
        search.run_from(0);
        (prep.price_bound, !search.aborted, search.best_sumsq)
    }

    #[test]
    fn price_bound_fails_closed_outside_its_fixed_point_envelope() {
        let bb = BranchAndBound::new()
            .with_node_limit(2_000)
            .with_incumbent_restarts(1);
        let replicated = |classes: &[(u8, u8, u8)], k: usize| {
            problem(
                classes
                    .iter()
                    .flat_map(|&(b, e, v)| std::iter::repeat_n(pref(b, e, v), k))
                    .collect(),
            )
        };
        // (instance, inside the envelope?). One class of k two-hour jobs
        // in a four-hour window balances to k/2 units an hour, so the
        // optimum is Σc² = k²; the scaled comparison outgrows u64 between
        // k = 12,000 and 24,000, where an unguarded bound overflows.
        let cases = [
            (replicated(&[(20, 24, 2)], 12_000), true),
            (replicated(&[(20, 24, 2)], 24_000), false),
            (replicated(&[(20, 24, 2), (21, 24, 1)], 16_000), false),
            (replicated(&[(18, 22, 2), (19, 23, 1)], 40), true),
        ];
        for (p, inside) in &cases {
            let (ran, proven, sumsq) = drive(&bb, p, true);
            assert_eq!(ran, *inside, "n = {}", p.len());
            let (_, off_proven, off_sumsq) = drive(&bb, p, false);
            if proven {
                // A proof must hold against the search without the bound.
                assert!(sumsq <= off_sumsq, "n = {}: {sumsq} > {off_sumsq}", p.len());
                if off_proven {
                    assert_eq!(sumsq, off_sumsq, "n = {}", p.len());
                }
            }
        }
        let k = 24_000u64;
        assert_eq!(drive(&bb, &cases[1].0, true), (false, true, k * k));
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn integer_penalty_matches_an_exhaustive_integer_reference() {
        // c²·2^S − min_y[(c+y)²·2^S − Λ·y] is 2^S times the real saving
        // min over whole-unit loads; lifting it by 2^(S+2) more lands on
        // the comparison scale.
        let mut rng = StdRng::seed_from_u64(22);
        let s = PRICE_SHIFT;
        for case in 0..2_000 {
            let c = rng.random_range(0..40u64);
            let lambda = match case % 4 {
                // Exact multiples and half multiples of one load unit hit
                // the rounding ties.
                0 => rng.random_range(0..90u64) * (LOAD_UNIT / 2),
                1 => rng.random_range(0..90u64) * (LOAD_UNIT / 2) + 1,
                _ => rng.random_range(0..(90u64 << (s + 1))),
            };
            let y_max = (lambda >> (s + 1)) + 2;
            let value = |y: u64| -> i128 {
                i128::from(((c + y) * (c + y)) << s) - i128::from(lambda) * i128::from(y)
            };
            let min = (0..=y_max).map(value).min().unwrap();
            let reference = (i128::from((c * c) << s) - min) << (s + 2);
            let short = lambda.saturating_sub(c << (s + 1));
            assert_eq!(
                i128::from(integer_penalty(short)),
                reference,
                "c = {c}, Λ = {lambda}"
            );
        }
    }

    /// A small instance for exhaustive checks: duplicate-heavy (one to
    /// three signatures, each held by up to three households) or
    /// all-distinct (two to six different signatures), at most seven
    /// households with at most three hours of slack, crowded into the
    /// afternoon so the windows overlap.
    fn small_instance(seed: u64, duplicate_heavy: bool) -> AllocationProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut signature = || {
            let v = rng.random_range(1..=3u8);
            let slack = rng.random_range(0..=3u8);
            let b = rng.random_range(12..=24 - v - slack);
            (pref(b, b + v + slack, v), rng.random_range(1..=3usize))
        };
        let mut prefs: Vec<Preference> = Vec::new();
        if duplicate_heavy {
            for _ in 0..3 {
                let (p, copies) = signature();
                let copies = copies.min(7 - prefs.len());
                prefs.extend(std::iter::repeat_n(p, copies));
            }
        } else {
            for _ in 0..6 {
                let (p, _) = signature();
                if !prefs.contains(&p) {
                    prefs.push(p);
                }
            }
        }
        problem(prefs)
    }

    /// Every schedule of the instance with its Σc², by odometer over
    /// the deferment vectors.
    fn every_schedule(p: &AllocationProblem) -> Vec<(Vec<u8>, u64)> {
        let mut d = vec![0u8; p.len()];
        let mut all = Vec::new();
        loop {
            let mut counts = [0u32; HOURS_PER_DAY];
            for (pref, &di) in p.preferences().iter().zip(&d) {
                let b = pref.begin() + di;
                for h in b..b + pref.duration() {
                    counts[usize::from(h)] += 1;
                }
            }
            all.push((d.clone(), unit_sum_of_squares(&counts)));
            let mut i = 0;
            loop {
                if i == d.len() {
                    return all;
                }
                d[i] += 1;
                if d[i] < p.choices(i) {
                    break;
                }
                d[i] = 0;
                i += 1;
            }
        }
    }

    /// The integer root price bound at prices `Λ`, at the comparison
    /// scale, in signed arithmetic wide enough for any test price.
    fn scaled_root_price_bound(eq: &EquivalenceClasses, lambda: &[u64; HOURS_PER_DAY]) -> i128 {
        let (cheapest, _) = class_price_totals(eq, &slot_prices(eq, lambda));
        (i128::from(cheapest) << (PRICE_SHIFT + 2)) - i128::from(root_penalty(lambda))
    }

    /// Random prices `Λ ≥ 0`: zero, whole and half load units, and
    /// arbitrary values up to eight units, hour by hour.
    fn random_prices(rng: &mut StdRng) -> [u64; HOURS_PER_DAY] {
        let mut lambda = [0u64; HOURS_PER_DAY];
        for l in &mut lambda {
            *l = match rng.random_range(0..4u8) {
                0 => 0,
                1 => rng.random_range(0..16u64) * (LOAD_UNIT / 2),
                _ => rng.random_range(0..8 * LOAD_UNIT),
            };
        }
        lambda
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn parity_and_integer_price_cuts_are_admissible_on_small_instances(
            seed in any::<u64>(),
            duplicate_heavy in 0u8..2,
        ) {
            let p = small_instance(seed, duplicate_heavy == 1);
            let all = every_schedule(&p);
            let optimum = all.iter().map(|(_, sumsq)| *sumsq).min().unwrap();
            let units: u64 = p.preferences().iter().map(|q| u64::from(q.duration())).sum();
            // Parity: Σc is the same for every schedule and c² ≡ c (mod 2).
            for (_, sumsq) in &all {
                prop_assert_eq!(sumsq % 2, units % 2);
            }
            let eq = EquivalenceClasses::group(&p);
            let ceiling = i128::from(optimum) << SUMSQ_SHIFT;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..16 {
                let lambda = random_prices(&mut rng);
                let bound = scaled_root_price_bound(&eq, &lambda);
                prop_assert!(bound <= ceiling, "random prices: {bound} > {ceiling}");
            }
            let bb = BranchAndBound::new();
            let dual = bb.prepare(&p).unwrap();
            prop_assert!(scaled_root_price_bound(&eq, &dual.lambda) <= ceiling);
            let brute = brute_force(&p).unwrap();
            prop_assert!(dual.root_bound <= brute.objective + 1e-9);
            let exact = bb.solve(&p).unwrap();
            prop_assert!(exact.proven_optimal);
            prop_assert_eq!(exact.solution.objective.to_bits(), brute.objective.to_bits());
            // The local-search incumbent is usually optimal already, so
            // also search from the runner-up (the parity cut's edge: the
            // one improvement left is exactly 2 when it sits at optimum
            // + 2) and from the worst schedule, with the dual's prices and
            // with random ones in the tree.
            let runner_up = all.iter().filter(|(_, sumsq)| *sumsq > optimum).min_by_key(|(_, sumsq)| *sumsq);
            let worst = all.iter().max_by_key(|(_, sumsq)| *sumsq);
            for (deferments, sumsq) in runner_up.into_iter().chain(worst) {
                for prices in 0..3 {
                    let mut prep = bb.prepare(&p).unwrap();
                    prep.incumbent_sumsq = *sumsq;
                    prep.incumbent_chosen = prep.eq.chosen_of(deferments);
                    let lambda = if prices == 0 { prep.lambda } else { random_prices(&mut rng) };
                    prep.set_prices(lambda);
                    let mut search = prep.search(bb.clock.as_ref(), Duration::ZERO, u64::MAX, None);
                    search.run_from(0);
                    prop_assert!(!search.aborted);
                    prop_assert_eq!(search.best_sumsq, optimum);
                }
            }
        }
    }

    #[test]
    fn parity_proves_a_root_whose_bound_falls_short_of_the_incumbent() {
        // Three overlapping classes: the dual's integer root bound lands
        // strictly between `best − 2` and `best`, so only the parity cut
        // proves the incumbent, at the root, where the dual stops.
        let p = problem(
            [(16, 22, 2, 3), (17, 21, 3, 2), (15, 23, 1, 2)]
                .iter()
                .flat_map(|&(b, e, v, k)| std::iter::repeat_n(pref(b, e, v), k))
                .collect(),
        );
        let bb = BranchAndBound::new();
        let prep = bb.prepare(&p).unwrap();
        assert!(root_price_proves(&prep.eq, &prep.lambda, prep.incumbent_sumsq));
        let best = prep.incumbent_sumsq as f64;
        let bound = prep.root_bound / (p.sigma() * p.rate() * p.rate());
        assert!(best - 2.0 < bound && bound < best, "bound {bound}, best {best}");
        let report = bb.solve(&p).unwrap();
        assert!(report.proven_optimal);
        assert_eq!(report.nodes, 1);
        let brute = brute_force(&p).unwrap();
        assert_eq!(report.solution.objective.to_bits(), brute.objective.to_bits());
    }
}
