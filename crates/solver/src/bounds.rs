//! Lower bounds for the branch-and-bound search.
//!
//! At an interior node some households are already placed (giving a partial
//! load `l`) and the rest are free. Relaxing both the integrality of the
//! remaining placements *and* their per-household windows (keeping only the
//! union of allowed hours), the cheapest way to add the remaining energy
//! `E` is the continuous *water-filling* profile: pour `E` into the allowed
//! hours so that filled hours share a common level `λ`. Because
//! `Σ (l_h + x_h)²` is convex and symmetric in the poured amounts, no
//! feasible completion can cost less, so the water level yields an
//! admissible bound.
//!
//! The fill bounds ignore *where* each household may place its block: all
//! remaining energy is poolable anywhere in the union of windows, which is
//! hopelessly loose when demand concentrates around the evening peak. The
//! [`pigeonhole_partition_bound`] repairs this: for any hour interval
//! `[s, t]`, a household whose window has only `k` hours outside `[s, t]`
//! must — because its block is contiguous and fits its window — place at
//! least `duration − k` of its slot-hours *inside* `[s, t]`. Water-filling
//! that forced demand into each part of a partition of the day and summing
//! is admissible for every partition, so the maximum over partitions
//! (a 24-interval DP) is too. Forced-unit counts depend only on the set of
//! unplaced households, so the search precomputes one [`ForcedUnits`]
//! table per depth and the per-node cost stays O(H²·log H)-ish with H=24.

use enki_core::time::HOURS_PER_DAY;

/// The minimum achievable `Σ_h (l_h + x_h)²` over `x_h ≥ 0` supported on
/// `allowed` hours with `Σ x_h = energy`, given the current loads.
///
/// Hours outside `allowed` contribute their current `l_h²` unchanged.
/// Returns the *unscaled* sum of squares (multiply by `σ` for a cost).
///
/// # Panics
///
/// Panics in debug builds when `energy` is negative.
#[must_use]
pub fn water_filling_sum_of_squares(
    loads: &[f64; HOURS_PER_DAY],
    allowed: u32,
    energy: f64,
) -> f64 {
    debug_assert!(energy >= -1e-9, "energy must be non-negative");
    let base: f64 = loads.iter().map(|l| l * l).sum();
    if energy <= 0.0 || allowed == 0 {
        return base;
    }

    // Collect the allowed hours' loads, ascending.
    let mut allowed_loads: Vec<f64> = (0..HOURS_PER_DAY)
        .filter(|h| allowed & (1 << h) != 0)
        .map(|h| loads[h])
        .collect();
    // total_cmp keeps the sort total for any float input; partial
    // schedule loads are finite, but a bound must never panic.
    allowed_loads.sort_by(|a, b| a.total_cmp(b));

    // Find the water level λ: fill the k cheapest hours up to a common
    // level. After filling k hours, level = (Σ_{i<k} l_i + E)/k; valid when
    // it does not exceed the (k+1)-th load.
    let mut prefix = 0.0;
    let mut level = 0.0;
    let mut k_used = allowed_loads.len();
    for k in 1..=allowed_loads.len() {
        prefix += allowed_loads[k - 1];
        let candidate = (prefix + energy) / k as f64;
        if k == allowed_loads.len() || candidate <= allowed_loads[k] {
            level = candidate;
            k_used = k;
            break;
        }
    }

    // Replace the filled hours' squares with level².
    let mut sum = base;
    for &l in allowed_loads.iter().take(k_used) {
        sum += level * level - l * l;
    }
    sum
}

/// Builds the bitmask of hours covered by an interval `[begin, end)`.
#[must_use]
pub fn hours_mask(begin: u8, end: u8) -> u32 {
    debug_assert!(begin < end && end as usize <= HOURS_PER_DAY);
    let ones = (1u32 << (end - begin)) - 1;
    ones << begin
}

/// The minimum achievable `Σ_h (l_h + r·k_h)²` over *integer* unit counts
/// `k_h ≥ 0` supported on `allowed` hours with `Σ k_h = units`, given the
/// current loads — the discreteness-aware refinement of
/// [`water_filling_sum_of_squares`] for the common case where every
/// household draws the same rate `r`.
///
/// Greedy unit-by-unit assignment to the hour with the smallest marginal
/// increase is *exact* for this separable convex program, so the result is
/// a valid (and much tighter) lower bound on any feasible completion that
/// places `units` whole slot-hours of rate `r` inside the allowed hours.
#[must_use]
pub fn discrete_fill_sum_of_squares(
    loads: &[f64; HOURS_PER_DAY],
    allowed: u32,
    units: u32,
    rate: f64,
) -> f64 {
    let base: f64 = loads.iter().map(|l| l * l).sum();
    base + discrete_fill_extra(loads, allowed, units, rate)
}

/// The *increase* in `Σ_h l_h²` of the optimal discrete fill — the same
/// quantity as [`discrete_fill_sum_of_squares`] minus the base sum of
/// squares, for callers (the branch-and-bound search) that already
/// maintain the base incrementally and must not pay the 24-hour recompute
/// on every node.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "heap holds one entry per allowed hour and every pop is followed by a push; \
              guarded by the non-empty-mask check above the loop"
)]
pub fn discrete_fill_extra(
    loads: &[f64; HOURS_PER_DAY],
    allowed: u32,
    units: u32,
    rate: f64,
) -> f64 {
    if units == 0 || allowed == 0 || rate <= 0.0 {
        return 0.0;
    }
    // Current level per allowed hour; the marginal cost of the next unit
    // on hour h is (l + r)² − l² = 2·r·l + r², increasing in l, so a
    // min-heap on the current level is a min-heap on the marginal.
    // f64::to_bits is order-preserving for non-negative values, which
    // partial schedule loads always are.
    debug_assert!(loads.iter().all(|&l| l >= 0.0));
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    let mut levels = *loads;
    for (h, level) in levels.iter().enumerate() {
        if allowed & (1 << h) != 0 {
            heap.push(std::cmp::Reverse((level.to_bits(), h)));
        }
    }
    let mut extra = 0.0;
    for _ in 0..units {
        // Internal invariant, not input-reachable: `allowed != 0` was
        // checked above, so the heap always holds one entry per allowed
        // hour (each pop is followed by a push).
        let std::cmp::Reverse((_, h)) = heap.pop().expect("allowed mask is non-empty");
        let l = levels[h];
        extra += 2.0 * rate * l + rate * rate;
        levels[h] = l + rate;
        heap.push(std::cmp::Reverse((levels[h].to_bits(), h)));
    }
    extra
}

/// Pigeonhole-forced slot-hours per hour interval, for one set of unplaced
/// households.
///
/// `units_in(s, t)` is a provable minimum on how many rate-sized
/// slot-hours the covered households must schedule inside hours `s..=t`:
/// a household whose window `[b, e)` has `k` hours outside `[s, t]` can
/// keep at most `k` of its `duration` contiguous slot-hours out, so at
/// least `duration − k` are forced in. Tables are cheap to build
/// incrementally (one [`ForcedUnits::add_window`] per household), which is
/// how the search materialises one table per suffix of its branching
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForcedUnits {
    /// `cells[s][t]`: forced slot-hours inside `s..=t` (0 when `t < s`).
    cells: Box<[[u32; HOURS_PER_DAY]; HOURS_PER_DAY]>,
}

impl Default for ForcedUnits {
    fn default() -> Self {
        Self::new()
    }
}

impl ForcedUnits {
    /// An empty table: nothing is forced anywhere.
    #[must_use]
    pub fn new() -> Self {
        Self {
            cells: Box::new([[0u32; HOURS_PER_DAY]; HOURS_PER_DAY]),
        }
    }

    /// Accounts one household: a contiguous block of `duration` hours
    /// somewhere inside the window `[begin, end)`.
    pub fn add_window(&mut self, begin: u8, end: u8, duration: u8) {
        self.add_window_times(begin, end, duration, 1);
    }

    /// Accounts `times` identical households at once — the
    /// equivalence-class form of [`add_window`](Self::add_window). The
    /// forced-unit count of each `[s, t]` cell scales linearly with the
    /// number of identical windows, so one pass covers a whole class.
    #[expect(
        clippy::cast_sign_loss,
        reason = "s and t lie in [0, HOURS_PER_DAY) and must > 0 where they are cast"
    )]
    pub fn add_window_times(&mut self, begin: u8, end: u8, duration: u8, times: u32) {
        debug_assert!(begin < end && end as usize <= HOURS_PER_DAY);
        debug_assert!(duration > 0 && begin + duration <= end);
        if times == 0 {
            return;
        }
        let (b, e, dur) = (i32::from(begin), i32::from(end), i32::from(duration));
        let hours = i32::try_from(HOURS_PER_DAY).unwrap_or(i32::MAX);
        for s in 0..hours {
            if s >= e {
                break; // [s, t] lies entirely right of the window
            }
            for t in s.max(b)..hours {
                // Window hours strictly left of s, strictly right of t,
                // and inside [s, t]. A contiguous block avoids [s, t]
                // from one side only, so it can keep at most
                // max(left, right) of its hours out.
                let left = (s.min(e) - b).max(0);
                let right = (e - (t + 1).max(b)).max(0);
                let mid = (e.min(t + 1) - b.max(s)).max(0);
                let must = (dur - left.max(right)).max(0).min(mid);
                if must > 0 {
                    self.cells[s as usize][t as usize] += must as u32 * times;
                }
            }
        }
    }

    /// Forced slot-hours inside hours `s..=t`.
    #[must_use]
    pub fn units_in(&self, s: usize, t: usize) -> u32 {
        debug_assert!(s <= t && t < HOURS_PER_DAY);
        self.cells[s][t]
    }

    /// Whether no household is accounted at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // A window of duration d forces d units into the full day.
        self.cells[0][HOURS_PER_DAY - 1] == 0
    }
}

/// Admissible lower bound on `Σ_h l_h²` over all completions, from the
/// best partition of the day into hour intervals, each water-filled with
/// the demand [`ForcedUnits`] proves must land inside it.
///
/// For a fixed partition the per-part fills are independent relaxations of
/// disjoint hour sets, so their sum bounds every feasible completion; the
/// DP maximises over all `2²³` interval partitions in O(H²) fill
/// evaluations. Hours outside `allowed` (the union of the remaining
/// windows) accept no fill and contribute their current squares. The
/// single-part partition reproduces (the fractional form of) the plain
/// union fill, so this bound never does worse than
/// [`water_filling_sum_of_squares`].
#[must_use]
pub fn pigeonhole_partition_bound(
    loads: &[f64; HOURS_PER_DAY],
    allowed: u32,
    forced: &ForcedUnits,
    rate: f64,
) -> f64 {
    if forced.is_empty() || rate <= 0.0 || allowed == 0 {
        return loads.iter().map(|l| l * l).sum();
    }
    // Stage 1 — fractional forced-only DP to *choose* the partition.
    // dp[t + 1] = best bound for hours t+1 .. 23; filled right to left,
    // remembering the maximising split so the partition can be
    // reconstructed.
    let mut dp = [0.0f64; HOURS_PER_DAY + 1];
    let mut cut = [HOURS_PER_DAY - 1; HOURS_PER_DAY];
    for s in (0..HOURS_PER_DAY).rev() {
        // Grow [s, t] one hour at a time, keeping the allowed hours'
        // loads sorted with running prefix sums, and the disallowed
        // hours' squares accumulated.
        let mut sorted: [f64; HOURS_PER_DAY] = [0.0; HOURS_PER_DAY];
        let mut open = 0usize;
        let mut fixed_sq = 0.0f64;
        let mut best = f64::NEG_INFINITY;
        for t in s..HOURS_PER_DAY {
            let l = loads[t];
            if allowed & (1 << t) != 0 {
                // Insertion into the sorted prefix (≤ 24 elements).
                let mut i = open;
                while i > 0 && sorted[i - 1] > l {
                    sorted[i] = sorted[i - 1];
                    i -= 1;
                }
                sorted[i] = l;
                open += 1;
            } else {
                fixed_sq += l * l;
            }
            let energy = f64::from(forced.units_in(s, t)) * rate;
            let part = fixed_sq + fill_cost_sorted(&sorted[..open], energy);
            let candidate = part + dp[t + 1];
            if candidate > best {
                best = candidate;
                cut[s] = t;
            }
        }
        dp[s] = best;
    }

    // Stage 2 — discrete laminar fill along the chosen partition. Any
    // feasible completion places `units_in(0, 23)` whole slot-hours in
    // total, with at least the forced quota inside each part. Over that
    // laminar family the separable convex minimum is the greedy fill:
    // quota units to the cheapest hours of their part, then the leftover
    // units to the globally cheapest allowed hours. This dominates the
    // fractional forced-only value of the same partition (discrete ≥
    // fractional, and every leftover unit has positive marginal cost),
    // but the DP above maximised the fractional value, so keep the max.
    let mut levels = *loads;
    let total = forced.units_in(0, HOURS_PER_DAY - 1);
    let mut used = 0u32;
    let mut s = 0usize;
    while s < HOURS_PER_DAY {
        let t = cut[s];
        let quota = forced.units_in(s, t);
        used += quota;
        for _ in 0..quota {
            // A positive quota implies an allowed hour in the part: each
            // contributing household's window overlaps [s, t] and window
            // hours are allowed.
            let mut cheapest = usize::MAX;
            for (h, level) in levels.iter().enumerate().take(t + 1).skip(s) {
                if allowed & (1 << h) != 0
                    && (cheapest == usize::MAX || *level < levels[cheapest])
                {
                    cheapest = h;
                }
            }
            levels[cheapest] += rate;
        }
        s = t + 1;
    }
    for _ in used..total {
        let mut cheapest = usize::MAX;
        for (h, level) in levels.iter().enumerate() {
            if allowed & (1 << h) != 0 && (cheapest == usize::MAX || *level < levels[cheapest]) {
                cheapest = h;
            }
        }
        levels[cheapest] += rate;
    }
    let laminar: f64 = levels.iter().map(|l| l * l).sum();
    laminar.max(dp[0])
}

/// `Σ_h c_h²` of an hourly unit-count vector, in exact integer
/// arithmetic.
///
/// The equivalence-class search keeps the day's load as *unit counts*
/// (slot-hours of the shared rate per hour) instead of kilowatt floats:
/// the Eq. 2 objective is then `σ·rate²·Σc²`, every delta evaluation is
/// branch-free integer math, and the one-shot conversion back to f64 at
/// solution boundaries is exact for any realistic day (`Σc² < 2^53`).
#[must_use]
pub fn unit_sum_of_squares(counts: &[u32; HOURS_PER_DAY]) -> u64 {
    counts.iter().map(|&c| u64::from(c) * u64::from(c)).sum()
}

/// The exact minimum *increase* in `Σ_h c_h²` from adding `units` whole
/// units to `allowed` hours — the integer-count analog of
/// [`discrete_fill_extra`], computed analytically in O(24·log 24)
/// instead of per-unit heap pops.
///
/// Greedy unit-by-unit fill to the lowest hour is optimal for this
/// separable convex program, and its closed form is the balanced fill:
/// raise the `k` lowest counts to a common level `q` (with `r` of them
/// at `q+1`), where `k` is the smallest prefix of the ascending counts
/// whose balanced level stays at or below the next count.
#[must_use]
pub fn unit_fill_extra(counts: &[u32; HOURS_PER_DAY], allowed: u32, units: u32) -> u64 {
    if units == 0 || allowed == 0 {
        return 0;
    }
    let mut ascending: [u32; HOURS_PER_DAY] = [0; HOURS_PER_DAY];
    let mut m = 0usize;
    for (h, &c) in counts.iter().enumerate() {
        if allowed & (1 << h) != 0 {
            ascending[m] = c;
            m += 1;
        }
    }
    let slice = &mut ascending[..m];
    slice.sort_unstable();
    let mut prefix = 0u64;
    let mut prefix_sq = 0u64;
    for k in 1..=m {
        let c = u64::from(slice[k - 1]);
        prefix += c;
        prefix_sq += c * c;
        let total = prefix + u64::from(units);
        let next = if k < m { u64::from(slice[k]) } else { u64::MAX };
        // The balanced level over the k lowest hours is valid when it
        // does not exceed the (k+1)-th count: total ≤ k·next covers both
        // q < next and the exact-tie q == next with r == 0.
        if next == u64::MAX || total <= k as u64 * next {
            let q = total / k as u64;
            let r = total % k as u64;
            return (k as u64 - r) * q * q + r * (q + 1) * (q + 1) - prefix_sq;
        }
    }
    0
}

/// Integer-count analog of [`pigeonhole_partition_bound`]: an
/// admissible lower bound on `Σ_h c_h²` over all completions that place
/// the forced unit counts. The result is exact integer arithmetic in
/// count space; multiply by `σ·rate²` for a cost bound.
///
/// Stage 1 runs the same fractional partition DP as the f64 bound (the
/// cuts are a pure function of the integer inputs, so they are
/// deterministic), stage 2 performs the discrete laminar fill directly
/// on unit counts. The laminar value dominates the fractional value of
/// its own partition, so no final `max` against the DP is needed.
#[must_use]
pub fn unit_pigeonhole_bound(
    counts: &[u32; HOURS_PER_DAY],
    allowed: u32,
    forced: &ForcedUnits,
) -> u64 {
    if forced.is_empty() || allowed == 0 {
        return unit_sum_of_squares(counts);
    }
    // Stage 1 — fractional forced-only DP to *choose* the partition
    // (rate 1: one unit of count per forced slot-hour).
    let mut dp = [0.0f64; HOURS_PER_DAY + 1];
    let mut cut = [HOURS_PER_DAY - 1; HOURS_PER_DAY];
    for s in (0..HOURS_PER_DAY).rev() {
        let mut sorted: [f64; HOURS_PER_DAY] = [0.0; HOURS_PER_DAY];
        let mut open = 0usize;
        let mut fixed_sq = 0.0f64;
        let mut best = f64::NEG_INFINITY;
        for t in s..HOURS_PER_DAY {
            let c = f64::from(counts[t]);
            if allowed & (1 << t) != 0 {
                let mut i = open;
                while i > 0 && sorted[i - 1] > c {
                    sorted[i] = sorted[i - 1];
                    i -= 1;
                }
                sorted[i] = c;
                open += 1;
            } else {
                fixed_sq += c * c;
            }
            let energy = f64::from(forced.units_in(s, t));
            let part = fixed_sq + fill_cost_sorted(&sorted[..open], energy);
            let candidate = part + dp[t + 1];
            if candidate > best {
                best = candidate;
                cut[s] = t;
            }
        }
        dp[s] = best;
    }

    // Stage 2 — discrete laminar fill along the chosen partition, in
    // exact integer arithmetic: per-part quotas to the cheapest hours
    // of their part, then the leftover units to the globally cheapest
    // allowed hours.
    let mut levels = *counts;
    let total = forced.units_in(0, HOURS_PER_DAY - 1);
    let mut used = 0u32;
    let mut s = 0usize;
    while s < HOURS_PER_DAY {
        let t = cut[s];
        let quota = forced.units_in(s, t);
        used += quota;
        fill_units_into(&mut levels, allowed, s, t, quota);
        s = t + 1;
    }
    fill_units_into(
        &mut levels,
        allowed,
        0,
        HOURS_PER_DAY - 1,
        total.saturating_sub(used),
    );
    unit_sum_of_squares(&levels)
}

/// Deterministically pours `units` whole units into the allowed hours
/// of `s..=t`, one unit at a time to the lowest level (ties broken by
/// hour index). Exact for the separable convex `Σc²` objective; the
/// deterministic tie-break keeps bound values byte-reproducible.
fn fill_units_into(
    levels: &mut [u32; HOURS_PER_DAY],
    allowed: u32,
    s: usize,
    t: usize,
    units: u32,
) {
    for _ in 0..units {
        let mut cheapest = usize::MAX;
        for h in s..=t.min(HOURS_PER_DAY - 1) {
            if allowed & (1 << h) != 0 && (cheapest == usize::MAX || levels[h] < levels[cheapest]) {
                cheapest = h;
            }
        }
        // A positive quota implies an allowed hour in the range: each
        // contributing window overlaps it and window hours are allowed.
        let Some(level) = levels.get_mut(cheapest) else {
            return;
        };
        *level += 1;
    }
}

/// Water-fill `energy` into hours whose loads are given ascending;
/// returns the resulting sum of squares over those hours.
fn fill_cost_sorted(ascending: &[f64], energy: f64) -> f64 {
    if ascending.is_empty() {
        debug_assert!(energy <= 0.0, "forced energy needs an allowed hour");
        return 0.0;
    }
    if energy <= 0.0 {
        return ascending.iter().map(|l| l * l).sum();
    }
    // Find the water level: after filling the k cheapest hours,
    // level = (Σ_{i<k} l_i + E)/k, valid when ≤ the (k+1)-th load.
    let mut prefix = 0.0;
    let mut level = 0.0;
    let mut k_used = ascending.len();
    for k in 1..=ascending.len() {
        prefix += ascending[k - 1];
        let candidate = (prefix + energy) / k as f64;
        if k == ascending.len() || candidate <= ascending[k] {
            level = candidate;
            k_used = k;
            break;
        }
    }
    let mut sum = level * level * k_used as f64;
    for &l in &ascending[k_used..] {
        sum += l * l;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> [f64; HOURS_PER_DAY] {
        [v; HOURS_PER_DAY]
    }

    #[test]
    fn zero_energy_returns_current_cost() {
        let loads = flat(2.0);
        let s = water_filling_sum_of_squares(&loads, u32::MAX, 0.0);
        assert!((s - 24.0 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_mask_returns_current_cost() {
        let loads = flat(1.0);
        let s = water_filling_sum_of_squares(&loads, 0, 10.0);
        assert!((s - 24.0).abs() < 1e-12);
    }

    #[test]
    fn fills_empty_hours_evenly() {
        // 4 empty allowed hours, energy 8 ⇒ level 2 each ⇒ Σ = 4·4 = 16.
        let loads = [0.0; HOURS_PER_DAY];
        let mask = hours_mask(10, 14);
        let s = water_filling_sum_of_squares(&loads, mask, 8.0);
        assert!((s - 16.0).abs() < 1e-12);
    }

    #[test]
    fn prefers_less_loaded_hours() {
        // Hours 0 and 1 allowed with loads 0 and 3; energy 1 goes entirely
        // to hour 0: Σ = 1 + 9 = 10 (pouring on hour 1 would give 0+16).
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[1] = 3.0;
        let s = water_filling_sum_of_squares(&loads, 0b11, 1.0);
        assert!((s - 10.0).abs() < 1e-12);
    }

    #[test]
    fn equalizes_when_energy_is_large() {
        // Loads 1 and 3 on two allowed hours, energy 4 ⇒ level (1+3+4)/2 = 4
        // on both ⇒ Σ = 32.
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[0] = 1.0;
        loads[1] = 3.0;
        let s = water_filling_sum_of_squares(&loads, 0b11, 4.0);
        assert!((s - 32.0).abs() < 1e-12);
    }

    #[test]
    fn partial_fill_respects_level_constraint() {
        // Loads 0, 2 allowed; energy 1: fill hour 0 to level 1 (≤ 2) and
        // leave hour 1 alone: Σ = 1 + 4 = 5.
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[1] = 2.0;
        let s = water_filling_sum_of_squares(&loads, 0b11, 1.0);
        assert!((s - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bound_never_exceeds_any_feasible_completion() {
        // Discrete completion: put 2 kWh on hour 5 and 2 kWh on hour 6 with
        // background load; the relaxation must be ≤ the discrete cost.
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[5] = 1.0;
        loads[7] = 4.0;
        let mask = hours_mask(5, 8);
        let bound = water_filling_sum_of_squares(&loads, mask, 4.0);
        let mut discrete = loads;
        discrete[5] += 2.0;
        discrete[6] += 2.0;
        let discrete_cost: f64 = discrete.iter().map(|l| l * l).sum();
        assert!(bound <= discrete_cost + 1e-12);
    }

    #[test]
    fn hours_mask_covers_expected_bits() {
        let m = hours_mask(22, 24);
        assert_eq!(m, 0b11 << 22);
        assert_eq!(hours_mask(0, 24), (1u32 << 24) - 1);
    }

    #[test]
    fn discrete_fill_matches_hand_packing() {
        // 3 allowed empty hours, 4 units of rate 2: best integer split is
        // 2/1/1 ⇒ Σ = 16 + 4 + 4 = 24.
        let loads = [0.0; HOURS_PER_DAY];
        let s = discrete_fill_sum_of_squares(&loads, hours_mask(0, 3), 4, 2.0);
        assert!((s - 24.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_fill_dominates_water_filling() {
        // The integer bound is always at least the continuous one.
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[5] = 1.0;
        loads[6] = 3.0;
        let mask = hours_mask(4, 9);
        for units in 0..8u32 {
            let cont = water_filling_sum_of_squares(&loads, mask, f64::from(units) * 2.0);
            let disc = discrete_fill_sum_of_squares(&loads, mask, units, 2.0);
            assert!(disc >= cont - 1e-9, "units={units}: {disc} < {cont}");
        }
    }

    #[test]
    fn discrete_fill_prefers_least_loaded_hours() {
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[0] = 4.0;
        // One unit of rate 2 goes to the empty hour 1: Σ = 16 + 4.
        let s = discrete_fill_sum_of_squares(&loads, 0b11, 1, 2.0);
        assert!((s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn discrete_fill_zero_units_is_identity() {
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[3] = 2.5;
        let s = discrete_fill_sum_of_squares(&loads, u32::MAX >> 8, 0, 2.0);
        assert!((s - 6.25).abs() < 1e-12);
    }

    #[test]
    fn bound_is_monotone_in_energy() {
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[3] = 2.0;
        let mask = hours_mask(0, 8);
        let mut last = 0.0;
        for e in 0..10 {
            let s = water_filling_sum_of_squares(&loads, mask, f64::from(e));
            assert!(s >= last - 1e-12);
            last = s;
        }
    }

    #[test]
    fn discrete_fill_extra_matches_full_recompute() {
        let mut loads = [0.0; HOURS_PER_DAY];
        loads[4] = 1.5;
        loads[9] = 3.0;
        let base: f64 = loads.iter().map(|l| l * l).sum();
        let mask = hours_mask(3, 11);
        for units in 0..6u32 {
            let full = discrete_fill_sum_of_squares(&loads, mask, units, 2.0);
            let extra = discrete_fill_extra(&loads, mask, units, 2.0);
            assert!((base + extra - full).abs() < 1e-12);
        }
    }

    #[test]
    fn forced_units_counts_contained_windows_fully() {
        let mut f = ForcedUnits::new();
        f.add_window(18, 22, 2);
        // Window inside [16, 23]: all 2 slot-hours are forced.
        assert_eq!(f.units_in(16, 23), 2);
        assert_eq!(f.units_in(18, 21), 2);
        // Part disjoint from the window: nothing forced.
        assert_eq!(f.units_in(0, 10), 0);
    }

    #[test]
    fn forced_units_pigeonholes_straddling_windows() {
        let mut f = ForcedUnits::new();
        // Window [3, 10), duration 4: 3 hours left of 6, 1 right of 8.
        f.add_window(3, 10, 4);
        // Inside [6, 8]: the block can keep at most max(3, 1) = 3 hours
        // out, so at least 1 is forced in.
        assert_eq!(f.units_in(6, 8), 1);
        // Inside [5, 9]: at most max(2, 0) = 2 out, 2 forced in.
        assert_eq!(f.units_in(5, 9), 2);
        // A narrow middle part is capped by its own width.
        f = ForcedUnits::new();
        f.add_window(0, 24, 23);
        assert_eq!(f.units_in(11, 11), 1);
    }

    #[test]
    fn forced_units_is_empty_only_without_windows() {
        let mut f = ForcedUnits::new();
        assert!(f.is_empty());
        f.add_window(0, 4, 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn unit_fill_extra_matches_worked_example() {
        // Counts 0, 0, 10 on three allowed hours, 3 units: balanced fill
        // raises the two empty hours to levels 2 and 1 ⇒ extra 4 + 1 = 5.
        let mut counts = [0u32; HOURS_PER_DAY];
        counts[2] = 10;
        assert_eq!(unit_fill_extra(&counts, 0b111, 3), 5);
        // Zero units and empty masks are identities.
        assert_eq!(unit_fill_extra(&counts, 0b111, 0), 0);
        assert_eq!(unit_fill_extra(&counts, 0, 7), 0);
    }

    #[test]
    fn unit_fill_extra_matches_per_unit_greedy() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let mut counts = [0u32; HOURS_PER_DAY];
            for c in &mut counts {
                *c = rng.random_range(0..6u32);
            }
            let allowed: u32 = rng.random_range(1..(1u32 << HOURS_PER_DAY));
            let units = rng.random_range(0..20u32);
            let base = unit_sum_of_squares(&counts);
            let mut levels = counts;
            fill_units_into(&mut levels, allowed, 0, HOURS_PER_DAY - 1, units);
            let greedy = unit_sum_of_squares(&levels) - base;
            assert_eq!(
                unit_fill_extra(&counts, allowed, units),
                greedy,
                "counts={counts:?} allowed={allowed:#x} units={units}"
            );
        }
    }

    #[test]
    fn unit_fill_extra_scales_like_discrete_fill() {
        // With loads = rate·counts, the f64 discrete fill is the exact
        // rate²-scaling of the integer fill.
        let mut counts = [0u32; HOURS_PER_DAY];
        counts[5] = 2;
        counts[6] = 1;
        let rate = 2.0;
        let mut loads = [0.0; HOURS_PER_DAY];
        for (l, &c) in loads.iter_mut().zip(&counts) {
            *l = rate * f64::from(c);
        }
        let mask = hours_mask(4, 9);
        for units in 0..8u32 {
            let float = discrete_fill_extra(&loads, mask, units, rate);
            let integer = unit_fill_extra(&counts, mask, units);
            let scaled = rate * rate * integer as f64;
            assert!(
                (float - scaled).abs() < 1e-9,
                "units={units}: {float} vs {scaled}"
            );
        }
    }

    #[test]
    fn add_window_times_matches_repeated_add_window() {
        let mut once = ForcedUnits::new();
        for _ in 0..5 {
            once.add_window(3, 10, 4);
        }
        let mut times = ForcedUnits::new();
        times.add_window_times(3, 10, 4, 5);
        assert_eq!(once, times);
        let mut zero = ForcedUnits::new();
        zero.add_window_times(3, 10, 4, 0);
        assert!(zero.is_empty());
    }

    #[test]
    fn unit_pigeonhole_scales_like_float_pigeonhole() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        // With loads = rate·counts the whole f64 pigeonhole pipeline is
        // homogeneous of degree 2 in rate, so the integer bound times
        // rate² must agree (up to float noise) with the f64 bound.
        let mut rng = StdRng::seed_from_u64(41);
        let rate = 2.0;
        for _ in 0..40 {
            let mut forced = ForcedUnits::new();
            let mut mask = 0u32;
            let mut counts = [0u32; HOURS_PER_DAY];
            for _ in 0..rng.random_range(1..5usize) {
                let b = rng.random_range(0..18u8);
                let d = rng.random_range(1..4u8);
                let e = rng.random_range(b + d..=(b + d + 4).min(24));
                let times = rng.random_range(1..4u32);
                forced.add_window_times(b, e, d, times);
                mask |= hours_mask(b, e);
            }
            for (h, count) in counts.iter_mut().enumerate() {
                if mask & (1 << h) != 0 && rng.random_range(0..3u8) == 0 {
                    *count = rng.random_range(0..4u32);
                }
            }
            let mut loads = [0.0; HOURS_PER_DAY];
            for (l, &c) in loads.iter_mut().zip(&counts) {
                *l = rate * f64::from(c);
            }
            let float = pigeonhole_partition_bound(&loads, mask, &forced, rate);
            let integer = unit_pigeonhole_bound(&counts, mask, &forced);
            let scaled = rate * rate * integer as f64;
            assert!(
                (float - scaled).abs() < 1e-6 * scaled.max(1.0),
                "float {float} vs scaled integer {scaled}"
            );
        }
    }

    #[test]
    fn unit_pigeonhole_dominates_unit_fill() {
        let mut forced = ForcedUnits::new();
        forced.add_window_times(17, 21, 2, 3);
        forced.add_window_times(18, 22, 3, 2);
        let mask = hours_mask(17, 22);
        let counts = [0u32; HOURS_PER_DAY];
        let units = forced.units_in(0, HOURS_PER_DAY - 1);
        let fill = unit_sum_of_squares(&counts) + unit_fill_extra(&counts, mask, units);
        let pigeon = unit_pigeonhole_bound(&counts, mask, &forced);
        assert!(pigeon >= fill, "pigeonhole {pigeon} below plain fill {fill}");
    }

    #[test]
    fn partition_bound_dominates_plain_water_filling() {
        use crate::problem::AllocationProblem;
        use enki_core::household::Preference;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.random_range(2..6usize);
            let prefs: Vec<Preference> = (0..n)
                .map(|_| {
                    let b = rng.random_range(0..18u8);
                    let d = rng.random_range(1..4u8);
                    let e = rng.random_range(b + d..=(b + d + 4).min(24));
                    Preference::new(b, e, d).unwrap()
                })
                .collect();
            let problem = AllocationProblem::new(prefs.clone(), 2.0, 1.0).unwrap();
            let mut forced = ForcedUnits::new();
            let mut mask = 0u32;
            let mut energy = 0.0;
            for p in &prefs {
                forced.add_window(p.window().begin(), p.window().end(), p.duration());
                mask |= hours_mask(p.window().begin(), p.window().end());
                energy += f64::from(p.duration()) * problem.rate();
            }
            let loads = [0.0; HOURS_PER_DAY];
            let plain = water_filling_sum_of_squares(&loads, mask, energy);
            let part = pigeonhole_partition_bound(&loads, mask, &forced, problem.rate());
            assert!(
                part >= plain - 1e-9,
                "partition bound {part} below plain water filling {plain}"
            );
        }
    }

    #[test]
    fn partition_bound_is_admissible_against_brute_force() {
        use crate::brute::brute_force;
        use crate::problem::AllocationProblem;
        use enki_core::household::Preference;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(2017);
        for case in 0..60 {
            let n = rng.random_range(2..6usize);
            let prefs: Vec<Preference> = (0..n)
                .map(|_| {
                    let b = rng.random_range(0..16u8);
                    let d = rng.random_range(1..4u8);
                    let e = rng.random_range(b + d..=(b + d + 5).min(24));
                    Preference::new(b, e, d).unwrap()
                })
                .collect();
            let problem = AllocationProblem::new(prefs.clone(), 2.0, 1.0).unwrap();
            let optimal = brute_force(&problem).unwrap();
            let mut forced = ForcedUnits::new();
            let mut mask = 0u32;
            for p in &prefs {
                forced.add_window(p.window().begin(), p.window().end(), p.duration());
                mask |= hours_mask(p.window().begin(), p.window().end());
            }
            let loads = [0.0; HOURS_PER_DAY];
            let bound = pigeonhole_partition_bound(&loads, mask, &forced, problem.rate());
            // σ = 1, so the objective *is* the sum of squares.
            assert!(
                bound <= optimal.objective + 1e-9,
                "case {case}: bound {bound} exceeds optimum {}",
                optimal.objective
            );
        }
    }

    #[test]
    fn partition_bound_with_partial_loads_stays_admissible() {
        use crate::brute::brute_force;
        use crate::problem::AllocationProblem;
        use enki_core::household::Preference;

        // Two placed households (their loads are the base), two free.
        let placed = [Preference::new(17, 20, 2).unwrap(), Preference::new(18, 22, 3).unwrap()];
        let free = vec![
            Preference::new(16, 21, 2).unwrap(),
            Preference::new(18, 23, 2).unwrap(),
        ];
        let rate = 2.0;
        let mut loads = [0.0; HOURS_PER_DAY];
        for (p, d) in placed.iter().zip([0u8, 1u8]) {
            let b = p.window().begin() + d;
            for h in b..b + p.duration() {
                loads[h as usize] += rate;
            }
        }
        let mut forced = ForcedUnits::new();
        let mut mask = 0u32;
        for p in &free {
            forced.add_window(p.window().begin(), p.window().end(), p.duration());
            mask |= hours_mask(p.window().begin(), p.window().end());
        }
        let bound = pigeonhole_partition_bound(&loads, mask, &forced, rate);
        // Enumerate the free households' completions on top of the fixed
        // base via brute force on a shifted problem: compare against every
        // feasible completion cost directly.
        let problem = AllocationProblem::new(free.clone(), rate, 1.0).unwrap();
        let mut best = f64::INFINITY;
        let choices: Vec<u8> = (0..problem.len()).map(|i| problem.choices(i)).collect();
        let mut d = vec![0u8; free.len()];
        loop {
            let mut l = loads;
            for (p, &di) in free.iter().zip(&d) {
                let b = p.window().begin() + di;
                for h in b..b + p.duration() {
                    l[h as usize] += rate;
                }
            }
            let cost: f64 = l.iter().map(|v| v * v).sum();
            if cost < best {
                best = cost;
            }
            let mut i = 0;
            loop {
                if i == d.len() {
                    assert!(
                        bound <= best + 1e-9,
                        "bound {bound} exceeds best completion {best}"
                    );
                    // Sanity: the brute solver agrees the instance is sane.
                    assert!(brute_force(&problem).is_ok());
                    return;
                }
                d[i] += 1;
                if d[i] < choices[i] {
                    break;
                }
                d[i] = 0;
                i += 1;
            }
        }
    }
}
