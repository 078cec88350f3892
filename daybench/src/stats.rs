//! Order statistics over the benchmark's samples.
//!
//! Timings are reported as a median and a *tail*: the highest
//! percentile that still has [`TAIL_BEYOND`] samples above it. With `n`
//! samples that is the `(TAIL_BEYOND + 1)`-th largest, at percentile
//! `100 · (n − TAIL_BEYOND) / n`. Whole-run totals and single-shot
//! timings are never reported: they pick up host stalls that in-run
//! medians do not.

/// Samples that must lie above a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail value with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The `(TAIL_BEYOND + 1)`-th largest sample.
    pub value: f64,
    /// Its percentile rank, `100 · (n − TAIL_BEYOND) / n`.
    pub percentile: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count), or `None`
/// when there are no samples.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of `values`, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist (no percentile then has ten samples beyond it).
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// The share of `total` that `part` leaves unexplained: `(total −
/// part) / total`. Deliberately unclamped — a negative share means the
/// layer calls took longer than the served tick, and hiding that would
/// hide a broken attribution.
#[must_use]
pub fn residual_share(total: f64, part: f64) -> f64 {
    (total - part) / total
}

/// Operations offered and failed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Offered household-days.
    pub attempted: u64,
    /// Offered household-days that got no bill.
    pub failed: u64,
}

impl Ops {
    /// Counts one served day: `offered` household reports, `billed` of
    /// which were settled. A household-day without a bill (shed,
    /// quarantined, or lost to a crash) is a failure.
    pub fn record_day(&mut self, offered: u64, billed: u64) {
        self.attempted += offered;
        self.failed += offered.saturating_sub(billed);
    }

    /// Billed household-days ÷ offered household-days.
    #[must_use]
    pub fn billed_share(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_percentile_rises_with_the_sample_count() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&values).expect("1000 samples have a tail");
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 0.0);
    }

    #[test]
    fn tail_counts_ties_as_samples() {
        let mut values = vec![1.0; 20];
        values.extend([5.0; 10]);
        let t = tail(&values).expect("thirty samples have a tail");
        assert_eq!(t.value, 1.0, "the ten slow samples sit beyond the tail");
    }

    #[test]
    fn residual_share_is_never_clamped() {
        assert_eq!(residual_share(10.0, 9.0), 0.1);
        assert_eq!(residual_share(10.0, 12.0), -0.2);
        assert_eq!(residual_share(10.0, 0.0), 1.0);
    }

    #[test]
    fn failures_are_offered_days_without_a_bill() {
        let mut ops = Ops::default();
        ops.record_day(50, 50);
        ops.record_day(50, 47);
        assert_eq!(
            ops,
            Ops {
                attempted: 100,
                failed: 3
            }
        );
        assert_eq!(ops.billed_share(), 0.97);
    }
}
