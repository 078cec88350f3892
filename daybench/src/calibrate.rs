//! Host-speed calibration: timings in reference milliseconds.
//!
//! The benchmark runs on a few cores of a shared host, and the host's
//! speed is not steady. On a 2-vCPU VM a fixed kernel switched between
//! two speeds about 1.8× apart, for stretches from milliseconds to 40 s
//! and more: 2.6 ms an iteration in one minute, 4.6 ms in the next. A
//! wall-clock median over a 30 s run follows the share of the run spent
//! slow, so ten runs of unchanged code spread 25–30 % (IQR ÷ median).
//!
//! So every timed unit (a served day, a restart, an episode's set-up)
//! runs between two runs of a fixed [`Probe`], and its wall time is
//! scaled by `(REFERENCE_MS ÷ the two probes' mean) ^ ELASTICITY`. The
//! result is in *reference milliseconds*: the time the unit takes on a
//! host where the probe takes [`REFERENCE_MS`], which is about its
//! uncontended time on that VM. The served work slows less than the
//! probe: over 10 s windows of `refine-128` and `history-50`, each
//! timing's median moved as the probe's median to a power of 0.6–0.75,
//! hence [`ELASTICITY`]. Scaled so, 10 s window medians spread 2–4 %
//! instead of 11–15 % for the settlement tick, 2 % instead of 14 % for
//! restarts, and 3–4 % instead of 12 % for the days of `history-50`.
//! (Window medians of `refine-128`'s days and allocation ticks also
//! carry the sampling noise of its heavy-tailed solves.)
//!
//! The probe shares no state with the program. It allocates its buffers
//! once, then copies, sorts and chases indices through them: memory
//! traffic, branches and dependent loads, as in the served work. Each
//! probe runs the kernel twice and times the second run, so what the
//! served work left in the caches does not move it. A program change
//! moves the served work and not the probe, so it shows in full.

use enki_telemetry::{Clock, MonotonicClock};

/// The probe's time on the reference host, milliseconds.
pub const REFERENCE_MS: f64 = 0.15;

/// How the served work's time follows the probe's: a host that makes
/// the probe `s` times slower makes the served work `s ^ ELASTICITY`
/// times slower.
pub const ELASTICITY: f64 = 0.7;

/// Words copied by each probe run.
const COPY_WORDS: usize = 32 * 1024;

/// Keys sorted by each probe run.
const SORT_KEYS: usize = 8 * 1024;

/// Slots of the table each sorted key chases indices through.
const TABLE_SLOTS: usize = 64 * 1024;

/// Dependent loads per sorted key.
const CHASE: usize = 4;

/// The fixed kernel that gauges the host's speed.
#[derive(Debug)]
pub struct Probe {
    src: Vec<u64>,
    dst: Vec<u64>,
    keys: Vec<u32>,
    work: Vec<u32>,
    table: Vec<u32>,
    /// Wall time of every probe run so far, milliseconds.
    times: Vec<f64>,
}

impl Probe {
    /// Allocates and fills the probe's buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            src: (0..COPY_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            dst: vec![0; COPY_WORDS],
            keys: (0..SORT_KEYS as u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            work: vec![0; SORT_KEYS],
            table: (0..TABLE_SLOTS as u32)
                .map(|i| i.wrapping_mul(40_503))
                .collect(),
            times: Vec::new(),
        }
    }

    /// Runs the kernel twice and returns the second run's wall time,
    /// milliseconds. The first run brings the buffers back into cache,
    /// so the timing does not depend on what the served work left there.
    pub fn run(&mut self, clock: &MonotonicClock) -> f64 {
        self.kernel();
        let started = clock.now();
        self.kernel();
        let ms = clock.now().saturating_sub(started).as_secs_f64() * 1e3;
        self.times.push(ms);
        ms
    }

    fn kernel(&mut self) {
        self.dst.copy_from_slice(&self.src);
        self.work.copy_from_slice(&self.keys);
        self.work.sort_unstable();
        let mut acc = 0u32;
        for &key in &self.work {
            let mut slot = key.wrapping_mul(2_654_435_761) >> 16;
            for _ in 0..CHASE {
                slot = self.table[slot as usize] >> 16;
                acc = acc.wrapping_add(slot);
            }
        }
        std::hint::black_box((acc, self.dst[COPY_WORDS / 2]));
    }

    /// Runs `unit` between two probe runs. Returns its result and the
    /// factor that turns its wall-clock milliseconds into reference
    /// milliseconds.
    pub fn around<T>(&mut self, clock: &MonotonicClock, unit: impl FnOnce() -> T) -> (T, f64) {
        let before = self.run(clock);
        let out = unit();
        let after = self.run(clock);
        (out, scale(before, after))
    }

    /// Wall time of every probe run so far, milliseconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// The factor from wall-clock to reference milliseconds for a unit run
/// between probes that took `before` and `after` milliseconds.
#[must_use]
pub fn scale(before: f64, after: f64) -> f64 {
    (2.0 * REFERENCE_MS / (before + after)).powf(ELASTICITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_leaves_timings_unscaled() {
        assert_eq!(scale(REFERENCE_MS, REFERENCE_MS), 1.0);
    }

    #[test]
    fn a_slow_host_scales_timings_down_by_the_served_work_s_slowdown() {
        let half = 0.5f64.powf(ELASTICITY);
        assert_eq!(scale(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), half);
        assert_eq!(
            scale(REFERENCE_MS, 3.0 * REFERENCE_MS),
            half,
            "the probes before and after are averaged"
        );
        assert!(half > 0.5 && half < 1.0, "the served work slows less than the probe");
    }

    #[test]
    fn around_runs_the_unit_between_two_recorded_probes() {
        let clock = MonotonicClock::new();
        let mut probe = Probe::new();
        let (out, factor) = probe.around(&clock, || 7);
        assert_eq!(out, 7);
        assert_eq!(probe.times().len(), 2);
        assert!(factor.is_finite() && factor > 0.0);
        assert_eq!(factor, scale(probe.times()[0], probe.times()[1]));
    }
}
