//! Injectable time sources.
//!
//! Everything in `enki-telemetry` reads time through the [`Clock`] trait
//! instead of calling [`Instant::now`] directly. Production code uses the
//! [`MonotonicClock`]; deterministic tests inject a [`VirtualClock`] that
//! only moves when the test (or a tick-driven runtime) advances it, so
//! span trees and stage deadlines replay identically for a given seed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source measured as a [`Duration`] since the clock's
/// own epoch (its creation, for the real clock; zero, for the virtual
/// one). Implementations must never go backwards.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;
}

/// The production clock: wall-clock monotonic time from [`Instant`],
/// anchored at the clock's creation.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is now.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned wrapper around the OS clock"
    )]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A deterministic clock that only moves when told to.
///
/// Shared by `Arc`: a tick-driven runtime holds one handle and advances
/// it once per tick while the instrumented code reads it through
/// [`Clock::now`]. Two runs that advance the clock identically observe
/// identical timestamps, making telemetry output byte-reproducible.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at time zero, ready to share.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Moves the clock forward by `delta`.
    pub fn advance(&self, delta: Duration) {
        let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::SeqCst);
    }

    /// Sets the clock to an absolute offset from its epoch. Only moves
    /// forward; an earlier time is ignored (monotonicity).
    pub fn set(&self, at: Duration) {
        let target = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_max(target, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_moves_forward() {
        let clock = MonotonicClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_is_explicit() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(3));
        clock.advance(Duration::from_micros(500));
        assert_eq!(clock.now(), Duration::from_micros(3_500));
    }

    #[test]
    fn virtual_clock_set_never_goes_backwards() {
        let clock = VirtualClock::new();
        clock.set(Duration::from_secs(5));
        clock.set(Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_secs(5));
    }

    #[test]
    fn virtual_clock_is_shared_through_arc() {
        let clock = VirtualClock::new();
        let other = Arc::clone(&clock);
        other.advance(Duration::from_nanos(7));
        assert_eq!(clock.now(), Duration::from_nanos(7));
    }
}
