//! R2 no-direct-clock, good twin: time comes from an injected clock.

use std::time::Duration;

trait Clock {
    fn now(&self) -> Duration;
}

struct Ticks(u64);

impl Clock for Ticks {
    fn now(&self) -> Duration {
        Duration::from_millis(self.0)
    }
}

fn timed(clock: &dyn Clock) -> u128 {
    clock.now().as_nanos()
}

fn main() {
    println!("{}", timed(&Ticks(5)));
}
