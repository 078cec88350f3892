//! R2 no-direct-clock, bad: reads of the OS clock.
// expect: clippy::disallowed_methods

use std::time::{Instant, SystemTime};

fn timed() -> u128 {
    let started = Instant::now();
    let _wall = SystemTime::now();
    started.elapsed().as_nanos()
}

fn main() {
    println!("{}", timed());
}
