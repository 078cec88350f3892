//! R5 thread-discipline, bad: threads and locks outside a sanctioned
//! concurrency site.
// expect: clippy::disallowed_methods clippy::disallowed_types

use std::sync::{Condvar, Mutex, RwLock};

fn racy(jobs: Vec<u32>) -> u32 {
    let total = Mutex::new(0u32);
    let shared = RwLock::new(1u32);
    let _signal = Condvar::new();
    let pooled = parking_lot::Mutex::new(2u32);
    let handle = std::thread::spawn(move || jobs.iter().sum::<u32>());
    let scoped = std::thread::scope(|s| s.spawn(|| *pooled.lock()).join().unwrap_or(0));
    let joined = handle.join().unwrap_or(0);
    let base = total.lock().map(|guard| *guard).unwrap_or(0);
    base + shared.read().map(|guard| *guard).unwrap_or(0) + scoped + joined
}

fn main() {
    println!("{}", racy(vec![1, 2, 3]));
}
