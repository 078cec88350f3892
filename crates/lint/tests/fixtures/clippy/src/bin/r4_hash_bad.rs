//! R4 no-hash-iteration, bad: randomized-iteration collections.
// expect: clippy::disallowed_types

use std::collections::{HashMap, HashSet};

fn tally(ids: &[u32]) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    let seen: HashSet<u32> = ids.iter().copied().collect();
    for &id in ids {
        *counts.entry(id).or_insert(0) += 1;
    }
    counts.into_iter().filter(|(id, _)| seen.contains(id)).collect()
}

fn main() {
    println!("{:?}", tally(&[3, 1, 3]));
}
