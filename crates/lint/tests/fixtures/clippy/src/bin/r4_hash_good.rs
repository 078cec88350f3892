//! R4 no-hash-iteration, good twin: ordered collections iterate
//! deterministically.

use std::collections::{BTreeMap, BTreeSet};

fn tally(ids: &[u32]) -> Vec<(u32, u32)> {
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    let seen: BTreeSet<u32> = ids.iter().copied().collect();
    for &id in ids {
        *counts.entry(id).or_insert(0) += 1;
    }
    counts.into_iter().filter(|(id, _)| seen.contains(id)).collect()
}

fn main() {
    println!("{:?}", tally(&[3, 1, 3]));
}
