//! R5 thread-discipline, good twin: the mechanism core stays
//! single-threaded.

fn total(jobs: &[u32]) -> u32 {
    jobs.iter().sum::<u32>() + 3
}

fn main() {
    println!("{}", total(&[1, 2, 3]));
}
