//! R7 crate-header, good twin: safe Rust only, with no per-root header.

fn first(values: &[u32]) -> u32 {
    values.first().copied().unwrap_or(0)
}

fn main() {
    println!("{}", first(&[7, 8]));
}
