//! Suppressions, bad: an `#[allow]` and an `#[expect]` without a reason.
// expect: clippy::allow_attributes_without_reason

#[allow(clippy::needless_range_loop)]
fn sum(values: &[u32]) -> u32 {
    let mut total = 0;
    for i in 0..values.len() {
        total += values[i];
    }
    total
}

#[expect(clippy::disallowed_methods)]
fn origin() -> std::time::Instant {
    std::time::Instant::now()
}

fn main() {
    println!("{} {:?}", sum(&[1, 2]), origin());
}
