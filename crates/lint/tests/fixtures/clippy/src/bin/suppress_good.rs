//! Suppressions, good twin: a sanctioned site carries an `#[expect]`
//! with its reason on the narrowest item.

#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned wrapper around the OS clock"
)]
fn origin() -> std::time::Instant {
    std::time::Instant::now()
}

fn main() {
    println!("{:?}", origin().elapsed().as_secs() < 60);
}
