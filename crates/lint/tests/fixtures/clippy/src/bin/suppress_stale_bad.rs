//! Suppressions, bad: an `#[expect]` whose site was fixed. Clippy
//! reports the unfulfilled expectation, just as a stale baseline entry
//! used to fail the build.
// expect: unfulfilled_lint_expectations

#[expect(
    clippy::disallowed_methods,
    reason = "this site read the OS clock before it was fixed"
)]
fn elapsed_ms(ticks: u64) -> u64 {
    ticks * 10
}

fn main() {
    println!("{}", elapsed_ms(3));
}
