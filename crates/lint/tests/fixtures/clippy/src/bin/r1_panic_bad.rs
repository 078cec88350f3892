//! R1 no-panic, bad: panic-family calls in non-test mechanism code.
// expect: clippy::unwrap_used clippy::expect_used clippy::panic clippy::unreachable clippy::unimplemented clippy::todo

// The header every mechanism crate root carries.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

fn settle(bill: Option<f64>, tariff: Result<f64, String>) -> f64 {
    let value = bill.unwrap();
    let rate = tariff.expect("tariff is configured");
    if value < 0.0 {
        panic!("negative bill");
    }
    if rate > 1e12 {
        unreachable!();
    }
    if rate > 1e9 {
        unimplemented!();
    }
    if value > rate {
        todo!()
    }
    value * rate
}

fn main() {
    println!("{}", settle(Some(1.0), Ok(2.0)));
}
