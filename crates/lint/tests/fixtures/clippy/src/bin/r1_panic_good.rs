//! R1 no-panic, good twin: failures surface as values, and test code
//! stays exempt.

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

fn settle(bill: Option<f64>, tariff: Result<f64, String>) -> Result<f64, String> {
    let value = bill.ok_or("bill must be present")?;
    let rate = tariff?;
    if value < 0.0 {
        return Err("negative bill".to_string());
    }
    Ok(value * rate.max(0.0) + bill.unwrap_or_default())
}

fn main() {
    match settle(Some(1.0), Ok(2.0)) {
        Ok(total) => println!("{total}"),
        Err(e) => eprintln!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(super::settle(Some(1.0), Ok(2.0)).unwrap(), 3.0);
    }
}
