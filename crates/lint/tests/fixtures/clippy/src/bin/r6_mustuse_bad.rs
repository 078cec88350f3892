//! R6 must-use-result, bad: a caller drops a public fallible API's
//! `Result`. `Result` is `#[must_use]`, so rustc's `unused_must_use`
//! rejects the caller under `-D warnings`.
// expect: unused_must_use

#[derive(Debug)]
pub struct Error;

pub fn verify(total: f64) -> Result<(), Error> {
    if total.is_finite() {
        Ok(())
    } else {
        Err(Error)
    }
}

fn main() {
    verify(f64::NAN);
}
