//! R6 must-use-result, good twin: the caller handles the `Result`.

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
    if let Err(e) = verify(f64::NAN) {
        eprintln!("verification failed: {e:?}");
    }
}
