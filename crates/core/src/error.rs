//! Error type shared across the Enki core crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors reported by the Enki core model and mechanism.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An interval was empty, inverted, or extended past midnight.
    InvalidInterval {
        /// Requested begin hour.
        begin: u8,
        /// Requested (exclusive) end hour.
        end: u8,
    },
    /// A preference's duration was zero or longer than its window.
    InvalidDuration {
        /// Requested duration in hours.
        duration: u8,
        /// Length of the window the duration must fit in.
        window_len: u8,
    },
    /// A consumption or allocation window had the wrong duration for the
    /// household's preference.
    DurationMismatch {
        /// Duration of the offered window.
        got: u8,
        /// The household's preferred duration `v`.
        expected: u8,
    },
    /// An allocation or consumption window was not inside the governing
    /// interval (reported interval for allocations, true interval for
    /// consumptions).
    WindowOutsideInterval {
        /// The offending window.
        window: crate::time::Interval,
        /// The interval it must lie within.
        bounds: crate::time::Interval,
    },
    /// A configuration parameter was out of its documented range.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// The mechanism was invoked with no households.
    EmptyNeighborhood,
    /// Two reports carried the same household id.
    DuplicateHousehold(crate::household::HouseholdId),
    /// A settlement input referenced a household with no allocation, or
    /// omitted a household that was allocated.
    UnknownHousehold(crate::household::HouseholdId),
    /// A value that must be a finite real number (a payment, a score, a
    /// cost) was NaN or infinite.
    NonFiniteValue {
        /// Name of the offending quantity.
        parameter: &'static str,
    },
    /// Every rung of an anytime solve pipeline failed, including the
    /// last-resort fallback.
    SolveFailed {
        /// The last stage that was attempted.
        stage: &'static str,
    },
    /// State replayed from durable storage failed the mandatory
    /// post-recovery audit: a mechanism invariant (budget balance,
    /// at-most-one bill, record ordering, ...) does not hold in the
    /// recovered settlement history. The recovered state must not be
    /// adopted.
    RecoveryAudit {
        /// Stable key of the first violated invariant (the chaos
        /// oracle's violation key, e.g. `"budget_balance"`).
        invariant: String,
        /// Total invariant violations the audit found.
        violations: usize,
    },
    /// A durable checkpoint record passed its storage checksum but
    /// could not be decoded into the expected checkpoint shape (a
    /// version or codec mismatch rather than bit rot).
    CorruptCheckpoint {
        /// Which checkpoint kind failed to decode.
        kind: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidInterval { begin, end } => {
                write!(f, "invalid interval [{begin}, {end}): intervals must be non-empty and end by hour 24")
            }
            Error::InvalidDuration {
                duration,
                window_len,
            } => write!(
                f,
                "invalid duration {duration}: must be at least 1 and at most the window length {window_len}"
            ),
            Error::DurationMismatch { got, expected } => {
                write!(f, "window has duration {got} but the preference requires exactly {expected}")
            }
            Error::WindowOutsideInterval { window, bounds } => {
                write!(f, "window {window} is not contained in interval {bounds}")
            }
            Error::InvalidConfig {
                parameter,
                constraint,
            } => write!(f, "invalid configuration: {parameter} must satisfy {constraint}"),
            Error::EmptyNeighborhood => write!(f, "the neighborhood has no households"),
            Error::DuplicateHousehold(id) => write!(f, "duplicate report for household {id}"),
            Error::UnknownHousehold(id) => {
                write!(f, "household {id} is missing from or unknown to this operation")
            }
            Error::NonFiniteValue { parameter } => {
                write!(f, "non-finite value for {parameter}")
            }
            Error::SolveFailed { stage } => {
                write!(f, "every solve stage failed; last attempted stage was {stage}")
            }
            Error::RecoveryAudit {
                invariant,
                violations,
            } => write!(
                f,
                "recovered state failed the post-recovery audit: {violations} violation(s), first {invariant}"
            ),
            Error::CorruptCheckpoint { kind } => {
                write!(f, "durable {kind} checkpoint failed to decode")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::household::HouseholdId;
    use crate::time::Interval;

    #[test]
    fn errors_display_lowercase_without_trailing_punctuation() {
        let errors: Vec<Error> = vec![
            Error::InvalidInterval { begin: 5, end: 5 },
            Error::InvalidDuration {
                duration: 9,
                window_len: 4,
            },
            Error::DurationMismatch {
                got: 3,
                expected: 2,
            },
            Error::WindowOutsideInterval {
                window: Interval::new(1, 3).unwrap(),
                bounds: Interval::new(5, 9).unwrap(),
            },
            Error::InvalidConfig {
                parameter: "xi",
                constraint: "xi >= 1",
            },
            Error::EmptyNeighborhood,
            Error::DuplicateHousehold(HouseholdId::new(7)),
            Error::UnknownHousehold(HouseholdId::new(9)),
            Error::NonFiniteValue { parameter: "payment" },
            Error::SolveFailed { stage: "greedy" },
            Error::RecoveryAudit {
                invariant: "budget_balance".to_string(),
                violations: 2,
            },
            Error::CorruptCheckpoint { kind: "center" },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "unexpected trailing period: {msg}");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "message should start lowercase: {msg}"
            );
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Error>();
    }
}
