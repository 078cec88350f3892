//! # enki-study
//!
//! The §VII user-study game engine for the Enki reproduction: a 16-round
//! online game between simulated subjects and scripted artificial agents,
//! mediated by an Enki center, plus the analyses behind Tables II–IV and
//! Figures 8–9 (defection rates, Mann–Whitney U tests, true-interval
//! selecting ratios, flexibility trajectories).
//!
//! The paper's human subjects are replaced by behaviour models calibrated
//! to its post-study questionnaire (well-understood, intermediate, typical,
//! and random subjects) — see DESIGN.md, substitution 2.
//!
//! ```
//! use enki_study::prelude::*;
//!
//! # fn main() -> Result<(), enki_core::Error> {
//! let outcome = run_user_study(&StudyConfig::default())?;
//! let rates = outcome.table2_defection_rates();
//! // Enki keeps the overall defection rate well below random (0.5).
//! assert!(rates.overall < 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artificial;
pub mod experiments;
pub mod game;
pub mod metrics;
pub mod subject;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::artificial::ArtificialAgent;
    pub use crate::experiments::{
        model_for_subject, run_user_study, DefectionRates, DefectionTestRow,
        FlexibilityAnalysis, StudyConfig, StudyOutcome, TrueIntervalAnalysis,
    };
    pub use crate::game::{
        draw_subject_truth, run_session, RoundRecord, SessionConfig, SubjectLog, STUDY_RHO,
    };
    pub use crate::metrics::{
        defection_count, defection_rate, flexibility_series, mean_flexibility_series,
        true_interval_ratio, Stage,
    };
    pub use crate::subject::SubjectModel;
}
