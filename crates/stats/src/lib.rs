//! # enki-stats
//!
//! Statistics substrate for the Enki reproduction: descriptive statistics
//! with Student-t confidence intervals (the error bars of Figures 4–6), the
//! Mann–Whitney U test (Tables III and Figure 8 of the user study), and the
//! random samplers behind the §VI workload generator — all implemented from
//! scratch on top of `rand`.
//!
//! ```
//! use enki_stats::prelude::*;
//!
//! // 95% confidence interval over 10 simulated days.
//! let days = [3.1, 2.9, 3.4, 3.0, 3.2, 2.8, 3.3, 3.1, 3.0, 3.2];
//! let summary = Summary::from_sample(&days);
//! let (lo, hi) = summary.confidence_interval(0.95);
//! assert!(lo < summary.mean && summary.mean < hi);
//!
//! // Mann–Whitney U, as in Table III.
//! let observed = [2.0, 3.0, 1.0, 4.0, 2.0];
//! let null = [8.0; 5];
//! let test = mann_whitney_u(&observed, &null, Alternative::TwoSided);
//! assert!(test.p_value < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod descriptive;
pub mod mann_whitney;
pub mod sample;
pub mod special;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::descriptive::{mean, median, std_dev, variance, Summary};
    pub use crate::mann_whitney::{mann_whitney_u, Alternative, Method, UTest};
    pub use crate::sample::{poisson, poisson_clamped, standard_normal, uniform_inclusive};
    pub use crate::special::{normal_cdf, normal_quantile, student_t_critical};
}
