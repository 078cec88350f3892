//! # enki-sim
//!
//! Simulation substrate for the Enki reproduction: the §VI workload
//! generator ([`profile`]), household behavior models ([`behavior`]), the
//! ECC consumption-pattern learner ([`ecc`]), whole-day neighborhood
//! simulation ([`neighborhood`]), the §VIII coalition extension
//! ([`coalition`]), and the runners for the paper's simulation study
//! ([`experiments`]: Figures 4–7).
//!
//! ```
//! use enki_sim::prelude::*;
//! use enki_core::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), enki_core::Error> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = ProfileConfig::default();
//! let households: Vec<SimHousehold> = (0..8)
//!     .map(|i| {
//!         let profile = UsageProfile::generate(&mut rng, &config);
//!         SimHousehold::new(
//!             HouseholdId::new(i),
//!             profile,
//!             TruthSource::Wide,
//!             ReportStrategy::TruthfulWide,
//!         )
//!     })
//!     .collect();
//! let neighborhood = SimNeighborhood::new(Enki::default(), households);
//! let day = neighborhood.run_day(&mut rng)?;
//! assert_eq!(day.defection_count(), 0); // truthful reporters never defect
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod coalition;
pub mod ecc;
pub mod experiments;
pub mod neighborhood;
pub mod profile;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::behavior::{consume, defects, ReportStrategy};
    pub use crate::coalition::{compare_coalition, Coalition, CoalitionComparison};
    pub use crate::ecc::EccPredictor;
    pub use crate::experiments::incentive::{
        run_incentive, IncentiveConfig, IncentiveOutcome, IncentivePoint,
    };
    pub use crate::experiments::social_welfare::{
        run_social_welfare, run_social_welfare_with, SocialWelfareConfig, SocialWelfareRow,
    };
    pub use crate::neighborhood::{DayOutcome, SimHousehold, SimNeighborhood, TruthSource};
    pub use crate::profile::{ProfileConfig, UsageProfile};
}
