//! # enki
//!
//! Facade crate for the Enki cooperative demand-side management
//! reproduction (Yuan, Hang, Huhns, Singh — ICDCS 2017). Re-exports the
//! workspace crates under one roof:
//!
//! * [`core`] — the mechanism: model, scores, payments, greedy
//!   allocation.
//! * [`solver`] — the optimal-allocation MIQP baseline
//!   (branch-and-bound, local search, brute force).
//! * [`stats`] — descriptive statistics, confidence intervals,
//!   Mann–Whitney U, samplers.
//! * [`sim`] — usage profiles, ECC prediction, neighborhood day
//!   simulation, and the §VI experiments.
//! * [`study`] — the §VII user-study game engine and metrics.
//! * [`agents`] — the Figure 1 architecture as message-passing
//!   agents over a simulated (or threaded) network.
//!
//! ```
//! use enki::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), enki::Error> {
//! let enki = Enki::new(EnkiConfig::default());
//! let reports = vec![
//!     Report::new(HouseholdId::new(0), Preference::new(18, 22, 2)?),
//!     Report::new(HouseholdId::new(1), Preference::new(18, 22, 2)?),
//! ];
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let outcome = enki.allocate(&reports, &mut rng)?;
//! assert_eq!(outcome.assignments.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use enki_agents as agents;
pub use enki_core as core;
pub use enki_sim as sim;
pub use enki_solver as solver;
pub use enki_stats as stats;
pub use enki_study as study;

pub use enki_core::{Error, Result};

/// One-stop prelude re-exporting the most used items of every crate.
pub mod prelude {
    pub use enki_agents::prelude::*;
    pub use enki_core::prelude::*;
    pub use enki_sim::prelude::*;
    pub use enki_solver::prelude::*;
    pub use enki_stats::prelude::*;
    pub use enki_study::prelude::*;
}
