//! # enki-solver
//!
//! Solvers for the Enki optimal-allocation problem (Eq. 2 of the paper):
//! choose per-household deferments minimizing the quadratic neighborhood
//! cost. The paper used IBM CPLEX's MIQP solver as its "Optimal" baseline;
//! this crate provides a from-scratch replacement:
//!
//! * [`exact::BranchAndBound`] — exact depth-first branch-and-bound over
//!   *equivalence classes* of identical preferences
//!   ([`problem::EquivalenceClasses`]): the tree branches on per-class
//!   deferment multisets instead of per-household products, runs on a
//!   flat fixed-point load representation (integer unit counts of the
//!   shared rate), and prunes with layered admissible bounds (analytic
//!   balanced fill plus the pigeonhole partition bound of [`bounds`],
//!   memoized per subtree) and dominance on repeated load states; anytime
//!   via node/time limits, and parallel via
//!   [`exact::BranchAndBound::with_threads`] with bit-identical results
//!   (see [`par`]).
//! * [`local_search::LocalSearch`] — coordinate-descent best-response
//!   dynamics; converges to a local optimum of the exact potential.
//! * [`brute::brute_force`] — exhaustive enumeration for tiny instances,
//!   used to validate the exact solver.
//! * [`pipeline::AnytimePipeline`] — the production entry point: a
//!   graceful-degradation ladder (exact → local search → greedy →
//!   as-reported) with per-stage budgets and panic containment, always
//!   returning a feasible schedule.
//!
//! ```
//! use enki_solver::prelude::*;
//! use enki_core::household::Preference;
//!
//! # fn main() -> Result<(), enki_core::Error> {
//! let problem = AllocationProblem::new(
//!     vec![
//!         Preference::new(18, 22, 2)?,
//!         Preference::new(18, 22, 2)?,
//!         Preference::new(18, 21, 1)?,
//!     ],
//!     2.0,
//!     0.3,
//! )?;
//! let report = BranchAndBound::new().solve(&problem)?;
//! assert!(report.proven_optimal);
//! # Ok(())
//! # }
//! ```

// Mechanism crate: no panics and no silently truncating casts outside
// test code (a panic or a wrapped bill mid-settlement voids Theorem 1).
// Each sanctioned exception carries an `#[expect(.., reason)]`.
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
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod brute;
pub mod exact;
pub mod local_search;
pub mod par;
pub mod pipeline;
pub mod problem;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::brute::brute_force;
    pub use crate::exact::{BranchAndBound, SolveReport};
    pub use crate::par::{ParStats, PhaseProfile};
    pub use crate::local_search::LocalSearch;
    pub use crate::pipeline::{
        AnytimePipeline, Rung, SolveOutcome, StageReport, StageStatus,
    };
    pub use crate::problem::{AllocationProblem, EquivalenceClasses, PreferenceClass, Solution};
}
