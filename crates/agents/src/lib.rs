//! # enki-agents
//!
//! The distributed face of the Enki reproduction: the paper's Figure 1
//! architecture — household ECC units talking to a neighborhood controller
//! "through a local network" (§I) — implemented as message-passing agents.
//!
//! * [`message`] — the five-step day protocol (preference ▸ allocation ▸
//!   consumption ▸ payment, plus the day-start broadcast).
//! * [`network`] — a deterministic simulated LAN with latency, jitter, and
//!   loss injection.
//! * [`household`] — the ECC agent: learns its pattern, reports with
//!   retries, consumes within its truth, submits meter readings.
//! * [`center`] — the controller: collects reports, allocates, settles,
//!   bills; missing reports exclude a household, missing readings settle
//!   as cooperative.
//! * [`driver`] — the one tick-driven day loop every runtime shares
//!   (reproducible; the vehicle for failure-injection tests): crash
//!   schedules, the protocol event trace, the write-ahead journal
//!   barrier with journal-backed recovery, and the telemetry, virtual
//!   clock, SLO and day-health hooks, generic over a [`Transport`].
//! * [`runtime`] — the simulated-LAN transport: in-process household
//!   agents over the [`network`]; [`Runtime`] is the driver over it.
//! * [`oracle`] — protocol invariant checks (budget balance, at-most-one
//!   bill, grounded allocations, record integrity) replayed over a
//!   runtime trace under any fault schedule.
//! * [`durable`] — the durability layer: center and ingest checkpoints
//!   journaled through a checksummed write-ahead log
//!   ([`enki_durable`]), with recovery gated behind a mandatory oracle
//!   audit.
//! * [`serve_runtime`] — the served transport: the center fed through
//!   the overload-safe [`enki_serve`] ingestion path (wire frames,
//!   bounded queues, backpressure, load shedding) under the same oracle.
//! * [`threaded`] — the simulated LAN with each household agent on its
//!   own OS thread, driven in lockstep: it settles the same bills as the
//!   in-process run.
//! * [`decentralized`] — the §VIII extension: token-ring best-response
//!   dynamics that reach a Nash schedule with no central scheduler.
//!
//! ```
//! use enki_agents::prelude::*;
//! use enki_core::prelude::*;
//! use enki_sim::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = ProfileConfig::default();
//! let households: Vec<HouseholdAgent> = (0..5)
//!     .map(|i| {
//!         HouseholdAgent::new(
//!             HouseholdId::new(i),
//!             UsageProfile::generate(&mut rng, &config),
//!             TruthSource::Wide,
//!             ReportStrategy::TruthfulWide,
//!             ReportSource::Strategy,
//!         )
//!     })
//!     .collect();
//! let center = CenterAgent::new(
//!     Enki::default(),
//!     (0..5).map(HouseholdId::new).collect(),
//!     DayPlan::default(),
//!     1,
//! );
//! let network = SimNetwork::new(NetworkConfig::lossy(0.2), 1);
//! let mut runtime = Runtime::new(network, center, households);
//! runtime.run_days(1);
//! assert_eq!(runtime.records().len(), 1);
//! assert!(check_invariants(&runtime).is_empty());
//! ```
//!
//! [`Transport`]: driver::Transport
//! [`Runtime`]: runtime::Runtime

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

pub mod center;
pub mod decentralized;
pub mod driver;
pub mod durable;
pub mod household;
pub mod message;
pub mod network;
pub mod oracle;
pub mod runtime;
pub mod serve_runtime;
pub mod threaded;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::center::{CenterAgent, CenterCheckpoint, DayPlan, DayRecord, PipelineConfig};
    pub use crate::decentralized::{run_decentralized, DecentralizedOutcome};
    pub use crate::driver::{CrashSchedule, TraceEvent, TraceKind};
    pub use crate::durable::{Journal, JournalConfig, RecoveredState};
    pub use crate::household::{Backoff, HouseholdAgent, ReportSource};
    pub use crate::message::{Envelope, Message, NodeId, Tick};
    pub use crate::network::{
        FaultPlan, NetworkConfig, NetworkStats, Outage, Partition, SimNetwork, SlowLink,
    };
    pub use crate::oracle::{
        check as check_invariants, check_parts as check_invariant_parts,
        check_traced as check_invariants_traced, Violation,
    };
    pub use crate::runtime::Runtime;
    pub use crate::serve_runtime::{ServeCheckpoint, ServeProducer, ServeRuntime};
    pub use crate::threaded::{run_threaded_days, ThreadedFault, ThreadedHousehold};
}
