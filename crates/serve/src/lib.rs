//! # enki-serve
//!
//! Overload-safe report ingestion for the Enki center: the path a raw
//! household report travels from the wire to the admission layer when
//! traffic outruns the solver. The paper assumes every report "simply
//! arrives" by the deadline; a neighborhood center serving millions of
//! ECC units cannot — frames arrive malformed, in floods, and faster
//! than the day's report deadline allows. This crate makes that path
//! explicit and bounded:
//!
//! * [`codec`] — a length-prefixed wire codec for
//!   [`RawReport`](enki_core::validation::RawReport) batches; malformed
//!   frames are quarantined, never parsed into garbage.
//! * [`queue`] — a bounded ingress queue with cheapest-first eviction:
//!   when full, a report the center can replace from its standing
//!   profile yields its slot to one it cannot.
//! * [`shed`] — the load-shedding vocabulary: why work was dropped
//!   ([`ShedClass`](shed::ShedClass)) and how expensive dropping it was
//!   ([`ShedCost`](shed::ShedCost)), with per-class counters.
//! * [`ingest`] — the deterministic batch executor: decodes frames,
//!   propagates admission deadlines (work that cannot be admitted
//!   before the report deadline is shed *early*), signals backpressure
//!   to producers, and contains poisoned batches with `catch_unwind`.
//! * [`backoff`] — the bounded-exponential [`Backoff`](backoff::Backoff)
//!   contract shared with the household agents, reused here to pace
//!   producers that hit backpressure.
//! * [`snapshot`] — a bit-exact binary codec for checkpoint state
//!   headed to durable storage (floats travel as raw IEEE-754 bits, so
//!   NaN payloads survive where JSON rejects them).
//! * [`edge`] — the thin **nondeterministic edge**: real threads posting
//!   frames into a locked mailbox. Everything else in this crate is a
//!   deterministic core — tick-driven, seeded, and free of wall-clock
//!   reads (time reaches it only through an injected
//!   [`Clock`](enki_telemetry::Clock) via the telemetry recorder).
//!
//! ```
//! use enki_core::household::HouseholdId;
//! use enki_core::validation::{RawPreference, RawReport};
//! use enki_serve::codec::{encode_frame, Batch};
//! use enki_serve::ingest::{IngestConfig, IngestFrontEnd};
//! use enki_serve::shed::ShedCost;
//!
//! let batch = Batch {
//!     day: 0,
//!     deadline: 30,
//!     reports: vec![RawReport::new(
//!         HouseholdId::new(1),
//!         RawPreference::new(18.0, 22.0, 2.0),
//!     )],
//! };
//! let frame = encode_frame(&batch).expect("one report fits a frame");
//! let mut front = IngestFrontEnd::new(IngestConfig::default(), 7);
//! front.offer_bytes(0, &frame, &mut |_| ShedCost::Fresh);
//! let drained = front.drain(1);
//! assert_eq!(drained.admitted.len(), 1);
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

pub mod backoff;
pub mod codec;
pub mod edge;
pub mod ingest;
pub mod queue;
pub mod shed;
pub mod snapshot;

/// Discrete time, in ticks — the same unit the agent runtime uses.
pub type Tick = u64;

/// The most commonly used items, for glob import.
///
/// Deliberately excludes [`edge::EdgeMailbox`]: the edge module is the
/// crate's nondeterministic boundary (real OS threads; lint rule R11
/// bans `enki_serve::edge` outside this crate), and a prelude
/// re-export would smuggle it past that check. Name the module
/// explicitly where producer threads are genuinely wanted.
pub mod prelude {
    pub use crate::backoff::Backoff;
    pub use crate::codec::{encode_frame, Batch, FrameDecoder, FrameError};
    pub use crate::ingest::{
        Drain, IngestCheckpoint, IngestConfig, IngestFrontEnd, IngestStats, ProducerSignal,
    };
    pub use crate::queue::{IngressQueue, Offer, QueuedReport};
    pub use crate::shed::{ShedClass, ShedCost, ShedStats};
    pub use crate::Tick;
}
