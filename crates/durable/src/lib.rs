//! Crash-consistent durability for the Enki center.
//!
//! The mechanism in Yuan et al. (ICDCS 2017) is only
//! incentive-compatible across days if settlement history survives
//! center crashes intact: a lost or doubled `DayRecord` silently
//! breaks budget balance and at-most-one-bill. This crate provides
//! the storage layer that makes the center's phase-boundary
//! checkpoints actually durable:
//!
//! - [`wal::Wal`] — an append-only, segmented write-ahead log with
//!   per-record CRC-32 checksums, length-prefixed framing (the same
//!   discipline as the `enki-serve` wire codec), explicit flush
//!   barriers, and checkpoint compaction;
//! - [`storage::Storage`] — the injectable backend trait (append /
//!   flush-barrier / truncate / remove over named segments);
//! - [`file::FileStorage`] — the real-file backend, the one
//!   sanctioned filesystem boundary in the workspace;
//! - [`fault::FaultStorage`] — a deterministic in-memory backend
//!   that injects torn writes, dropped flushes, bit rot, short
//!   reads, and ENOSPC at exact operation indices, so recovery can
//!   be tested against every crash point rather than sampled ones.
//!
//! The crate is deliberately **zero-dependency** (std only): the
//! durability layer must not inherit anyone else's panic paths or
//! nondeterminism. Everything except `file.rs` is pure computation
//! over byte buffers.

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

pub mod crc;
pub mod fault;
pub mod file;
pub mod storage;
pub mod wal;

/// The commonly-used surface: `use enki_durable::prelude::*;`.
///
/// Deliberately excludes [`file::FileStorage`]: the real-filesystem
/// backend is the crate's nondeterministic boundary (lint rule R11
/// bans `enki_durable::file` outside this crate), and a prelude
/// re-export would smuggle it past that check. Name the module
/// explicitly where the real backend is genuinely wanted.
pub mod prelude {
    pub use crate::crc::crc32;
    pub use crate::fault::{BitRot, FaultPlan, FaultStats, FaultStorage, OpKind, TornWrite};
    pub use crate::storage::{MemStorage, Storage, StorageError};
    pub use crate::wal::{
        CorruptKind, Lsn, Quarantine, Recovery, Wal, WalConfig, WalError, WalRecord, WalStats,
    };
}
