//! Deterministic storage fault injection.
//!
//! [`FaultStorage`] is an in-memory [`Storage`] that models the gap a
//! real disk leaves between "the write returned" and "the bytes are
//! durable": every segment keeps a **durable** image (what survives a
//! crash) and a **buffered** image (appended but not yet flushed —
//! the page cache). A simulated crash drops every buffered byte, and
//! the plan can additionally inject, at exact operation indices:
//!
//! - **torn writes** — an append persists only a prefix and the
//!   process dies mid-write (the classic torn tail);
//! - **dropped flushes** — a flush fails *and throws away the dirty
//!   buffer* (post-fsyncgate kernel semantics: the error is reported
//!   once, the pages are marked clean anyway), so the caller must
//!   treat the whole commit as lost — retrying the flush cannot
//!   resurrect the bytes;
//! - **bit rot** — a bit flips in the durable image at rest;
//! - **short reads** — a read returns only a prefix of the segment;
//! - **ENOSPC** — appends fail once a byte budget is exhausted.
//!
//! Everything is driven by a monotonically increasing operation
//! counter, so a fault schedule is a pure function of the call
//! sequence: the same workload replayed against the same plan fails
//! identically, which is what makes the crash-point matrix in
//! `bench_durable` exhaustive rather than probabilistic. For seeded
//! exploration, [`FaultPlan::seeded`] derives fault sites from a
//! `u64` seed via SplitMix64.

use std::collections::BTreeMap;

use crate::storage::{Storage, StorageError};

/// What one storage call was, for rehearsal-driven crash placement.
///
/// A chaos test first runs its workload against a clean plan, reads
/// the [`FaultStorage::op_log`], picks the exact operation to attack
/// (say, "the flush right after the third append"), then re-runs with
/// that index in the plan. Determinism makes the two runs line up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// `segments()` listing.
    List,
    /// `read(segment)`.
    Read,
    /// `append(segment, bytes)` with the byte count.
    Append(usize),
    /// `flush(segment)`.
    Flush,
    /// `truncate(segment, len)`.
    Truncate,
    /// `remove(segment)`.
    Remove,
}

/// One entry of the operation log: index, kind, target segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation counter value when this call ran.
    pub op: u64,
    /// What the call was.
    pub kind: OpKind,
    /// The segment it targeted (empty for `segments()`).
    pub segment: String,
}

/// A torn write: at operation `op`, persist only `keep` bytes of the
/// append into the buffer, then crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornWrite {
    /// Operation index of the append to tear.
    pub op: u64,
    /// Bytes of the append that land before the crash.
    pub keep: usize,
}

/// A bit flip in the durable image, applied when the operation counter
/// reaches `op` (at rest: the flip persists for all later reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRot {
    /// Operation index at which the flip happens.
    pub op: u64,
    /// Byte offset into the **concatenated durable image** (segments
    /// in lexicographic order); wrapped modulo the image size.
    pub byte: u64,
    /// Bit within that byte, `0..8`.
    pub bit: u8,
}

/// Counters for every fault the storage actually injected, mirrored
/// into `durable.*` telemetry by the journal layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Simulated crashes (including the one a torn write implies).
    pub crashes: u64,
    /// Appends that persisted only a prefix.
    pub torn_writes: u64,
    /// Flushes that failed and discarded the dirty buffer.
    pub dropped_flushes: u64,
    /// Bits flipped in the durable image.
    pub bits_flipped: u64,
    /// Reads that returned only a prefix.
    pub short_reads: u64,
    /// Appends refused with `NoSpace`.
    pub enospc: u64,
}

/// The fault schedule, all keyed by operation index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash (fail with [`StorageError::Crashed`], drop buffers) when
    /// the operation counter reaches this value. The faulted
    /// operation itself does not happen.
    pub crash_at_op: Option<u64>,
    /// Tear one append: persist a prefix, then crash.
    pub torn_write: Option<TornWrite>,
    /// Operation indices whose `flush` fails with [`StorageError::Io`]
    /// after discarding the buffered bytes (fsyncgate semantics).
    pub dropped_flushes: Vec<u64>,
    /// Bits to flip in the durable image.
    pub bit_rot: Vec<BitRot>,
    /// Operation indices whose `read` returns only half the segment.
    pub short_reads: Vec<u64>,
    /// Total durable+buffered byte budget; appends that would exceed
    /// it fail with [`StorageError::NoSpace`] writing nothing.
    pub capacity: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: behave exactly like [`crate::storage::MemStorage`]
    /// but with real buffered-versus-durable semantics.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Derives a single-fault plan from a seed: SplitMix64 picks the
    /// fault class and the operation index within `horizon` ops.
    /// Useful for randomized sweeps where each seed must map to one
    /// reproducible fault.
    #[must_use]
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // SplitMix64 (Steele et al.): enough mixing to decorrelate
            // consecutive seeds, trivially deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let op = if horizon == 0 { 0 } else { next() % horizon };
        let mut plan = Self::default();
        match next() % 4 {
            0 => plan.crash_at_op = Some(op),
            1 => {
                plan.torn_write = Some(TornWrite {
                    op,
                    keep: (next() % 64) as usize,
                });
            }
            2 => plan.dropped_flushes = vec![op],
            _ => {
                plan.bit_rot = vec![BitRot {
                    op,
                    byte: next(),
                    bit: (next() % 8) as u8,
                }];
            }
        }
        plan
    }
}

#[derive(Debug, Clone, Default)]
struct FaultSegment {
    /// Bytes that survive a crash.
    durable: Vec<u8>,
    /// Bytes appended since the last honored flush (lost on crash).
    buffered: Vec<u8>,
}

/// The fault-injecting in-memory backend. See the module docs for the
/// fault model.
#[derive(Debug, Clone)]
pub struct FaultStorage {
    segments: BTreeMap<String, FaultSegment>,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
    stats: FaultStats,
    op_log: Vec<OpRecord>,
}

impl FaultStorage {
    /// A store that will follow `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            segments: BTreeMap::new(),
            plan,
            ops: 0,
            crashed: false,
            stats: FaultStats::default(),
            op_log: Vec::new(),
        }
    }

    /// Operations performed so far (the crash-point coordinate space).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether a simulated crash has happened and not been recovered.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Counters for every fault actually injected so far.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The full operation log (rehearsal API for crash placement).
    #[must_use]
    pub fn op_log(&self) -> &[OpRecord] {
        &self.op_log
    }

    /// A copy of the durable image only — what a post-crash process
    /// would find on disk.
    #[must_use]
    pub fn durable_image(&self) -> BTreeMap<String, Vec<u8>> {
        self.segments
            .iter()
            .filter(|(_, s)| !s.durable.is_empty())
            .map(|(name, s)| (name.clone(), s.durable.clone()))
            .collect()
    }

    fn tick(&mut self, kind: OpKind, segment: &str) -> Result<u64, StorageError> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        let op = self.ops;
        self.ops += 1;
        self.op_log.push(OpRecord {
            op,
            kind,
            segment: segment.to_string(),
        });
        // Bit rot fires the moment its index is reached, regardless of
        // which operation that is.
        let rot: Vec<BitRot> = self
            .plan
            .bit_rot
            .iter()
            .copied()
            .filter(|r| r.op == op)
            .collect();
        for r in rot {
            self.flip_bit(r);
        }
        if self.plan.crash_at_op == Some(op) {
            self.enter_crash();
            return Err(StorageError::Crashed);
        }
        Ok(op)
    }

    /// Crashes the store now, regardless of the plan: buffered
    /// (unflushed) bytes vanish and every subsequent operation fails
    /// with [`StorageError::Crashed`] until
    /// [`crash_recover`](Storage::crash_recover). Chaos tests use this
    /// to place a crash at a point chosen by the caller rather than by
    /// an operation counter.
    pub fn enter_crash(&mut self) {
        self.crashed = true;
        self.stats.crashes += 1;
        for seg in self.segments.values_mut() {
            seg.buffered.clear();
        }
        self.segments.retain(|_, s| !s.durable.is_empty());
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "target < len, and len is the length of a Vec, so it fits usize"
    )]
    fn flip_bit(&mut self, rot: BitRot) {
        let total: u64 = self.segments.values().map(|s| s.durable.len() as u64).sum();
        if total == 0 {
            return;
        }
        let mut target = rot.byte % total;
        for seg in self.segments.values_mut() {
            let len = seg.durable.len() as u64;
            if target < len {
                if let Some(byte) = seg.durable.get_mut(target as usize) {
                    *byte ^= 1 << (rot.bit % 8);
                    self.stats.bits_flipped += 1;
                }
                return;
            }
            target -= len;
        }
    }

    fn total_bytes(&self) -> u64 {
        self.segments
            .values()
            .map(|s| (s.durable.len() + s.buffered.len()) as u64)
            .sum()
    }
}

impl Storage for FaultStorage {
    fn segments(&mut self) -> Result<Vec<String>, StorageError> {
        self.tick(OpKind::List, "")?;
        Ok(self
            .segments
            .iter()
            .filter(|(_, s)| !s.durable.is_empty() || !s.buffered.is_empty())
            .map(|(name, _)| name.clone())
            .collect())
    }

    fn read(&mut self, segment: &str) -> Result<Vec<u8>, StorageError> {
        let op = self.tick(OpKind::Read, segment)?;
        let short = self.plan.short_reads.contains(&op);
        let Some(seg) = self.segments.get(segment) else {
            return Err(StorageError::NotFound {
                segment: segment.to_string(),
            });
        };
        let mut bytes = seg.durable.clone();
        bytes.extend_from_slice(&seg.buffered);
        if short {
            self.stats.short_reads += 1;
            bytes.truncate(bytes.len() / 2);
        }
        Ok(bytes)
    }

    fn append(&mut self, segment: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let op = self.tick(OpKind::Append(bytes.len()), segment)?;
        if let Some(capacity) = self.plan.capacity {
            if self.total_bytes() + bytes.len() as u64 > capacity {
                self.stats.enospc += 1;
                return Err(StorageError::NoSpace {
                    segment: segment.to_string(),
                });
            }
        }
        if let Some(torn) = self.plan.torn_write {
            if torn.op == op {
                let keep = torn.keep.min(bytes.len());
                self.segments
                    .entry(segment.to_string())
                    .or_default()
                    .buffered
                    .extend_from_slice(&bytes[..keep]);
                self.stats.torn_writes += 1;
                self.enter_crash();
                return Err(StorageError::Crashed);
            }
        }
        self.segments
            .entry(segment.to_string())
            .or_default()
            .buffered
            .extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self, segment: &str) -> Result<(), StorageError> {
        let op = self.tick(OpKind::Flush, segment)?;
        if self.plan.dropped_flushes.contains(&op) {
            // fsyncgate semantics: the failure is reported exactly once
            // and the dirty pages are discarded anyway — the caller
            // must treat the whole commit as lost, because no retry
            // can resurrect the dropped bytes.
            self.stats.dropped_flushes += 1;
            if let Some(seg) = self.segments.get_mut(segment) {
                seg.buffered.clear();
            }
            return Err(StorageError::Io {
                segment: segment.to_string(),
                detail: "flush barrier failed; buffered bytes dropped".to_string(),
            });
        }
        if let Some(seg) = self.segments.get_mut(segment) {
            let buffered = std::mem::take(&mut seg.buffered);
            seg.durable.extend_from_slice(&buffered);
        }
        Ok(())
    }

    fn truncate(&mut self, segment: &str, len: u64) -> Result<(), StorageError> {
        self.tick(OpKind::Truncate, segment)?;
        let Some(seg) = self.segments.get_mut(segment) else {
            return Err(StorageError::NotFound {
                segment: segment.to_string(),
            });
        };
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        // Truncation is a durable, barrier-like operation (ftruncate +
        // fsync in the real backend): fold the buffer in first.
        let buffered = std::mem::take(&mut seg.buffered);
        seg.durable.extend_from_slice(&buffered);
        if len < seg.durable.len() {
            seg.durable.truncate(len);
        }
        Ok(())
    }

    fn remove(&mut self, segment: &str) -> Result<(), StorageError> {
        self.tick(OpKind::Remove, segment)?;
        self.segments.remove(segment);
        Ok(())
    }

    fn crash_recover(&mut self) {
        // Restart semantics whether or not a crash fired: the page
        // cache (buffered bytes) is gone either way.
        for seg in self.segments.values_mut() {
            seg.buffered.clear();
        }
        self.segments.retain(|_, s| !s.durable.is_empty());
        self.crashed = false;
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unflushed_appends_lost_on_crash() {
        let mut s = FaultStorage::new(FaultPlan {
            crash_at_op: Some(2),
            ..FaultPlan::default()
        });
        s.append("a", b"durable").unwrap(); // op 0
        s.flush("a").unwrap(); // op 1
        assert_eq!(s.append("a", b" lost"), Err(StorageError::Crashed)); // op 2
        assert_eq!(s.read("a"), Err(StorageError::Crashed));
        s.crash_recover();
        assert_eq!(s.read("a").unwrap(), b"durable");
    }

    #[test]
    fn torn_write_keeps_prefix_then_crashes() {
        let mut s = FaultStorage::new(FaultPlan {
            torn_write: Some(TornWrite { op: 2, keep: 3 }),
            ..FaultPlan::default()
        });
        s.append("a", b"head").unwrap(); // op 0
        s.flush("a").unwrap(); // op 1
        assert_eq!(s.append("a", b"tail!"), Err(StorageError::Crashed)); // op 2
        s.crash_recover();
        // The torn prefix was only buffered, so the crash also ate it.
        assert_eq!(s.read("a").unwrap(), b"head");
        assert_eq!(s.stats().torn_writes, 1);
    }

    #[test]
    fn torn_write_prefix_survives_if_flushed_by_truncate_fold() {
        // A torn prefix that an (unlikely) later flush would have made
        // durable is still lost here because the crash is immediate;
        // this pins the semantics.
        let mut s = FaultStorage::new(FaultPlan {
            torn_write: Some(TornWrite { op: 0, keep: 2 }),
            ..FaultPlan::default()
        });
        assert_eq!(s.append("a", b"xyz"), Err(StorageError::Crashed));
        s.crash_recover();
        assert_eq!(s.read("a"), Err(StorageError::NotFound { segment: "a".into() }));
    }

    #[test]
    fn dropped_flush_fails_and_discards_the_buffer() {
        let mut s = FaultStorage::new(FaultPlan {
            dropped_flushes: vec![1],
            ..FaultPlan::default()
        });
        s.append("a", b"data").unwrap(); // op 0
        let err = s.flush("a").unwrap_err(); // op 1: fails, buffer gone
        assert!(matches!(err, StorageError::Io { .. }), "{err:?}");
        assert_eq!(s.stats().dropped_flushes, 1);
        // Retrying the flush cannot resurrect the dropped bytes.
        s.flush("a").unwrap(); // op 2: honored, but nothing to flush
        s.crash_recover();
        assert_eq!(s.read("a"), Err(StorageError::NotFound { segment: "a".into() }));
    }

    #[test]
    fn bit_rot_flips_durable_byte() {
        let mut s = FaultStorage::new(FaultPlan {
            bit_rot: vec![BitRot { op: 2, byte: 1, bit: 0 }],
            ..FaultPlan::default()
        });
        s.append("a", b"abc").unwrap(); // op 0
        s.flush("a").unwrap(); // op 1
        let read = s.read("a").unwrap(); // op 2: rot fires first
        assert_eq!(read, b"a\x63c"); // 'b' ^ 1 = 'c'
        assert_eq!(s.stats().bits_flipped, 1);
    }

    #[test]
    fn short_read_returns_prefix() {
        let mut s = FaultStorage::new(FaultPlan {
            short_reads: vec![2],
            ..FaultPlan::default()
        });
        s.append("a", b"0123456789").unwrap(); // op 0
        s.flush("a").unwrap(); // op 1
        assert_eq!(s.read("a").unwrap(), b"01234"); // op 2
        assert_eq!(s.read("a").unwrap(), b"0123456789"); // op 3: back to normal
    }

    #[test]
    fn capacity_exhaustion_refuses_append() {
        let mut s = FaultStorage::new(FaultPlan {
            capacity: Some(8),
            ..FaultPlan::default()
        });
        s.append("a", b"12345678").unwrap();
        assert_eq!(
            s.append("a", b"9"),
            Err(StorageError::NoSpace { segment: "a".into() })
        );
        assert_eq!(s.stats().enospc, 1);
        // The refused append wrote nothing.
        assert_eq!(s.read("a").unwrap(), b"12345678");
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::seeded(seed, 100), FaultPlan::seeded(seed, 100));
        }
        // Different seeds give a mix of fault classes.
        let classes: std::collections::BTreeSet<u8> = (0..32)
            .map(|seed| {
                let p = FaultPlan::seeded(seed, 100);
                if p.crash_at_op.is_some() {
                    0
                } else if p.torn_write.is_some() {
                    1
                } else if !p.dropped_flushes.is_empty() {
                    2
                } else {
                    3
                }
            })
            .collect();
        assert!(classes.len() >= 3, "seeded plans cover classes {classes:?}");
    }

    #[test]
    fn op_log_records_rehearsal() {
        let mut s = FaultStorage::new(FaultPlan::none());
        s.append("a", b"x").unwrap();
        s.flush("a").unwrap();
        let log = s.op_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, OpKind::Append(1));
        assert_eq!(log[1].kind, OpKind::Flush);
    }
}
