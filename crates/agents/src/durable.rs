//! The durability layer: routing the runtime's checkpoints through a
//! checksummed write-ahead log ([`enki_durable`]) and auditing what
//! comes back out.
//!
//! A [`Journal`] owns a [`Wal`] over an injectable
//! [`Storage`] backend — real files in deployment
//! ([`enki_durable::file::FileStorage`]), the deterministic
//! fault-injecting [`FaultStorage`] in chaos tests. Two record streams
//! share the log:
//!
//! * **center** records — the [`CenterCheckpoint`] taken at each
//!   protocol phase boundary (see the commit contract on that type);
//! * **ingest** records — the [`IngestCheckpoint`] the serve front
//!   end snapshots whenever its durable state changed this tick.
//!
//! Every log call is **append → flush → apply**: the record is durable
//! before the caller treats the state transition as committed.
//! Payloads travel through the bit-exact, positional
//! [`snapshot`] codec, because center
//! checkpoints legitimately carry NaN (`last_raw` preserves household
//! submissions verbatim) and JSON would reject them. Each payload is
//! encoded into one buffer the journal keeps across appends.
//!
//! ## Record kinds
//!
//! | kind | payload |
//! |---|---|
//! | [`REC_CENTER`] | a full [`CenterCheckpoint`] |
//! | [`REC_CENTER_DELTA`] | the checkpoint's live state plus its ledger's records from index `base` on |
//! | [`REC_INGEST`] | an [`IngestCheckpoint`] |
//! | [`REC_COMPACT`] | both streams, `(Option<CenterCheckpoint>, Option<IngestCheckpoint>)`, as the sole record of a fresh segment |
//!
//! A center checkpoint's settled-day ledger only grows, so most
//! commits are written as a delta and each commit costs O(roster)
//! bytes, not O(days of history). Two rules keep a single lost record
//! (bit rot quarantines it) from costing more than it did when every
//! commit was written in full:
//!
//! 1. **Two copies.** A delta carries every record the log does not yet
//!    hold in two center records (compaction and full records count).
//!    Each settled day therefore sits in its settle commit and in the
//!    next center commit.
//! 2. **Full records.** The first center commit after [`Journal::open`],
//!    [`Journal::recover`] or a compaction — and any commit whose
//!    ledger does not extend the journal's copy — is a full
//!    [`REC_CENTER`]. A lost compaction record is covered by it.
//!
//! ## Recovery is replay plus a mandatory audit
//!
//! [`Journal::open`] / [`Journal::recover`] replay the log under the
//! WAL's deterministic rules — torn tails truncated, corrupt records
//! quarantined — and reduce the surviving records to a
//! [`RecoveredState`]: a full or compaction record replaces a stream,
//! a delta extends the center's ledger. A delta applies only when its
//! base lies within the ledger rebuilt so far, the records both hold
//! agree, and it ends no earlier; otherwise the ledger has a gap,
//! and unless a later full or compaction record replaces it, recovery
//! fails closed as [`enki_core::Error::CorruptCheckpoint`] rather than
//! restore a history with a day missing. Replay alone is not trusted:
//! [`RecoveredState::audit`] re-runs the chaos oracle's mechanism
//! invariants over the recovered settlement history and refuses —
//! [`enki_core::Error::RecoveryAudit`] — any state the mechanism
//! itself would reject. A CRC-valid record that no longer decodes is
//! [`enki_core::Error::CorruptCheckpoint`] too: that is a codec/version
//! problem, not bit rot, and recovery must not guess around it.
//!
//! One lost record never opens a gap, but two can: a flipped length
//! prefix inside an older segment quarantines the rest of that segment,
//! and if that takes both copies of a day, recovery fails closed. The
//! newest settle commit is the only copy of its day until the next
//! center commit flushes; losing it rolls the center back past bills
//! already released, exactly as it did when every commit was full.
//! DESIGN.md ("Durability and crash consistency") tabulates what each
//! lost record rolls back.

use std::fmt;

use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_durable::prelude::{
    FaultStorage, Lsn, Recovery, Storage, Wal, WalConfig, WalError, WalStats,
};
use enki_serve::prelude::IngestCheckpoint;
use enki_serve::snapshot;
use enki_telemetry::Recorder;
use serde::Encode;

use crate::center::{CenterCheckpoint, CenterDelta};
use crate::oracle;

/// WAL record kind: a full center phase-boundary checkpoint.
pub const REC_CENTER: u8 = 1;
/// WAL record kind: a serve front-end ingest checkpoint.
pub const REC_INGEST: u8 = 2;
/// WAL record kind: a compaction checkpoint carrying both streams as
/// one `(Option<CenterCheckpoint>, Option<IngestCheckpoint>)` pair.
pub const REC_COMPACT: u8 = 3;
/// WAL record kind: a center phase-boundary commit written as a delta —
/// its live state plus the ledger's records from a base index on (see
/// the module docs for the rules that decide full versus delta).
pub const REC_CENTER_DELTA: u8 = 4;

/// Journal sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Passed through to the WAL (segment rotation size).
    pub wal: WalConfig,
    /// Compact the log into a single checkpoint record after this many
    /// appends (`0` disables compaction).
    pub compact_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            wal: WalConfig::default(),
            compact_every: 64,
        }
    }
}

/// What a log replay reduced to: the latest durable checkpoint of each
/// stream, plus everything the recovery had to discard to get there.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// Latest center checkpoint, when the log holds one.
    pub center: Option<CenterCheckpoint>,
    /// Latest ingest checkpoint, when the log holds one.
    pub ingest: Option<IngestCheckpoint>,
    /// Whether a torn tail was truncated during the replay.
    pub torn_tail_truncated: bool,
    /// Corrupt WAL records (bad CRC, truncated interior) quarantined
    /// by the storage-level replay.
    pub quarantined: u64,
    /// CRC-valid records whose payload no longer decoded into the
    /// expected checkpoint shape, plus one when the center ledger ends
    /// the replay with a gap (a delta that did not apply and no later
    /// full record). Always `0` in a healthy deployment; non-zero fails
    /// [`RecoveredState::audit`].
    pub undecodable: u64,
    /// Which stream first failed to decode (`"center"`, `"ingest"`,
    /// `"compaction"`, or `"unknown"` for an unrecognized kind tag).
    pub first_undecodable: Option<&'static str>,
    /// Valid records replayed (the recovered streams' combined length).
    pub replayed: u64,
}

impl RecoveredState {
    /// The mandatory post-recovery audit. Recovered state is adopted
    /// only if (a) every surviving record decoded, (b) the center's
    /// live state follows its ledger — the newest settled day lies
    /// below the next day, and a day in progress is the one before the
    /// next day and newer than every settled day — and (c) the chaos
    /// oracle finds the recovered settlement history consistent with
    /// the mechanism invariants (budget balance, at-most-one bill,
    /// record ordering, ...). Check (b) also backs up the positional
    /// decoder: a schema slip that shifts a value into the wrong field
    /// can show there.
    ///
    /// # Errors
    ///
    /// [`enki_core::Error::CorruptCheckpoint`] when a CRC-valid record
    /// failed to decode; [`enki_core::Error::RecoveryAudit`] when the
    /// live state contradicts the ledger (`"live_state_behind_ledger"`)
    /// or the recovered records violate a mechanism invariant.
    #[must_use = "an unchecked audit adopts possibly-corrupt recovered state"]
    pub fn audit(
        &self,
        roster: &[HouseholdId],
        config: &EnkiConfig,
    ) -> Result<(), enki_core::Error> {
        if self.undecodable > 0 {
            return Err(enki_core::Error::CorruptCheckpoint {
                kind: self.first_undecodable.unwrap_or("unknown"),
            });
        }
        if self
            .center
            .as_ref()
            .is_some_and(|c| !c.live_state_follows_ledger())
        {
            return Err(enki_core::Error::RecoveryAudit {
                invariant: "live_state_behind_ledger".to_string(),
                violations: 1,
            });
        }
        let records = self.center.as_ref().map_or(&[][..], |c| c.records());
        let violations = oracle::check_parts(records, roster, config, &[]);
        if let Some(first) = violations.first() {
            return Err(enki_core::Error::RecoveryAudit {
                invariant: first.key().to_string(),
                violations: violations.len(),
            });
        }
        Ok(())
    }
}

/// The checkpoint journal: two record streams over one checksummed,
/// fault-injectable WAL. See the module docs for the protocol.
pub struct Journal {
    wal: Wal<Box<dyn Storage>>,
    config: JournalConfig,
    recorder: Option<Recorder>,
    /// Appends since the last compaction.
    appends_since_compact: u64,
    /// Latest value of each stream, for compaction payloads. Each
    /// center commit replaces the copy's live state and appends only
    /// the records its ledger lacks.
    last_center: Option<CenterCheckpoint>,
    last_ingest: Option<IngestCheckpoint>,
    /// How many leading records of `last_center`'s ledger two center
    /// records in the log hold; a delta carries the rest. Zero after
    /// open, recovery and compaction, which makes the next center
    /// commit a full record.
    held_twice: usize,
    /// Encode buffer, reused by every append and compaction.
    buf: Vec<u8>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("config", &self.config)
            .field("stats", self.wal.stats())
            .field("appends_since_compact", &self.appends_since_compact)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens a journal over `storage`, replaying whatever it holds.
    /// The returned [`RecoveredState`] is **not yet audited** — call
    /// [`RecoveredState::audit`] before adopting it.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the backend fails during the replay.
    #[must_use = "dropping the recovered state loses the replayed checkpoints"]
    pub fn open(
        storage: impl Storage + 'static,
        config: JournalConfig,
    ) -> Result<(Self, RecoveredState), WalError> {
        let boxed: Box<dyn Storage> = Box::new(storage);
        let (wal, recovery) = Wal::open(boxed, config.wal)?;
        let state = reduce(&recovery);
        let journal = Self {
            wal,
            config,
            recorder: None,
            appends_since_compact: state.replayed,
            last_center: state.center.clone(),
            last_ingest: state.ingest.clone(),
            held_twice: 0,
            buf: Vec::new(),
        };
        journal.note_recovery(&state);
        Ok((journal, state))
    }

    /// Attaches telemetry: `durable.*` counters and the recovery
    /// latency histogram.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Logs a center phase-boundary checkpoint: append → flush; the
    /// caller applies (acknowledges the phase) only after `Ok`.
    ///
    /// One append either way: a [`REC_CENTER_DELTA`] carrying the live
    /// state and the records the log does not yet hold twice, or — the
    /// first commit after open, recovery or compaction, or one whose
    /// ledger does not extend the last logged one — a full
    /// [`REC_CENTER`]. A delta neither copies nor encodes the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the record could not be made durable;
    /// the phase must then be treated as uncommitted.
    #[must_use = "an unlogged commit is not durable; check the error"]
    pub fn log_center(&mut self, checkpoint: &CenterCheckpoint) -> Result<Lsn, WalError> {
        // Records the log holds at least once (every record of the
        // journal's copy), when the new ledger extends that copy.
        let held_once = self
            .last_center
            .as_ref()
            .filter(|last| checkpoint.extends(last))
            .map(|last| last.records().len());
        let base = held_once.map_or(0, |_| self.held_twice);
        let lsn = if base == 0 {
            self.log(REC_CENTER, checkpoint)?
        } else {
            self.log(REC_CENTER_DELTA, &checkpoint.delta(base))?
        };
        // This record adds one copy of everything it carried: what the
        // log held once it now holds twice.
        match (self.last_center.as_mut(), held_once) {
            (Some(last), Some(held_once)) => {
                last.advance_to(checkpoint);
                self.held_twice = held_once;
            }
            _ => {
                self.last_center = Some(checkpoint.clone());
                self.held_twice = 0;
            }
        }
        self.maybe_compact()?;
        Ok(lsn)
    }

    /// Logs a serve front-end ingest checkpoint: append → flush.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the record could not be made durable.
    #[must_use = "an unlogged commit is not durable; check the error"]
    pub fn log_ingest(&mut self, checkpoint: &IngestCheckpoint) -> Result<Lsn, WalError> {
        let lsn = self.log(REC_INGEST, checkpoint)?;
        self.last_ingest = Some(checkpoint.clone());
        self.maybe_compact()?;
        Ok(lsn)
    }

    /// Restart-and-replay: recovers the backend from any simulated
    /// crash, replays the log, and returns the (unaudited) recovered
    /// state. Observes the recovery latency histogram
    /// (`durable.recovery_ns`) when telemetry is attached.
    ///
    /// # Errors
    ///
    /// Returns [`WalError`] when the backend fails during the replay
    /// itself.
    #[must_use = "dropping the recovered state loses the replayed checkpoints"]
    pub fn recover(&mut self) -> Result<RecoveredState, WalError> {
        let started = self.recorder.as_ref().map(Recorder::now);
        let recovery = self.wal.reopen()?;
        let state = reduce(&recovery);
        self.appends_since_compact = state.replayed;
        self.last_center = state.center.clone();
        self.last_ingest = state.ingest.clone();
        self.held_twice = 0;
        self.note_recovery(&state);
        if let (Some(r), Some(t0)) = (self.recorder.as_ref(), started) {
            r.incr("durable.recoveries", 1);
            r.observe_duration("durable.recovery_ns", r.now().saturating_sub(t0));
        }
        Ok(state)
    }

    /// WAL lifetime counters (appends, flush barriers, rotations,
    /// compactions).
    #[must_use]
    pub fn stats(&self) -> &WalStats {
        self.wal.stats()
    }

    /// Live segment count in the underlying WAL.
    #[must_use]
    pub fn live_segments(&self) -> u64 {
        self.wal.live_segments()
    }

    /// The fault-injecting backend, when this journal runs over one
    /// (chaos tests read injected-fault stats and place crashes
    /// through this).
    #[must_use]
    pub fn fault_storage(&self) -> Option<&FaultStorage> {
        self.wal.storage().as_any().and_then(|a| a.downcast_ref())
    }

    /// Mutable variant of [`Journal::fault_storage`].
    #[must_use]
    pub fn fault_storage_mut(&mut self) -> Option<&mut FaultStorage> {
        self.wal
            .storage_mut()
            .as_any_mut()
            .and_then(|a| a.downcast_mut())
    }

    fn log<T: Encode + ?Sized>(&mut self, kind: u8, value: &T) -> Result<Lsn, WalError> {
        snapshot::encode_into(value, &mut self.buf);
        let lsn = self.wal.append(kind, &self.buf)?;
        self.wal.flush()?;
        self.appends_since_compact += 1;
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.records_written", 1);
            r.incr("durable.records_flushed", 1);
            r.gauge("durable.segment_bytes", self.wal.segment_len() as f64);
        }
        Ok(lsn)
    }

    fn maybe_compact(&mut self) -> Result<(), WalError> {
        if self.config.compact_every == 0
            || self.appends_since_compact < self.config.compact_every
        {
            return Ok(());
        }
        // The compaction record is the log's only copy of the ledger,
        // so the next center commit is full, whether or not this one
        // completes.
        self.held_twice = 0;
        let pair = (&self.last_center, &self.last_ingest);
        snapshot::encode_into(&pair, &mut self.buf);
        self.wal.compact(REC_COMPACT, &self.buf)?;
        self.appends_since_compact = 0;
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.compactions", 1);
        }
        Ok(())
    }

    fn note_recovery(&self, state: &RecoveredState) {
        if let Some(r) = self.recorder.as_ref() {
            r.incr("durable.replayed", state.replayed);
            r.incr("durable.quarantined", state.quarantined);
            r.incr("durable.undecodable", state.undecodable);
            r.incr("durable.torn_truncated", u64::from(state.torn_tail_truncated));
        }
    }
}

/// Reduces a raw WAL replay to the latest checkpoint of each stream:
/// full and compaction records replace a stream, deltas extend the
/// center ledger rebuilt so far. A delta that does not apply breaks
/// the ledger until a later full or compaction record replaces it; a
/// ledger still broken at the end fails the replay as `"center"`.
fn reduce(recovery: &Recovery) -> RecoveredState {
    let mut state = RecoveredState {
        torn_tail_truncated: recovery.torn_tail.is_some(),
        quarantined: recovery.quarantined.len() as u64,
        ..RecoveredState::default()
    };
    let fail = |state: &mut RecoveredState, kind: &'static str| {
        state.undecodable += 1;
        state.first_undecodable.get_or_insert(kind);
    };
    let mut ledger_gap = false;
    for record in &recovery.records {
        match record.kind {
            REC_CENTER => match snapshot::decode::<CenterCheckpoint>(&record.payload) {
                Some(c) => {
                    state.center = Some(c);
                    ledger_gap = false;
                    state.replayed += 1;
                }
                None => fail(&mut state, "center"),
            },
            REC_CENTER_DELTA => match snapshot::decode::<CenterDelta>(&record.payload) {
                Some(delta) => {
                    let applied = !ledger_gap
                        && state.center.as_mut().is_some_and(|c| c.apply_delta(delta));
                    if applied {
                        state.replayed += 1;
                    } else {
                        ledger_gap = true;
                    }
                }
                None => fail(&mut state, "center"),
            },
            REC_INGEST => match snapshot::decode::<IngestCheckpoint>(&record.payload) {
                Some(i) => {
                    state.ingest = Some(i);
                    state.replayed += 1;
                }
                None => fail(&mut state, "ingest"),
            },
            REC_COMPACT => {
                type Pair = (Option<CenterCheckpoint>, Option<IngestCheckpoint>);
                match snapshot::decode::<Pair>(&record.payload) {
                    Some((c, i)) => {
                        if c.is_some() {
                            state.center = c;
                            ledger_gap = false;
                        }
                        if i.is_some() {
                            state.ingest = i;
                        }
                        state.replayed += 1;
                    }
                    None => fail(&mut state, "compaction"),
                }
            }
            _ => fail(&mut state, "unknown"),
        }
    }
    if ledger_gap {
        fail(&mut state, "center");
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{CenterAgent, DayPlan};
    use crate::serve_runtime::{ServeProducer, ServeRuntime};
    use enki_core::mechanism::Enki;
    use enki_core::validation::RawPreference;
    use enki_durable::prelude::{FaultPlan, MemStorage};
    use enki_serve::prelude::IngestConfig;
    use serde::{Deserialize, Serialize, Value};

    /// Runs a serve runtime to quiescence and hands back its center,
    /// whose snapshot then carries `days` settled records.
    fn settled(days: u64) -> ServeRuntime {
        let center = CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..4).map(HouseholdId::new).collect(),
            DayPlan::default(),
            7,
        );
        let mut rt = ServeRuntime::new(center, IngestConfig::default(), 7);
        for i in 0..4 {
            rt.add_producer(ServeProducer::new(
                HouseholdId::new(i),
                RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
            ));
        }
        rt.run_days(days);
        assert_eq!(rt.records().len() as u64, days);
        rt
    }

    #[test]
    fn empty_journal_opens_to_nothing() {
        let (journal, state) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        assert!(state.center.is_none());
        assert!(state.ingest.is_none());
        assert_eq!(state.replayed, 0);
        assert!(state.audit(&[], &EnkiConfig::default()).is_ok());
        assert_eq!(journal.stats().appended, 0);
    }

    #[test]
    fn last_center_record_wins_and_passes_audit() {
        let early_rt = settled(1);
        let rt = settled(2);
        let center = rt.center();
        let (mut journal, _) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.log_center(&early_rt.center().snapshot()).unwrap();
        journal.log_center(&center.snapshot()).unwrap();
        let state = journal.recover().unwrap();
        let got = state.center.as_ref().unwrap();
        assert_eq!(got.records().len(), 2, "later checkpoint won");
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn compaction_folds_both_streams_into_one_record() {
        let rt = settled(1);
        let center = rt.center();
        let config = JournalConfig {
            compact_every: 2,
            ..JournalConfig::default()
        };
        let (mut journal, _) = Journal::open(MemStorage::new(), config).unwrap();
        let ingest =
            enki_serve::ingest::IngestFrontEnd::new(IngestConfig::default(), 3).checkpoint();
        journal.log_center(&center.snapshot()).unwrap();
        journal.log_ingest(&ingest).unwrap();
        assert_eq!(journal.stats().compactions, 1);
        assert_eq!(journal.live_segments(), 1);
        let state = journal.recover().unwrap();
        assert_eq!(state.replayed, 1, "one compaction record replays");
        assert!(state.center.is_some());
        assert!(state.ingest.is_some());
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn unflushed_center_commit_is_lost_on_crash_and_audit_still_passes() {
        let rt = settled(2);
        let center = rt.center();
        let storage = FaultStorage::new(FaultPlan::none());
        let (mut journal, _) = Journal::open(storage, JournalConfig::default()).unwrap();
        journal.log_center(&center.snapshot()).unwrap();
        journal.fault_storage_mut().unwrap().enter_crash();
        let state = journal.recover().unwrap();
        assert_eq!(
            state.center.as_ref().unwrap().records().len(),
            2,
            "flushed commit survives the crash"
        );
        state
            .audit(center.roster(), center.enki().config())
            .unwrap();
    }

    #[test]
    fn tampered_settlement_fails_the_audit() {
        // A checkpoint whose recorded history the oracle rejects must
        // be refused, even though every checksum is intact.
        let rt = settled(1);
        let center = rt.center();
        let mut checkpoint = center.snapshot();
        // Bit-exact tampering below the CRC: duplicate the settled
        // day's record, which breaks record ordering/uniqueness.
        let cloned = checkpoint.records()[0].serialize_value();
        edit_field(&mut checkpoint, "records", |records| {
            let Value::Array(items) = records else {
                panic!("records serialize to an array")
            };
            items.push(cloned);
        });
        let (mut journal, _) =
            Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
        journal.log_center(&checkpoint).unwrap();
        let state = journal.recover().unwrap();
        let err = state
            .audit(center.roster(), center.enki().config())
            .unwrap_err();
        assert!(matches!(err, enki_core::Error::RecoveryAudit { .. }), "{err}");
    }

    #[test]
    fn undecodable_record_maps_to_corrupt_checkpoint() {
        // A payload that passes the CRC but is not a checkpoint: the
        // journal quarantines it and the audit refuses the state.
        let (mut wal, _) = Wal::open(
            Box::new(MemStorage::new()) as Box<dyn Storage>,
            WalConfig::default(),
        )
        .unwrap();
        wal.append(REC_CENTER, b"not a checkpoint").unwrap();
        wal.flush().unwrap();
        let storage = wal.into_storage();
        let (_, state) = Journal::open(storage, JournalConfig::default()).unwrap();
        assert_eq!(state.undecodable, 1);
        let err = state.audit(&[], &EnkiConfig::default()).unwrap_err();
        assert_eq!(
            err,
            enki_core::Error::CorruptCheckpoint { kind: "center" }
        );
    }

    /// The live half contradicts the ledger in a CRC-valid checkpoint:
    /// restored, the center would settle a recorded day again.
    #[test]
    fn live_state_behind_its_ledger_fails_the_audit() {
        let mut rt = settled(2);
        // Mid-day 2: next_day is 3 and day 2 is in progress.
        rt.run_ticks(50);
        let center = rt.center();
        let newest = center.records().last().unwrap().day;
        let as_uint = |day: u64| Value::UInt(day);
        let restarted = |edit: &dyn Fn(&mut CenterCheckpoint)| {
            let mut checkpoint = center.snapshot();
            assert!(checkpoint.live_state_follows_ledger());
            edit(&mut checkpoint);
            let (mut journal, _) =
                Journal::open(MemStorage::new(), JournalConfig::default()).unwrap();
            journal.log_center(&checkpoint).unwrap();
            journal
                .recover()
                .unwrap()
                .audit(center.roster(), center.enki().config())
        };
        let refused = Err(enki_core::Error::RecoveryAudit {
            invariant: "live_state_behind_ledger".to_string(),
            violations: 1,
        });
        // The next day is the newest settled day.
        let same_day = |c: &mut CenterCheckpoint| {
            edit_field(c, "current", |current| *current = Value::Null);
            edit_field(c, "next_day", |next| *next = as_uint(newest));
        };
        assert_eq!(restarted(&same_day), refused);
        // The day in progress is the newest settled day.
        let settled_in_progress = |c: &mut CenterCheckpoint| {
            edit_field(c, "next_day", |next| *next = as_uint(newest + 1));
            edit_field(c, "current", |current| {
                let Value::Object(fields) = current else {
                    panic!("a day is in progress")
                };
                for (name, value) in fields {
                    if name == "day" {
                        *value = as_uint(newest);
                    }
                }
            });
        };
        assert_eq!(restarted(&settled_in_progress), refused);
        // The day in progress is not the day before next_day.
        let skewed = |c: &mut CenterCheckpoint| {
            edit_field(c, "next_day", |next| *next = as_uint(newest + 5));
        };
        assert_eq!(restarted(&skewed), refused);
        assert_eq!(restarted(&|_: &mut CenterCheckpoint| {}), Ok(()));
    }

    /// A delta whose base lies past the rebuilt ledger — here it skips
    /// a day — fails closed instead of leaving a silent gap.
    #[test]
    fn delta_skipping_a_day_fails_closed() {
        let rt = settled(3);
        let full = rt.center().snapshot();
        let roster = || rt.center().roster().to_vec();

        // A full record holding day 0 only, then a delta based at index
        // 2: day 1 is in neither.
        let mut day0 = full.clone();
        edit_field(&mut day0, "records", |records| {
            let Value::Array(items) = records else {
                panic!("records serialize to an array")
            };
            items.truncate(1);
        });
        let full_day0 = snapshot::encode(&day0);
        let delta = snapshot::encode(&full.delta(2));

        let write = |records: &[(u8, &[u8])]| {
            let (mut wal, _) = Wal::open(
                Box::new(MemStorage::new()) as Box<dyn Storage>,
                WalConfig::default(),
            )
            .unwrap();
            for (kind, payload) in records {
                wal.append(*kind, payload).unwrap();
            }
            wal.flush().unwrap();
            let (_, state) = Journal::open(wal.into_storage(), JournalConfig::default()).unwrap();
            state
        };

        let state = write(&[(REC_CENTER, &full_day0), (REC_CENTER_DELTA, &delta)]);
        assert_eq!(
            state.audit(&roster(), &EnkiConfig::default()),
            Err(enki_core::Error::CorruptCheckpoint { kind: "center" })
        );

        // The same delta based at index 1 fills the gap with day 1: it
        // applies, and the result is the full three-day checkpoint.
        let filled = snapshot::encode(&full.delta(1));
        let state = write(&[(REC_CENTER, &full_day0), (REC_CENTER_DELTA, &filled)]);
        state.audit(&roster(), &EnkiConfig::default()).unwrap();
        assert_eq!(state.center.as_ref(), Some(&full));

        // A later full record replaces a broken ledger: the gap is covered.
        let full_bytes = snapshot::encode(&full);
        let state = write(&[
            (REC_CENTER, &full_day0),
            (REC_CENTER_DELTA, &delta),
            (REC_CENTER, &full_bytes),
        ]);
        state.audit(&roster(), &EnkiConfig::default()).unwrap();
        assert_eq!(state.center.as_ref(), Some(&full));
    }

    /// The hand-written delta writer and the derived delta reader agree:
    /// a delta decodes, and applied to the ledger it extends, rebuilds
    /// the checkpoint it was taken from.
    #[test]
    fn delta_writer_matches_the_derived_reader() {
        let full = settled(3).center().snapshot();
        for base in 0..=3 {
            let bytes = snapshot::encode(&full.delta(base));
            let delta: CenterDelta = snapshot::decode(&bytes).expect("a delta decodes");
            let mut rebuilt = full.clone();
            assert!(rebuilt.apply_delta(delta), "base {base}");
            assert_eq!(rebuilt, full);
        }
    }

    /// Logs written in the retired tagged form — field names and a type
    /// tag on every value — are refused as corrupt, never misread.
    #[test]
    fn a_log_in_the_retired_tagged_form_fails_closed() {
        let center = settled(1).center().snapshot();
        let ingest =
            enki_serve::ingest::IngestFrontEnd::new(IngestConfig::default(), 3).checkpoint();
        let pair = (Some(center.clone()), Some(ingest.clone()));
        for (kind, tree, stream) in [
            (REC_CENTER, center.serialize_value(), "center"),
            (REC_INGEST, ingest.serialize_value(), "ingest"),
            (REC_COMPACT, pair.serialize_value(), "compaction"),
        ] {
            let mut payload = Vec::new();
            tagged(&tree, &mut payload);
            let (mut wal, _) = Wal::open(
                Box::new(MemStorage::new()) as Box<dyn Storage>,
                WalConfig::default(),
            )
            .unwrap();
            wal.append(kind, &payload).unwrap();
            wal.flush().unwrap();
            let (_, state) = Journal::open(wal.into_storage(), JournalConfig::default()).unwrap();
            assert_eq!(state.undecodable, 1, "{stream}");
            assert_eq!(
                state.audit(&[], &EnkiConfig::default()),
                Err(enki_core::Error::CorruptCheckpoint { kind: stream })
            );
        }
    }

    /// The retired tagged payload form, rendered from a value tree: a
    /// tag byte 0–8 on every value and every field name spelled out.
    fn tagged(value: &Value, out: &mut Vec<u8>) {
        let len = |out: &mut Vec<u8>, n: usize| {
            out.extend_from_slice(&u32::try_from(n).unwrap().to_le_bytes());
        };
        match value {
            Value::Null => out.push(0),
            Value::Bool(b) => out.push(1 + u8::from(*b)),
            Value::Int(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::UInt(v) => {
                out.push(4);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Float(v) => {
                out.push(5);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::String(s) => {
                out.push(6);
                len(out, s.len());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Array(items) => {
                out.push(7);
                len(out, items.len());
                for item in items {
                    tagged(item, out);
                }
            }
            Value::Object(fields) => {
                out.push(8);
                len(out, fields.len());
                for (name, item) in fields {
                    len(out, name.len());
                    out.extend_from_slice(name.as_bytes());
                    tagged(item, out);
                }
            }
        }
    }

    /// Test-only back door: `CenterCheckpoint` fields are private, so
    /// tampering goes through the serialized tree.
    fn edit_field(checkpoint: &mut CenterCheckpoint, name: &str, edit: impl FnOnce(&mut Value)) {
        let mut tree = checkpoint.serialize_value();
        let Value::Object(fields) = &mut tree else {
            panic!("checkpoint serializes to an object")
        };
        let (_, value) = fields
            .iter_mut()
            .find(|(field, _)| field == name)
            .expect("the checkpoint has the field");
        edit(value);
        *checkpoint = CenterCheckpoint::deserialize_value(&tree).unwrap();
    }
}
