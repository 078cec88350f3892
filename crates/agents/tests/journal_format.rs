//! The incremental center journal: what each record kind holds, and
//! what losing any one of them costs.
//!
//! Most center commits are written as a delta (live state plus the
//! ledger records the log does not yet hold twice), the first commit
//! after open, recovery or compaction as a full checkpoint. These tests
//! pin the claims the durability docs make about that format:
//!
//! * one lost center record — delta, full or compaction — rolls back
//!   at most to the previous commit and never opens a ledger gap (a
//!   delta that would leave a gap fails closed: `durable.rs` unit
//!   tests);
//! * logs written before deltas existed (full records only) replay;
//! * a center commit's size does not grow with the settled history.

use std::collections::BTreeMap;

use enki_agents::durable::{REC_CENTER, REC_CENTER_DELTA, REC_COMPACT, REC_INGEST};
use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_durable::prelude::{FaultPlan, FaultStorage, MemStorage, OpKind, Storage, Wal, WalConfig};
use enki_durable::wal::FRAME_HEADER_LEN;
use enki_serve::prelude::IngestConfig;
use enki_serve::snapshot;

const DAY: Tick = 100;
const HOUSEHOLDS: u32 = 4;
const SEED: u64 = 23;

fn runtime(config: JournalConfig) -> ServeRuntime {
    let (journal, _) =
        Journal::open(FaultStorage::new(FaultPlan::none()), config).expect("fresh store opens");
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..HOUSEHOLDS).map(HouseholdId::new).collect(),
        DayPlan::default(),
        SEED,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), SEED).with_journal(journal);
    for i in 0..HOUSEHOLDS {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    rt
}

/// Runs `days` faultless days tick by tick, returning the runtime and
/// every committed center checkpoint in commit order.
fn run_collecting_commits(
    config: JournalConfig,
    days: u64,
) -> (ServeRuntime, Vec<CenterCheckpoint>) {
    let mut rt = runtime(config);
    let mut commits = Vec::new();
    let mut seq = rt.center().commit_seq();
    for _ in 0..days * DAY {
        rt.run_ticks(1);
        if rt.center().commit_seq() != seq {
            seq = rt.center().commit_seq();
            commits.push(rt.center().snapshot());
        }
    }
    assert_eq!(rt.records().len() as u64, days, "every day closed");
    assert!(
        rt.recovery_errors().is_empty(),
        "{:?}",
        rt.recovery_errors()
    );
    (rt, commits)
}

fn durable_image(rt: &ServeRuntime) -> BTreeMap<String, Vec<u8>> {
    rt.journal()
        .and_then(Journal::fault_storage)
        .expect("journal on the in-memory store")
        .durable_image()
}

/// One WAL frame of the durable image: its segment, where its payload
/// starts, its kind and its payload length.
#[derive(Debug, Clone)]
struct Frame {
    segment: String,
    payload_at: usize,
    kind: u8,
    len: usize,
}

fn frames(image: &BTreeMap<String, Vec<u8>>) -> Vec<Frame> {
    let mut out = Vec::new();
    for (segment, bytes) in image {
        let mut pos = 0;
        while pos + FRAME_HEADER_LEN <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            out.push(Frame {
                segment: segment.clone(),
                payload_at: pos + FRAME_HEADER_LEN,
                kind: bytes[pos + 4],
                len,
            });
            pos += FRAME_HEADER_LEN + len;
        }
        assert_eq!(pos, bytes.len(), "a faultless segment holds whole frames");
    }
    out
}

fn carries_center(kind: u8) -> bool {
    matches!(kind, REC_CENTER | REC_CENTER_DELTA | REC_COMPACT)
}

fn open_image(image: &BTreeMap<String, Vec<u8>>) -> RecoveredState {
    let mut storage = MemStorage::new();
    for (name, bytes) in image {
        storage.put(name, bytes.clone());
    }
    let (_, state) = Journal::open(storage, JournalConfig::default()).expect("image opens");
    state
}

fn roster() -> Vec<HouseholdId> {
    (0..HOUSEHOLDS).map(HouseholdId::new).collect()
}

/// (a) Flip one bit inside each center record in turn — the compaction
/// record and the full record after it included — and replay. A later
/// center record always covers the loss; losing the last one rolls back
/// exactly one commit. Never a gap, never an audit refusal.
#[test]
fn any_single_lost_center_record_rolls_back_at_most_one_commit() {
    let config = JournalConfig {
        compact_every: 24,
        ..JournalConfig::default()
    };
    let (rt, commits) = run_collecting_commits(config, 9);
    assert!(
        rt.journal().unwrap().stats().compactions >= 1,
        "the run compacted"
    );
    let image = durable_image(&rt);
    let frames = frames(&image);
    let kinds: Vec<u8> = frames.iter().map(|f| f.kind).collect();
    // The log since the last compaction: the compaction record, then a
    // full center record, then deltas.
    let centers: Vec<u8> = kinds
        .iter()
        .copied()
        .filter(|&k| carries_center(k))
        .collect();
    assert_eq!(centers[0], REC_COMPACT, "{kinds:?}");
    assert_eq!(centers[1], REC_CENTER, "{kinds:?}");
    assert!(
        centers[2..].iter().all(|&k| k == REC_CENTER_DELTA),
        "{kinds:?}"
    );
    assert!(
        centers.len() >= 6,
        "deltas spanning settled days: {kinds:?}"
    );

    let newest = commits.last().unwrap();
    let previous = &commits[commits.len() - 2];
    let intact = open_image(&image);
    assert_eq!(intact.center.as_ref(), Some(newest));

    let last_center = frames.iter().rposition(|f| carries_center(f.kind)).unwrap();
    for (i, frame) in frames.iter().enumerate() {
        if !carries_center(frame.kind) {
            continue;
        }
        let mut rotted = image.clone();
        let bytes = rotted.get_mut(&frame.segment).unwrap();
        bytes[frame.payload_at + frame.len / 2] ^= 0x10;
        let state = open_image(&rotted);
        let label = format!("center record {i} (kind {})", frame.kind);
        assert_eq!(state.quarantined, 1, "{label}: exactly the rotted record");
        state
            .audit(&roster(), &EnkiConfig::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let expected = if i == last_center { previous } else { newest };
        assert_eq!(state.center.as_ref(), Some(expected), "{label}");
    }
}

/// (b) A log in the format that predates deltas — full center records,
/// ingest records and a compaction record — still replays, and the
/// journal keeps appending to it.
#[test]
fn full_record_logs_still_recover() {
    let (rt, commits) = run_collecting_commits(JournalConfig::default(), 3);
    let ingest = rt.checkpoint().ingest().clone();
    let (mut wal, _) = Wal::open(
        Box::new(MemStorage::new()) as Box<dyn Storage>,
        WalConfig::default(),
    )
    .unwrap();
    let pair = (Some(commits[0].clone()), Some(ingest.clone()));
    wal.compact(REC_COMPACT, &snapshot::encode(&pair)).unwrap();
    for commit in &commits[1..] {
        wal.append(REC_CENTER, &snapshot::encode(commit)).unwrap();
        wal.append(REC_INGEST, &snapshot::encode(&ingest)).unwrap();
    }
    wal.flush().unwrap();

    let (mut journal, state) = Journal::open(wal.into_storage(), JournalConfig::default()).unwrap();
    state.audit(&roster(), &EnkiConfig::default()).unwrap();
    assert_eq!(state.center.as_ref(), commits.last());
    assert_eq!(state.ingest.as_ref(), Some(&ingest));
    assert_eq!(state.replayed, commits.len() as u64 * 2 - 1);

    // New commits on top of the old format: a full record, then deltas.
    let newest = rt.center().checkpoint();
    journal.log_center(newest).unwrap();
    journal.log_center(newest).unwrap();
    let state = journal.recover().unwrap();
    state.audit(&roster(), &EnkiConfig::default()).unwrap();
    assert_eq!(state.center.as_ref(), Some(newest));
}

/// (c) A center commit's journaled bytes stay flat as the history
/// grows: each phase commit of the last of 40 days (day 39) is within
/// 1.5× of the same phase on day 2. Compaction is off, so no measured
/// commit is the full record that follows a compaction.
#[test]
fn center_commit_bytes_do_not_grow_with_history() {
    const DAYS: u64 = 40;
    let mut rt = runtime(JournalConfig {
        compact_every: 0,
        ..JournalConfig::default()
    });
    let mut center_bytes = Vec::new();
    let mut seq = rt.center().commit_seq();
    for _ in 0..DAYS * DAY {
        let ops_before = rt
            .journal()
            .unwrap()
            .fault_storage()
            .unwrap()
            .op_log()
            .len();
        rt.run_ticks(1);
        if rt.center().commit_seq() == seq {
            continue;
        }
        seq = rt.center().commit_seq();
        // The center commit is the tick's first append.
        let ops = rt.journal().unwrap().fault_storage().unwrap().op_log();
        let bytes = ops[ops_before..]
            .iter()
            .find_map(|op| match op.kind {
                OpKind::Append(n) => Some(n),
                _ => None,
            })
            .expect("a commit appends");
        center_bytes.push(bytes);
    }
    assert_eq!(
        center_bytes.len() as u64,
        3 * DAYS,
        "start, allocation, settlement"
    );
    for phase in 0..3 {
        let early = center_bytes[3 * 2 + phase] as f64;
        let late = center_bytes[3 * (DAYS as usize - 1) + phase] as f64;
        assert!(
            late <= 1.5 * early,
            "phase {phase}: {late} B on day {} vs {early} B on day 2",
            DAYS - 1
        );
    }
}
