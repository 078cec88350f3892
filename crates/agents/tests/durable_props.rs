//! Property tests for the durability layer's two load-bearing claims:
//!
//! 1. **Snapshot fidelity** — every checkpoint type the journal writes
//!    roundtrips bit-exactly through the `enki_serve::snapshot` codec,
//!    for checkpoints harvested from arbitrary live runs (including
//!    producers that send NaN, ±∞ and −0.0, which `last_raw` keeps
//!    verbatim — which is why comparisons are on re-encoded bytes
//!    rather than `PartialEq`), and decoding stays total on every prefix
//!    and bit flip of a paper-scale checkpoint.
//! 2. **Prefix recoverability** — a write-ahead log is only as good as
//!    its worst torn tail: *every byte prefix* of a valid log must
//!    recover, pass the mandatory oracle audit, and yield a settlement
//!    history that is itself a prefix of the full run's.

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::{RawPreference, RawReport};
use enki_durable::prelude::{FaultPlan, FaultStorage, MemStorage};
use enki_serve::prelude::{
    encode_frame, Batch, IngestCheckpoint, IngestConfig, IngestFrontEnd, ShedCost,
};
use enki_serve::snapshot;
use proptest::prelude::*;

const DAY: Tick = 100;

/// The float images a household may send that admission quarantines
/// (or, for −0.0, admits) but `last_raw` must keep bit for bit.
const ODD_FLOATS: [f64; 5] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    f64::from_bits(0x7FF8_DEAD_BEEF_0001),
];

/// Household `i`'s daily report: the usual wide window, or — when bit
/// `i` of `odd` is set — one with an odd float in field `i % 3`.
fn preference(i: u32, odd: u32) -> RawPreference {
    let mut fields = [f64::from(16 + (i % 6)), 23.0, 2.0];
    if odd >> (i % 32) & 1 == 1 {
        fields[(i % 3) as usize] = ODD_FLOATS[(i as usize) % ODD_FLOATS.len()];
    }
    RawPreference::new(fields[0], fields[1], fields[2])
}

fn journaled_runtime(households: u32, seed: u64) -> ServeRuntime {
    odd_runtime(households, seed, 0)
}

/// A journaled runtime whose households in the `odd` bitmask send odd
/// floats (see [`preference`]).
fn odd_runtime(households: u32, seed: u64, odd: u32) -> ServeRuntime {
    let (journal, _) = Journal::open(
        FaultStorage::new(FaultPlan::none()),
        JournalConfig {
            compact_every: 5,
            ..JournalConfig::default()
        },
    )
    .expect("fresh storage opens");
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..households).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), seed).with_journal(journal);
    for i in 0..households {
        rt.add_producer(ServeProducer::new(HouseholdId::new(i), preference(i, odd)));
    }
    rt
}

/// The full run's durable segment image, in WAL append order, plus the
/// roster it was produced under.
fn durable_log(households: u32, days: u64, seed: u64) -> (Vec<(String, Vec<u8>)>, Vec<HouseholdId>) {
    let mut rt = journaled_runtime(households, seed);
    rt.run_ticks(days * DAY);
    assert_eq!(rt.records().len() as u64, days, "rehearsal closed its days");
    let image = rt
        .journal()
        .expect("journal attached")
        .fault_storage()
        .expect("fault storage backend")
        .durable_image();
    // BTreeMap order is lexicographic; the zero-padded segment names
    // make that append order.
    let roster = rt.center().roster().to_vec();
    (image.into_iter().collect(), roster)
}

/// Opens a journal over an arbitrary byte image and returns the audited
/// recovered state.
fn recover_from_image(image: &[(String, Vec<u8>)]) -> RecoveredState {
    let mut storage = MemStorage::new();
    for (name, bytes) in image {
        storage.put(name, bytes.clone());
    }
    let (_, state) =
        Journal::open(storage, JournalConfig::default()).expect("prefix images always open");
    state
}

proptest! {
    /// Center checkpoints harvested at arbitrary points of arbitrary
    /// runs survive encode → decode → encode with identical bytes.
    #[test]
    fn center_checkpoints_roundtrip_bit_exactly(
        households in 1u32..6,
        seed in 0u64..1024,
        ticks in 0u64..250,
        odd in 0u32..64,
    ) {
        let mut rt = odd_runtime(households, seed, odd);
        rt.run_ticks(ticks);
        let checkpoint = rt.center().snapshot();
        let bytes = snapshot::encode(&checkpoint);
        let decoded: CenterCheckpoint =
            snapshot::decode(&bytes).expect("center checkpoint decodes");
        prop_assert_eq!(
            bytes,
            snapshot::encode(&decoded),
            "re-encoded center checkpoint diverged"
        );
    }

    /// Ingest checkpoints likewise — after arbitrary admitted load.
    #[test]
    fn ingest_checkpoints_roundtrip_bit_exactly(
        households in 1u32..6,
        seed in 0u64..1024,
        ticks in 0u64..250,
        odd in 0u32..64,
    ) {
        let mut rt = odd_runtime(households, seed, odd);
        rt.run_ticks(ticks);
        let checkpoint = rt.checkpoint().ingest().clone();
        let bytes = snapshot::encode(&checkpoint);
        let decoded: enki_serve::prelude::IngestCheckpoint =
            snapshot::decode(&bytes).expect("ingest checkpoint decodes");
        prop_assert_eq!(
            bytes,
            snapshot::encode(&decoded),
            "re-encoded ingest checkpoint diverged"
        );
    }

    /// Random byte prefixes of valid logs (varying the workload too)
    /// recover to an audit-accepted state.
    #[test]
    fn random_log_prefixes_recover_audit_clean(
        households in 1u32..5,
        seed in 0u64..64,
        cut_pick in any::<u64>(),
    ) {
        let (image, roster) = durable_log(households, 2, seed);
        let total: usize = image.iter().map(|(_, b)| b.len()).sum();
        prop_assume!(total > 0);
        let cut = (cut_pick % (total as u64 + 1)) as usize;
        let mut remaining = cut;
        let mut prefix: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, bytes) in &image {
            let take = remaining.min(bytes.len());
            prefix.push((name.clone(), bytes[..take].to_vec()));
            remaining -= take;
        }
        let state = recover_from_image(&prefix);
        prop_assert!(
            state.audit(&roster, &EnkiConfig::default()).is_ok(),
            "cut at byte {cut} of {total} failed the audit"
        );
    }
}

/// Exhaustive prefix sweep: every byte cut of a representative log —
/// not a sample — recovers audit-clean, and the recovered settlement
/// history is a prefix of the full run's (monotone recovery: a shorter
/// log never invents days).
#[test]
fn every_byte_prefix_of_a_valid_log_recovers_audit_clean() {
    let (image, roster) = durable_log(3, 2, 31);
    let total: usize = image.iter().map(|(_, b)| b.len()).sum();
    assert!(total > 0, "the rehearsal wrote a real log");
    let full = recover_from_image(&image);
    let full_days: Vec<u64> = full
        .center
        .as_ref()
        .expect("full log recovers the center")
        .records()
        .iter()
        .map(|r| r.day)
        .collect();

    for cut in 0..=total {
        let mut remaining = cut;
        let mut prefix: Vec<(String, Vec<u8>)> = Vec::new();
        for (name, bytes) in &image {
            let take = remaining.min(bytes.len());
            prefix.push((name.clone(), bytes[..take].to_vec()));
            remaining -= take;
        }
        let state = recover_from_image(&prefix);
        assert!(
            state.audit(&roster, &EnkiConfig::default()).is_ok(),
            "cut at byte {cut} of {total} failed the audit: {state:?}"
        );
        let days: Vec<u64> = state
            .center
            .as_ref()
            .map_or(Vec::new(), |c| c.records().iter().map(|r| r.day).collect());
        assert!(
            full_days.starts_with(&days),
            "cut at byte {cut}: recovered days {days:?} are not a prefix of {full_days:?}"
        );
    }
}

/// Every odd float a household sent reaches the journaled checkpoint
/// as its exact bit image, and the checkpoint survives the codec.
#[test]
fn odd_floats_survive_the_journal_bit_for_bit() {
    let households = ODD_FLOATS.len() as u32;
    let mut rt = odd_runtime(households, 5, u32::MAX);
    rt.run_ticks(2 * DAY);
    let bytes = snapshot::encode(rt.center().checkpoint());
    for odd in ODD_FLOATS {
        let image = odd.to_bits().to_le_bytes();
        assert!(
            bytes.windows(8).any(|w| w == image),
            "{odd} ({:#x}) is not in the checkpoint",
            odd.to_bits()
        );
    }
    let decoded: CenterCheckpoint = snapshot::decode(&bytes).expect("decodes");
    assert_eq!(snapshot::encode(&decoded), bytes);
}

/// A `history-50`-shaped center checkpoint: 50 households, 40 settled
/// days.
fn history_checkpoint() -> CenterCheckpoint {
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..50).map(HouseholdId::new).collect(),
        DayPlan::default(),
        2017,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), 2017);
    for i in 0..50 {
        rt.add_producer(ServeProducer::new(HouseholdId::new(i), preference(i, 0)));
    }
    rt.run_days(40);
    assert_eq!(rt.records().len(), 40);
    rt.center().snapshot()
}

/// An ingest checkpoint whose queue of `capacity` slots is full of
/// reports, odd floats included.
fn full_ingest_checkpoint(capacity: u32) -> IngestCheckpoint {
    let config = IngestConfig {
        queue_capacity: capacity as usize,
        ..IngestConfig::default()
    };
    let mut front = IngestFrontEnd::new(config, 11);
    let reports = (0..capacity)
        .map(|i| RawReport::new(HouseholdId::new(i), preference(i, 0x5555_5555)))
        .collect();
    let frame = encode_frame(&Batch {
        day: 0,
        deadline: 1_000,
        reports,
    })
    .expect("a full queue's frame encodes");
    let _ = front.offer_bytes(0, &frame, &mut |_| ShedCost::Fresh);
    assert_eq!(front.queue_depth(), capacity as usize, "the queue is full");
    front.checkpoint()
}

/// Decoding is total on `bytes`: strict prefixes are refused, and
/// single-bit flips decode to a value or `None` without panicking.
/// About `samples` of each are tried, evenly spread on an odd stride;
/// `usize::MAX` tries every prefix and every flip.
fn assert_decode_is_total<T: serde::Decode>(bytes: &[u8], samples: usize) {
    let stride = |n: usize| (n / samples) | 1;
    assert!(snapshot::decode::<T>(bytes).is_some());
    for cut in (0..bytes.len()).step_by(stride(bytes.len())) {
        assert!(
            snapshot::decode::<T>(&bytes[..cut]).is_none(),
            "prefix of {cut} bytes"
        );
    }
    let mut flipped = bytes.to_vec();
    for bit in (0..bytes.len() * 8).step_by(stride(bytes.len() * 8)) {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = snapshot::decode::<T>(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Every prefix and every bit flip of checkpoints that hold every
/// shape the journal writes: a center mid-day with an allocation,
/// settled records, quarantined odd floats in `last_raw`, and a full
/// ingest queue.
#[test]
fn decoding_is_total_on_every_prefix_and_bit_flip() {
    let mut rt = odd_runtime(4, 9, 0b0101);
    rt.run_ticks(2 * DAY + 50);
    let center = rt.center().snapshot();
    assert_eq!(center.records().len(), 2);
    let ingest = full_ingest_checkpoint(24);
    assert_decode_is_total::<CenterCheckpoint>(&snapshot::encode(&center), usize::MAX);
    assert_decode_is_total::<IngestCheckpoint>(&snapshot::encode(&ingest), usize::MAX);
}

/// The same at paper scale — a 40-day, 50-household checkpoint and a
/// 256-slot queue — on a sample of prefixes and flips: trying every
/// one costs O(bytes²) decode work, some 10¹⁰ byte reads at 150 KB.
#[test]
fn decoding_paper_scale_checkpoints_is_total() {
    let bytes = snapshot::encode(&history_checkpoint());
    let ingest = full_ingest_checkpoint(256);
    assert_decode_is_total::<CenterCheckpoint>(&bytes, 300);
    assert_decode_is_total::<IngestCheckpoint>(&snapshot::encode(&ingest), 300);

    // The ledger's count follows the format byte, `next_day` and the
    // RNG state. Set to u32::MAX it is refused before anything is
    // allocated; set to the most the bytes left could hold, it is
    // refused once they run out, with at most 1 MiB reserved up front.
    let at = 1 + 8 + 4 * 8;
    assert_eq!(&bytes[at..at + 4], &40u32.to_le_bytes());
    for count in [u32::MAX, (bytes.len() - at - 4) as u32] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&count.to_le_bytes());
        assert!(
            snapshot::decode::<CenterCheckpoint>(&bad).is_none(),
            "count {count}"
        );
    }
}
