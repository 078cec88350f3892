//! Chaos harness for the serve-layer ingestion path: burst floods,
//! slow drains, starved queues, poisoned frames, and mid-batch center
//! crashes, each checked against the same protocol oracle as the
//! lockstep runtime — under overload the mechanism may lose
//! *participation*, never *money*. Every schedule is deterministic and
//! its trace is byte-reproducible as JSONL.

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::{RawPreference, RawReport};
use enki_serve::prelude::{encode_frame, Backoff, Batch, IngestConfig};

const DAY: Tick = 100;
const DAYS: u64 = 3;

fn center(n: u32, seed: u64) -> CenterAgent {
    CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..n).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    )
}

fn runtime(n: u32, config: IngestConfig, burst: u32, seed: u64) -> ServeRuntime {
    let mut rt = ServeRuntime::new(center(n, seed), config, seed);
    for i in 0..n {
        rt.add_producer(
            ServeProducer::new(
                HouseholdId::new(i),
                RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
            )
            .with_burst(burst),
        );
    }
    rt
}

fn assert_oracle_clean(rt: &ServeRuntime, label: &str) {
    let violations = check_invariant_parts(
        rt.records(),
        rt.center().roster(),
        &EnkiConfig::default(),
        rt.trace(),
    );
    assert!(violations.is_empty(), "{label}: violations {violations:?}");
}

fn assert_days_closed(rt: &ServeRuntime, label: &str) {
    let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
    assert_eq!(
        recorded,
        (0..DAYS).collect::<Vec<u64>>(),
        "{label}: days did not all close"
    );
}

/// One serve-layer overload schedule.
struct Schedule {
    name: &'static str,
    config: IngestConfig,
    burst: u32,
    crashes: Vec<CrashSchedule>,
}

fn schedules() -> Vec<Schedule> {
    let tight = |capacity, drain| IngestConfig {
        queue_capacity: capacity,
        drain_per_tick: drain,
        backoff: Backoff::new(1, 4),
    };
    vec![
        Schedule {
            name: "uncontended baseline",
            config: IngestConfig::default(),
            burst: 1,
            crashes: vec![],
        },
        Schedule {
            name: "slow drain",
            config: tight(16, 1),
            burst: 1,
            crashes: vec![],
        },
        Schedule {
            name: "single-slot mailbox",
            config: tight(1, 1),
            burst: 1,
            crashes: vec![],
        },
        Schedule {
            name: "burst flood",
            config: tight(8, 4),
            burst: 20,
            crashes: vec![],
        },
        Schedule {
            name: "burst flood into a slow drain",
            config: tight(4, 1),
            burst: 12,
            crashes: vec![],
        },
        Schedule {
            name: "starved queue (admit nothing)",
            config: tight(0, 4),
            burst: 1,
            crashes: vec![],
        },
        Schedule {
            name: "stalled consumer (never drain)",
            config: tight(16, 0),
            burst: 1,
            crashes: vec![],
        },
        Schedule {
            name: "mid-batch crash in the report phase",
            config: tight(16, 1),
            burst: 1,
            crashes: vec![CrashSchedule {
                crash_at: 4,
                recover_at: 8,
            }],
        },
        Schedule {
            name: "crash between allocation and settlement",
            config: IngestConfig::default(),
            burst: 1,
            crashes: vec![CrashSchedule {
                crash_at: 40,
                recover_at: 48,
            }],
        },
        Schedule {
            name: "crash every day under contention",
            config: tight(8, 1),
            burst: 6,
            crashes: (0..DAYS)
                .map(|d| CrashSchedule {
                    crash_at: d * DAY + 35,
                    recover_at: d * DAY + 45,
                })
                .collect(),
        },
    ]
}

/// Safety under every overload schedule: the oracle's invariants hold,
/// every day closes with a record, and the ingest accounting stays
/// consistent. Liveness of *participation* is only demanded where the
/// schedule permits it (a starved queue legitimately excludes everyone).
#[test]
fn every_overload_schedule_preserves_oracle_invariants() {
    for (i, schedule) in schedules().into_iter().enumerate() {
        for seed in [11, 42] {
            let mut rt = runtime(6, schedule.config, schedule.burst, seed)
                .with_crashes(schedule.crashes.clone());
            rt.run_days(DAYS);
            let label = format!("schedule #{i} ({}) seed {seed}", schedule.name);
            assert_oracle_clean(&rt, &label);
            assert_days_closed(&rt, &label);
            let stats = rt.ingest_stats();
            assert!(
                stats.admitted <= stats.enqueued,
                "{label}: admitted beyond enqueued: {stats:?}"
            );
            if schedule.crashes.is_empty() {
                // Without crashes the front end loses nothing silently:
                // whatever was enqueued is admitted, shed with a cause,
                // or still queued.
                assert_eq!(
                    stats.enqueued,
                    stats.admitted
                        + stats.shed.evicted
                        + stats.shed.stale
                        + rt.queue_depth() as u64,
                    "{label}: enqueued work leaked: {stats:?}"
                );
            }
        }
    }
}

/// Contended but crash-free schedules deliver full participation:
/// backpressure defers work, it never loses it.
#[test]
fn backpressure_defers_but_everyone_participates() {
    for (name, config, burst) in [
        ("slow drain", 16usize, 1usize, 1u32),
        ("single slot", 1, 1, 1),
        ("burst flood", 8, 4, 20),
    ]
    .map(|(n, c, d, b)| {
        (
            n,
            IngestConfig {
                queue_capacity: c,
                drain_per_tick: d,
                backoff: Backoff::new(1, 4),
            },
            b,
        )
    }) {
        let mut rt = runtime(6, config, burst, 7);
        rt.run_days(DAYS);
        for record in rt.records() {
            assert_eq!(
                record.participants.len(),
                6,
                "{name}: day {} lost participants",
                record.day
            );
            assert!(record.settlement.is_some(), "{name}: day {} unsettled", record.day);
        }
        assert_oracle_clean(&rt, name);
    }
}

/// A zero-capacity queue admits nothing: every day closes empty, every
/// attempt is deferred, and no money moves — but nothing panics and the
/// oracle stays green.
#[test]
fn shed_everything_overload_closes_empty_days() {
    let config = IngestConfig {
        queue_capacity: 0,
        drain_per_tick: 4,
        backoff: Backoff::new(1, 4),
    };
    let mut rt = runtime(4, config, 1, 13);
    rt.run_days(DAYS);
    assert_days_closed(&rt, "shed everything");
    assert_oracle_clean(&rt, "shed everything");
    let stats = rt.ingest_stats();
    assert_eq!(stats.admitted, 0);
    assert_eq!(stats.enqueued, 0);
    assert!(stats.deferred > 0, "producers were backpressured: {stats:?}");
    for record in rt.records() {
        assert!(record.participants.is_empty());
        assert!(record.settlement.is_none());
        assert_eq!(record.missing_reports.len(), 4);
    }
    // Producers kept retrying under backoff rather than giving up.
    assert!((0..4u32).all(|i| rt
        .producer(HouseholdId::new(i))
        .is_some_and(|p| p.attempts() > 0)));
}

/// A frame whose admission deadline has already passed is shed at the
/// door as `Stale` and never reaches the center.
#[test]
fn deadline_already_passed_frames_are_shed_at_the_door() {
    let mut rt = runtime(3, IngestConfig::default(), 1, 17);
    rt.run_ticks(50); // day 0 allocated at tick 30
    let expired = Batch {
        day: 0,
        deadline: 30,
        reports: vec![RawReport::new(
            HouseholdId::new(99),
            RawPreference::new(18.0, 22.0, 2.0),
        )],
    };
    rt.inject_frame(encode_frame(&expired).unwrap());
    rt.run_ticks(DAYS * DAY - 50);
    let stats = rt.ingest_stats();
    assert!(stats.shed.stale >= 1, "expired frame shed as stale: {stats:?}");
    assert_days_closed(&rt, "deadline passed");
    assert_oracle_clean(&rt, "deadline passed");
    // Household 99 is not on the roster and its report died at the door:
    // it must never appear in a record.
    assert!(rt
        .records()
        .iter()
        .all(|r| !r.participants.contains(&HouseholdId::new(99))));
}

/// Malformed frames are quarantined without disturbing the protocol.
#[test]
fn malformed_frames_are_quarantined_mid_protocol() {
    let mut rt = runtime(4, IngestConfig::default(), 1, 19);
    rt.run_ticks(5);
    rt.inject_frame(vec![0xFF; 64]); // oversized length prefix
    rt.inject_frame(b"not a frame".to_vec());
    rt.run_ticks(DAYS * DAY - 5);
    let stats = rt.ingest_stats();
    assert!(stats.shed.malformed >= 1, "quarantine counted: {stats:?}");
    assert_days_closed(&rt, "malformed");
    assert_oracle_clean(&rt, "malformed");
    for record in rt.records() {
        assert_eq!(record.participants.len(), 4, "day {} intact", record.day);
    }
}

/// Mid-batch crash recovery: with a slow drain the queue is non-empty
/// when the center dies; the recovered front end resumes from the last
/// durable snapshot and the surviving queued reports still participate.
#[test]
fn mid_batch_crash_recovers_queued_work_from_the_checkpoint() {
    let config = IngestConfig {
        queue_capacity: 16,
        drain_per_tick: 1,
        backoff: Backoff::new(1, 4),
    };
    let mut rt = runtime(6, config, 1, 23).with_crashes(vec![CrashSchedule {
        crash_at: 4,
        recover_at: 8,
    }]);
    rt.run_days(DAYS);
    assert_days_closed(&rt, "mid-batch crash");
    assert_oracle_clean(&rt, "mid-batch crash");
    let day0 = &rt.records()[0];
    assert!(
        !day0.participants.is_empty(),
        "queued reports survived the crash: {day0:?}"
    );
    assert!(
        !day0.missing_reports.is_empty(),
        "reports the center held only in memory were lost: {day0:?}"
    );
    // Later days recover full participation.
    assert_eq!(rt.records()[2].participants.len(), 6);
}

/// The whole harness is deterministic: a contended, crashing schedule
/// serializes to byte-identical JSONL traces across runs.
#[test]
fn overloaded_traces_are_byte_reproducible_jsonl() {
    let run = || {
        let config = IngestConfig {
            queue_capacity: 4,
            drain_per_tick: 1,
            backoff: Backoff::new(1, 8),
        };
        let mut rt = runtime(6, config, 8, 29).with_crashes(vec![CrashSchedule {
            crash_at: 40,
            recover_at: 48,
        }]);
        rt.run_days(DAYS);
        let mut jsonl = String::new();
        for event in rt.trace() {
            jsonl.push_str(&serde_json::to_string(event).expect("trace serializes"));
            jsonl.push('\n');
        }
        (jsonl, format!("{:?}", rt.ingest_stats()), format!("{:?}", rt.records()))
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "JSONL traces must match byte-for-byte");
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert!(!a.0.is_empty());
}
