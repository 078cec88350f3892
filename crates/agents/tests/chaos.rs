//! Chaos harness: sweeps seeded fault schedules — drops, duplication,
//! reordering, partitions, slow links, outages, center crash/recovery —
//! and asserts
//! the protocol's safety invariants (via the [`enki_agents::oracle`])
//! and liveness (every day closes with a record) under each one.
//!
//! Every schedule is deterministic: a failure here reproduces exactly
//! from the printed schedule index and seed.
//!
//! The center runs with the **parallel solver pipeline enabled** (the
//! racing exact/local-search portfolio on the work-stealing pool), so
//! every schedule also asserts that real solver threads never leak
//! nondeterminism into settled records, checkpoints, or telemetry —
//! including the byte-identical trace replay below.

use std::time::Duration;

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_sim::behavior::ReportStrategy;
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::{ProfileConfig, UsageProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DAY: Tick = 100;

fn build(
    n: u32,
    network: NetworkConfig,
    faults: FaultPlan,
    crashes: Vec<CrashSchedule>,
    seed: u64,
) -> Runtime {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProfileConfig::default();
    let households: Vec<HouseholdAgent> = (0..n)
        .map(|i| {
            HouseholdAgent::new(
                HouseholdId::new(i),
                UsageProfile::generate(&mut rng, &config),
                TruthSource::Wide,
                ReportStrategy::TruthfulWide,
                ReportSource::Strategy,
            )
        })
        .collect();
    // Two threads puts every allocation through the racing portfolio:
    // speculative branch-and-bound and local search on real OS threads,
    // with a node-only budget so the result is schedule-independent.
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..n).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    )
    .with_pipeline(PipelineConfig::default());
    Runtime::new(
        SimNetwork::new(network, seed).with_faults(faults),
        center,
        households,
    )
    .with_crashes(crashes)
}

/// One adversarial schedule: a network configuration, a fault plan, and
/// a crash plan, all seeded.
struct Schedule {
    name: &'static str,
    network: NetworkConfig,
    faults: FaultPlan,
    crashes: Vec<CrashSchedule>,
}

fn partition(h: u32, from: Tick, heals_at: Tick) -> Partition {
    Partition {
        household: HouseholdId::new(h),
        from,
        heals_at,
    }
}

fn slow(h: u32, from: Tick, heals_at: Tick, extra_jitter: Tick) -> SlowLink {
    SlowLink {
        household: HouseholdId::new(h),
        from,
        heals_at,
        extra_jitter,
    }
}

/// The sweep: ≥20 distinct drop/duplication/reorder/partition/outage/
/// crash combinations.
fn schedules() -> Vec<Schedule> {
    let lossy = |p| NetworkConfig::lossy(p);
    let dup = |p| FaultPlan {
        duplicate_probability: p,
        ..FaultPlan::default()
    };
    let reorder = |p, extra| FaultPlan {
        reorder_probability: p,
        reorder_extra: extra,
        ..FaultPlan::default()
    };
    vec![
        Schedule {
            name: "reliable baseline",
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            crashes: vec![],
        },
        Schedule {
            name: "light loss",
            network: lossy(0.1),
            faults: FaultPlan::default(),
            crashes: vec![],
        },
        Schedule {
            name: "heavy loss",
            network: lossy(0.4),
            faults: FaultPlan::default(),
            crashes: vec![],
        },
        Schedule {
            name: "duplication only",
            network: NetworkConfig::default(),
            faults: dup(0.5),
            crashes: vec![],
        },
        Schedule {
            name: "aggressive duplication",
            network: NetworkConfig::default(),
            faults: dup(0.9),
            crashes: vec![],
        },
        Schedule {
            name: "reordering only",
            network: NetworkConfig::default(),
            faults: reorder(0.5, 7),
            crashes: vec![],
        },
        Schedule {
            name: "loss + duplication",
            network: lossy(0.25),
            faults: dup(0.4),
            crashes: vec![],
        },
        Schedule {
            name: "loss + reordering",
            network: lossy(0.2),
            faults: reorder(0.4, 5),
            crashes: vec![],
        },
        Schedule {
            name: "duplication + reordering",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                duplicate_probability: 0.4,
                reorder_probability: 0.4,
                reorder_extra: 6,
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "report-phase partition",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                partitions: vec![partition(1, 0, 45)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "meter-phase partition",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                partitions: vec![partition(2, 30, 75)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "two simultaneous partitions",
            network: lossy(0.1),
            faults: FaultPlan {
                partitions: vec![partition(0, 0, 50), partition(3, 25, 80)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "multi-day partition",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                partitions: vec![partition(4, 50, 250)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "slow link across the report deadline",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                slow_links: vec![slow(1, 0, 45, 8)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "slow links + loss",
            network: lossy(0.15),
            faults: FaultPlan {
                slow_links: vec![slow(0, 0, 120, 6), slow(3, 150, 260, 10)],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "every link slow in the meter phase",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                slow_links: (0..6).map(|h| slow(h, 60, 95, 5)).collect(),
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "burst outage in report phase",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                outages: vec![Outage { from: 5, heals_at: 20 }],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "burst outage in meter phase",
            network: NetworkConfig::default(),
            faults: FaultPlan {
                outages: vec![Outage {
                    from: 35,
                    heals_at: 55,
                }],
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "outage every day",
            network: lossy(0.1),
            faults: FaultPlan {
                outages: (0..3)
                    .map(|d| Outage {
                        from: d * DAY + 10,
                        heals_at: d * DAY + 22,
                    })
                    .collect(),
                ..FaultPlan::default()
            },
            crashes: vec![],
        },
        Schedule {
            name: "crash in report phase",
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            crashes: vec![CrashSchedule {
                crash_at: 10,
                recover_at: 18,
            }],
        },
        Schedule {
            name: "crash between allocation and settlement",
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            crashes: vec![CrashSchedule {
                crash_at: 40,
                recover_at: 48,
            }],
        },
        Schedule {
            name: "crash across the settlement boundary",
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            crashes: vec![CrashSchedule {
                crash_at: 65,
                recover_at: 95,
            }],
        },
        Schedule {
            name: "crash every day",
            network: NetworkConfig::default(),
            faults: FaultPlan::default(),
            crashes: (0..3)
                .map(|d| CrashSchedule {
                    crash_at: d * DAY + 35,
                    recover_at: d * DAY + 45,
                })
                .collect(),
        },
        Schedule {
            name: "crash + loss",
            network: lossy(0.2),
            faults: FaultPlan::default(),
            crashes: vec![CrashSchedule {
                crash_at: 40,
                recover_at: 50,
            }],
        },
        Schedule {
            name: "crash + duplication",
            network: NetworkConfig::default(),
            faults: dup(0.6),
            crashes: vec![CrashSchedule {
                crash_at: 40,
                recover_at: 50,
            }],
        },
        Schedule {
            name: "kitchen sink",
            network: lossy(0.15),
            faults: FaultPlan {
                duplicate_probability: 0.3,
                reorder_probability: 0.3,
                reorder_extra: 4,
                partitions: vec![partition(1, 20, 60)],
                slow_links: vec![slow(2, 130, 190, 6)],
                outages: vec![Outage {
                    from: 110,
                    heals_at: 125,
                }],
            },
            crashes: vec![CrashSchedule {
                crash_at: 240,
                recover_at: 252,
            }],
        },
    ]
}

/// Safety and liveness under every schedule: no invariant violations,
/// and every day closes with exactly one record.
#[test]
fn every_fault_schedule_preserves_safety_and_liveness() {
    let days = 3;
    let all = schedules();
    assert!(all.len() >= 20, "the sweep must cover at least 20 schedules");
    for (i, schedule) in all.into_iter().enumerate() {
        for seed in [11, 42] {
            let mut rt = build(
                6,
                schedule.network,
                schedule.faults.clone(),
                schedule.crashes.clone(),
                seed,
            );
            rt.run_days(days);
            let violations = check_invariants(&rt);
            assert!(
                violations.is_empty(),
                "schedule #{i} ({}) seed {seed}: violations {violations:?}",
                schedule.name
            );
            // Liveness: every day closed with exactly one record, in order.
            let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
            assert_eq!(
                recorded,
                (0..days).collect::<Vec<u64>>(),
                "schedule #{i} ({}) seed {seed}: days did not all close",
                schedule.name
            );
            // Accounting: every sent message is delivered, dropped, or
            // still queued — and the network never applies more faults
            // than the plan scheduled, nor loses messages to a fault
            // kind it never hit.
            let stats = rt.network_stats();
            assert!(
                stats.conserves(rt.network_in_flight()),
                "schedule #{i} ({}) seed {seed}: message conservation broken: {stats:?}",
                schedule.name
            );
            assert!(
                stats.faults_consistent(),
                "schedule #{i} ({}) seed {seed}: scheduled/applied fault counts inconsistent: {stats:?}",
                schedule.name
            );
        }
    }
}

/// Telemetry replay (acceptance criterion): a chaos run exports a
/// schema-valid JSONL trace that is *byte-identical* across two runs
/// with the same seed under the virtual clock — the span tree, every
/// timestamp, and every metric are a pure function of the seed.
#[test]
fn chaos_telemetry_trace_replays_identically_under_the_virtual_clock() {
    use enki_telemetry::{to_jsonl, validate_jsonl, Telemetry, VirtualClock};

    let kitchen_sink = || {
        schedules()
            .into_iter()
            .find(|s| s.name == "kitchen sink")
            .expect("the sweep has a kitchen-sink schedule")
    };
    let run = |seed: u64| -> String {
        let schedule = kitchen_sink();
        let clock = VirtualClock::new();
        let telemetry = Telemetry::with_virtual_clock("chaos", seed, std::sync::Arc::clone(&clock));
        let mut rt = build(6, schedule.network, schedule.faults, schedule.crashes, seed)
            .with_telemetry(&telemetry)
            .with_virtual_clock(clock);
        rt.run_days(3);
        let violations = check_invariants_traced(&rt, Some(&telemetry.recorder()));
        assert!(violations.is_empty(), "violations: {violations:?}");
        drop(rt); // flush the runtime's and the center's recorders
        to_jsonl(&telemetry)
    };

    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "same seed, same fault schedule ⇒ identical trace bytes");
    assert_ne!(a, run(43), "a different seed perturbs the trace");

    let summary = validate_jsonl(&a).expect("chaos trace passes schema self-validation");
    assert!(summary.spans >= 4, "3 day spans + oracle.check expected");
    assert!(summary.counters >= 1);
}

/// Crash-equivalence (acceptance criterion): on a reliable network, a
/// crash after allocation but before settlement recovers from the
/// checkpoint and produces the *identical* `DayRecord` set as an
/// uncrashed run with the same seed.
#[test]
fn crash_recovery_is_equivalent_to_no_crash() {
    let run = |crashes: Vec<CrashSchedule>| {
        let mut rt = build(
            6,
            NetworkConfig::default(),
            FaultPlan::default(),
            crashes,
            13,
        );
        rt.run_days(3);
        rt.records().to_vec()
    };
    let baseline = run(vec![]);
    let crashed = run(vec![CrashSchedule {
        crash_at: 40,
        recover_at: 47,
    }]);
    assert_eq!(
        baseline, crashed,
        "a mid-day crash with recovery must not change any settled record"
    );
}

/// Duplication-idempotence (acceptance criterion): with duplication on
/// and drops off, every household's bill stream is unchanged from the
/// reliable baseline — replayed envelopes never double-bill.
#[test]
fn duplication_never_changes_bills() {
    let run = |faults: FaultPlan| {
        let mut rt = build(6, NetworkConfig::default(), faults, vec![], 17);
        rt.run_days(3);
        let bills: Vec<(HouseholdId, Vec<(u64, f64)>)> = (0..6)
            .map(|i| {
                let id = HouseholdId::new(i);
                (id, rt.household(id).unwrap().bills().to_vec())
            })
            .collect();
        (rt.records().to_vec(), bills)
    };
    let (baseline_records, baseline_bills) = run(FaultPlan::default());
    let (dup_records, dup_bills) = run(FaultPlan {
        duplicate_probability: 0.8,
        ..FaultPlan::default()
    });
    assert_eq!(baseline_records, dup_records);
    assert_eq!(baseline_bills, dup_bills);
    for (_, bills) in &dup_bills {
        assert_eq!(bills.len(), 3, "exactly one bill per day per household");
    }
}

/// The threaded deployment degrades the same way: a dead ECC process is
/// excluded, everyone else settles, and the run stays budget balanced.
#[test]
fn threaded_deployment_survives_a_dead_household() {
    let mut rng = StdRng::seed_from_u64(19);
    let config = ProfileConfig::default();
    let households: Vec<ThreadedHousehold> = (0..5)
        .map(|i| ThreadedHousehold {
            agent: HouseholdAgent::new(
                HouseholdId::new(i),
                UsageProfile::generate(&mut rng, &config),
                TruthSource::Wide,
                ReportStrategy::TruthfulWide,
                ReportSource::Strategy,
            ),
            fault: if i == 3 {
                ThreadedFault::Silent
            } else {
                ThreadedFault::None
            },
        })
        .collect();
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..5).map(HouseholdId::new).collect(),
        DayPlan::default(),
        19,
    );
    let (records, _) =
        run_threaded_days(center, households, 1, Duration::from_secs(5), None).unwrap();
    let record = &records[0];
    assert_eq!(record.missing_reports, vec![HouseholdId::new(3)]);
    let settlement = record.settlement.as_ref().expect("the live households settle");
    assert_eq!(settlement.entries.len(), 4);
    assert!(settlement.center_utility >= -1e-9);
}
