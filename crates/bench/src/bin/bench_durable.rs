//! Durability bench: recovery latency versus journal length, plus the
//! exhaustive crash-point matrix.
//!
//! **Recovery sweep.** A journaled [`ServeRuntime`] runs N protocol
//! days against an in-memory fault store, then recovery (WAL replay +
//! checkpoint reduction + the mandatory oracle audit) is timed
//! repeatedly on the finished log. One row per log length, best of
//! [`REPS`] timings, so the sweep shows how recovery cost scales with
//! history — compaction should keep it near-flat. Each row also gives
//! the median journal append of the run: center commits are written as
//! deltas of O(roster) bytes, so it stays flat as days accumulate.
//!
//! **Crash-point matrix.** The rehearsal run's storage-operation log
//! seeds one scenario per operation: a plain crash at every op, a torn
//! write at every append, a failed-and-dropped flush barrier at every
//! flush, and bit rot ahead of every third op. Every scenario reruns
//! the full schedule with prompt reboots and must close every day with
//! zero oracle violations. The matrix is deterministic — counts, not
//! timings — and failing it fails the bench in both modes.
//!
//! Artifacts:
//!
//! * `BENCH_durable.json` at the repository root — the committed
//!   baseline;
//! * a copy in `target/experiments/` for CI artifact upload.
//!
//! `--gate` compares the fresh run against the committed baseline
//! instead of overwriting it: the process exits nonzero if the largest
//! log's recovery slowed more than [`GATE_FACTOR`]× against the
//! baseline, breached the absolute [`RECOVERY_CEILING_US`], or any
//! matrix scenario misbehaved.

use std::fs;
use std::path::PathBuf;

use enki_agents::prelude::*;
use enki_bench::{experiments_dir, print_table, RunArgs};
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_durable::prelude::{BitRot, FaultPlan, FaultStorage, OpKind, TornWrite};
use enki_serve::prelude::IngestConfig;
use enki_telemetry::{Clock, MonotonicClock, Telemetry};
use serde::{Deserialize, Serialize};

/// Gate tolerance: fail if the largest log's recovery is slower than
/// the committed baseline × this. Replay is microsecond-scale, so the
/// factor is generous to absorb scheduler noise.
const GATE_FACTOR: f64 = 5.0;

/// Absolute ceiling on recovering the largest swept log, microseconds.
const RECOVERY_CEILING_US: f64 = 250_000.0;

/// Recovery timing repetitions; the best run is recorded.
const REPS: usize = 20;

const DAY: Tick = 100;
const HOUSEHOLDS: u32 = 4;

/// One recovery-sweep row.
#[derive(Debug, Serialize, Deserialize)]
struct RecoveryRow {
    /// Protocol days journaled before recovery.
    days: u64,
    /// Settled day records in the recovered state.
    records: u64,
    /// Live WAL segments at the end of the run.
    segments: u64,
    /// Total durable log bytes replayed.
    log_bytes: u64,
    /// Checkpoint records replayed from the log.
    replayed: u64,
    /// WAL compactions during the run.
    compactions: u64,
    /// Median bytes per storage append over the run (center commits,
    /// ingest snapshots and compactions alike).
    median_append_bytes: u64,
    /// Best replay + reduce + audit latency, microseconds.
    recovery_us: f64,
}

/// The crash-point matrix summary (all counts, fully deterministic).
#[derive(Debug, Serialize, Deserialize)]
struct MatrixSummary {
    /// Storage operations in the rehearsal run.
    rehearsal_ops: u64,
    /// Total fault scenarios executed.
    scenarios: u64,
    /// Plain crash-at-op scenarios.
    crashes: u64,
    /// Torn-write scenarios (one per rehearsal append).
    torn_writes: u64,
    /// Failed-flush-barrier scenarios (one per rehearsal flush).
    dropped_flushes: u64,
    /// Bit-rot scenarios.
    bit_rot: u64,
    /// Scenarios that closed every protocol day after recovery.
    all_days_closed: u64,
    /// Oracle violations summed over every scenario (must be 0).
    oracle_violations: u64,
}

/// The `BENCH_durable.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct DurableRecord {
    /// Telemetry schema identifier (shared with the other BENCH files).
    schema: String,
    /// Run id of the generating process.
    run_id: String,
    /// Base RNG seed.
    seed: u64,
    /// Git revision the bench was built from.
    git_rev: String,
    /// Whether this was a `--fast` smoke run.
    fast: bool,
    /// Recovery latency versus journal length.
    recovery: Vec<RecoveryRow>,
    /// Crash-point matrix summary.
    matrix: MatrixSummary,
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        compact_every: 6,
        ..JournalConfig::default()
    }
}

fn journaled_runtime(plan: FaultPlan, seed: u64) -> Option<ServeRuntime> {
    let (journal, _) = Journal::open(FaultStorage::new(plan), journal_config()).ok()?;
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..HOUSEHOLDS).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), seed).with_journal(journal);
    for i in 0..HOUSEHOLDS {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    Some(rt)
}

/// Runs the full schedule with prompt reboots after storage crashes.
/// A crash during boot itself (before any state existed) reboots over
/// an empty disk with the crash spent.
fn run_to_completion(plan: FaultPlan, days: u64, seed: u64) -> ServeRuntime {
    let mut rt = match journaled_runtime(plan.clone(), seed) {
        Some(rt) => rt,
        None => {
            let rebooted = FaultPlan {
                crash_at_op: None,
                ..plan
            };
            journaled_runtime(rebooted, seed).expect("reboot with a spent crash opens")
        }
    };
    for _ in 0..days * DAY {
        rt.run_ticks(1);
        if rt.is_down() {
            rt.recover();
        }
    }
    rt
}

/// Times recovery of the finished runtime's journal: full WAL replay,
/// checkpoint reduction, and the mandatory oracle audit.
fn time_recovery(rt: &mut ServeRuntime, clock: &MonotonicClock) -> (f64, u64) {
    let roster = rt.center().roster().to_vec();
    let config = EnkiConfig::default();
    let journal = rt.journal_mut().expect("journal attached");
    let mut best_us = f64::INFINITY;
    let mut replayed = 0;
    for _ in 0..REPS {
        let started = clock.now();
        let state = journal.recover().expect("faultless journal recovers");
        state
            .audit(&roster, &config)
            .expect("faultless journal passes the audit");
        let elapsed = clock.now().saturating_sub(started).as_secs_f64() * 1e6;
        best_us = best_us.min(elapsed);
        replayed = state.replayed;
    }
    (best_us, replayed)
}

fn recovery_row(days: u64, seed: u64, clock: &MonotonicClock) -> RecoveryRow {
    let mut rt = run_to_completion(FaultPlan::none(), days, seed);
    assert_eq!(rt.records().len() as u64, days, "sweep run closed its days");
    let (recovery_us, replayed) = time_recovery(&mut rt, clock);
    let journal = rt.journal().expect("journal attached");
    let stats = journal.stats();
    let storage = journal.fault_storage().expect("fault storage backend");
    let log_bytes: u64 = storage.durable_image().values().map(|b| b.len() as u64).sum();
    let mut appends: Vec<u64> = storage
        .op_log()
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Append(bytes) => Some(bytes as u64),
            _ => None,
        })
        .collect();
    appends.sort_unstable();
    RecoveryRow {
        days,
        records: rt.records().len() as u64,
        segments: journal.live_segments(),
        log_bytes,
        replayed,
        compactions: stats.compactions,
        median_append_bytes: appends.get(appends.len() / 2).copied().unwrap_or(0),
        recovery_us,
    }
}

/// Builds and runs the exhaustive crash-point matrix off a rehearsal
/// run's storage-operation log.
fn crash_matrix(days: u64, seed: u64) -> MatrixSummary {
    let rehearsal = run_to_completion(FaultPlan::none(), days, seed);
    let ops: Vec<(u64, OpKind)> = rehearsal
        .journal()
        .expect("journal attached")
        .fault_storage()
        .expect("fault storage backend")
        .op_log()
        .iter()
        .map(|r| (r.op, r.kind.clone()))
        .collect();

    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut summary = MatrixSummary {
        rehearsal_ops: ops.len() as u64,
        scenarios: 0,
        crashes: 0,
        torn_writes: 0,
        dropped_flushes: 0,
        bit_rot: 0,
        all_days_closed: 0,
        oracle_violations: 0,
    };
    for (op, kind) in &ops {
        let op = *op;
        summary.crashes += 1;
        plans.push(FaultPlan {
            crash_at_op: Some(op),
            ..FaultPlan::none()
        });
        if matches!(kind, OpKind::Append(_)) {
            summary.torn_writes += 1;
            plans.push(FaultPlan {
                torn_write: Some(TornWrite { op, keep: 3 }),
                ..FaultPlan::none()
            });
        }
        if matches!(kind, OpKind::Flush) {
            summary.dropped_flushes += 1;
            plans.push(FaultPlan {
                dropped_flushes: vec![op],
                crash_at_op: Some(op + 1),
                ..FaultPlan::none()
            });
        }
        if op.is_multiple_of(3) {
            summary.bit_rot += 1;
            plans.push(FaultPlan {
                bit_rot: vec![BitRot {
                    op,
                    byte: op.wrapping_mul(7919),
                    bit: (op % 8) as u8,
                }],
                crash_at_op: Some(op + 2),
                ..FaultPlan::none()
            });
        }
    }
    summary.scenarios = plans.len() as u64;

    for plan in plans {
        let rt = run_to_completion(plan, days, seed);
        let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        if recorded == (0..days).collect::<Vec<u64>>() {
            summary.all_days_closed += 1;
        }
        summary.oracle_violations += check_invariant_parts(
            rt.records(),
            rt.center().roster(),
            &EnkiConfig::default(),
            rt.trace(),
        )
        .len() as u64;
    }
    summary
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let gate = std::env::args().skip(1).any(|a| a == "--gate");
    let telemetry = Telemetry::new("bench_durable", args.seed);
    let clock = MonotonicClock::new();

    let day_counts: &[u64] = if args.fast {
        &[2, 5, 10]
    } else {
        &[2, 5, 10, 20, 40]
    };
    let recovery: Vec<RecoveryRow> = day_counts
        .iter()
        .map(|&days| recovery_row(days, args.seed, &clock))
        .collect();

    println!("Recovery latency vs journal length — compaction every 6 commits\n");
    let table: Vec<Vec<String>> = recovery
        .iter()
        .map(|r| {
            vec![
                r.days.to_string(),
                r.records.to_string(),
                r.segments.to_string(),
                r.log_bytes.to_string(),
                r.replayed.to_string(),
                r.compactions.to_string(),
                r.median_append_bytes.to_string(),
                format!("{:.0}", r.recovery_us),
            ]
        })
        .collect();
    print_table(
        &["days", "records", "segs", "bytes", "replayed", "compact", "append p50", "us"],
        &table,
    );

    let matrix_days = 2;
    let matrix = crash_matrix(matrix_days, args.seed);
    println!(
        "\nCrash-point matrix: {} scenarios over {} rehearsal ops — \
         {} crashes, {} torn writes, {} dropped flushes, {} bit rot",
        matrix.scenarios,
        matrix.rehearsal_ops,
        matrix.crashes,
        matrix.torn_writes,
        matrix.dropped_flushes,
        matrix.bit_rot
    );
    println!(
        "  all days closed: {}/{}; oracle violations: {}",
        matrix.all_days_closed, matrix.scenarios, matrix.oracle_violations
    );

    let record = {
        let meta = telemetry.meta();
        DurableRecord {
            schema: enki_telemetry::SCHEMA.to_string(),
            run_id: meta.run_id.clone(),
            seed: args.seed,
            git_rev: meta.git_rev.clone(),
            fast: args.fast,
            recovery,
            matrix,
        }
    };

    // The matrix is a correctness gate in every mode: a single scenario
    // that fails to close its days or trips the oracle fails the bench.
    if record.matrix.oracle_violations != 0 {
        return Err(format!(
            "crash matrix: {} oracle violations across {} scenarios",
            record.matrix.oracle_violations, record.matrix.scenarios
        )
        .into());
    }
    if record.matrix.all_days_closed != record.matrix.scenarios {
        return Err(format!(
            "crash matrix: only {}/{} scenarios closed every day",
            record.matrix.all_days_closed, record.matrix.scenarios
        )
        .into());
    }

    let json = serde_json::to_string_pretty(&record)?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("BENCH_durable.json"), &json)?;

    let largest = record.recovery.last().expect("sweep is non-empty");
    if largest.recovery_us > RECOVERY_CEILING_US {
        return Err(format!(
            "recovery ceiling: {:.0} µs for the {}-day log is above the \
             {RECOVERY_CEILING_US:.0} µs ceiling",
            largest.recovery_us, largest.days
        )
        .into());
    }

    let baseline_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_durable.json");
    if gate {
        // Regression gate: never overwrite the committed baseline.
        let committed: DurableRecord = serde_json::from_str(&fs::read_to_string(&baseline_path)?)?;
        let base_row = committed
            .recovery
            .iter()
            .find(|r| r.days == largest.days)
            .unwrap_or(committed.recovery.last().expect("baseline sweep non-empty"));
        let base = base_row.recovery_us;
        let fresh = largest.recovery_us;
        eprintln!(
            "gate: fresh {fresh:.0} µs vs committed {base:.0} µs for {} days \
             (limit {:.0} µs)",
            base_row.days,
            base * GATE_FACTOR
        );
        if fresh > base * GATE_FACTOR {
            return Err(format!(
                "perf regression: {fresh:.0} µs recovery is more than the committed \
                 {base:.0} µs × {GATE_FACTOR}"
            )
            .into());
        }
    } else {
        fs::write(&baseline_path, &json)?;
        eprintln!("wrote {}", baseline_path.display());
    }
    Ok(())
}
