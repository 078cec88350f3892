//! Serve-layer ingestion bench: closed-loop throughput through the wire
//! codec + bounded queue, and a deterministic offered-load sweep of the
//! shedding policy.
//!
//! **Closed loop.** Real producer threads (via the serve crate's
//! [`edge`](enki_serve::edge) mailbox — the one sanctioned thread
//! boundary) flood encoded frames at the ingest front end while the
//! main loop offers and drains as fast as downstream capacity allows —
//! offering is gated on queue room, which is backpressure applied at
//! the caller. The bench measures sustained admitted reports per
//! second and the wall-clock admission latency distribution, and fails
//! if throughput drops below the 100 000 reports/s floor.
//!
//! **Offered-load sweep.** A single-threaded tick simulation drives the
//! front end at {0.5, 1, 2, 4, 8}× its drain capacity with a 16-tick
//! admission deadline and mixed replaceable/fresh work, recording
//! per-class shed rates and p50/p99 admission latency in ticks. The
//! sweep is seeded and deterministic: its numbers are a pure function
//! of the configuration.
//!
//! Artifacts:
//!
//! * `BENCH_serve.json` at the repository root — the committed baseline;
//! * a copy in `target/experiments/` for CI artifact upload.
//!
//! `--gate` compares the fresh run against the committed baseline
//! instead of overwriting it: the process exits nonzero if throughput
//! fell below the floor or regressed more than 25% against the
//! baseline.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use enki_bench::{experiments_dir, print_table, RunArgs};
use enki_core::household::HouseholdId;
use enki_core::validation::{RawPreference, RawReport};
use enki_serve::backoff::Backoff;
use enki_serve::codec::{encode_frame, Batch};
use enki_serve::edge::{spawn_producers, EdgeMailbox};
use enki_serve::ingest::{IngestConfig, IngestFrontEnd};
use enki_serve::shed::ShedCost;
use enki_serve::Tick;
use enki_telemetry::{Clock, MonotonicClock, Telemetry};
use serde::{Deserialize, Serialize};

/// Gate tolerance: fail if fresh throughput is below baseline ÷ this.
const GATE_FACTOR: f64 = 1.25;

/// Hard floor on sustained closed-loop throughput, reports per second.
const THROUGHPUT_FLOOR: f64 = 100_000.0;

/// Closed-loop repetitions; the best run is recorded.
const REPS: usize = 5;

/// Closed-loop measurement.
#[derive(Debug, Serialize, Deserialize)]
struct ClosedLoop {
    /// Producer threads flooding the edge mailbox.
    producers: usize,
    /// Frames each producer posts.
    frames_per_producer: usize,
    /// Reports per frame.
    reports_per_frame: usize,
    /// Total reports offered (= admitted; the loop is lossless).
    total_reports: u64,
    /// Wall time from first post to last admission, milliseconds.
    wall_ms: f64,
    /// Sustained admitted reports per second.
    reports_per_sec: f64,
    /// Median wall-clock admission latency, microseconds.
    p50_us: f64,
    /// 99th-percentile wall-clock admission latency, microseconds.
    p99_us: f64,
}

/// One offered-load sweep row.
#[derive(Debug, Serialize, Deserialize)]
struct SweepRow {
    /// Offered load as a multiple of drain capacity.
    factor: f64,
    /// Reports offered across the run.
    offered: u64,
    /// Reports admitted toward the consumer.
    admitted: u64,
    /// Reports deferred to producer retries (open loop: never resent).
    deferred: u64,
    /// Reports shed with a cause, all classes.
    shed_total: u64,
    /// Early sheds: projected queue wait past the admission deadline.
    shed_deadline_risk: u64,
    /// Sheds of already-expired reports (door or drain).
    shed_stale: u64,
    /// Evictions of cheaper queued work by fresher work.
    shed_evicted: u64,
    /// shed_total / offered.
    shed_rate: f64,
    /// admitted / offered.
    admit_rate: f64,
    /// Median admission latency of admitted reports, ticks.
    p50_ticks: u64,
    /// 99th-percentile admission latency of admitted reports, ticks.
    p99_ticks: u64,
}

/// The `BENCH_serve.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct ServeRecord {
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
    /// Closed-loop throughput measurement.
    closed_loop: ClosedLoop,
    /// Offered-load sweep, one row per load factor.
    sweep: Vec<SweepRow>,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[at.min(sorted.len() - 1)]
}

fn percentile_ticks(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let at = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[at.min(sorted.len() - 1)]
}

/// Pre-encodes one producer's frame schedule: every report carries a
/// far-future deadline so the closed loop is lossless by construction.
fn producer_frames(
    producer: usize,
    frames: usize,
    reports_per_frame: usize,
) -> Vec<Vec<u8>> {
    (0..frames)
        .map(|f| {
            let batch = Batch {
                day: 0,
                deadline: Tick::MAX,
                reports: (0..reports_per_frame)
                    .map(|r| {
                        let h = (producer * frames + f + r) as u32;
                        RawReport::new(
                            HouseholdId::new(h),
                            RawPreference::new(18.0, 22.0, 2.0),
                        )
                    })
                    .collect(),
            };
            encode_frame(&batch).expect("bench frames are under the cap")
        })
        .collect()
}

/// Closed loop: producer threads post to the edge mailbox; the main
/// loop offers frames whenever the queue has room (caller-side
/// backpressure) and drains every iteration.
fn closed_loop(args: &RunArgs, clock: &MonotonicClock) -> ClosedLoop {
    // The same workload in fast and full mode: it only takes tens of
    // milliseconds, and the gate needs fresh `--fast` runs to be
    // directly comparable against the committed full-run baseline.
    let (producers, frames_per_producer, reports_per_frame) = (8usize, 250usize, 128usize);
    let total_reports = (producers * frames_per_producer * reports_per_frame) as u64;
    let config = IngestConfig {
        queue_capacity: 16 * 1024,
        drain_per_tick: 8 * 1024,
        backoff: Backoff::default(),
    };
    let mut front = IngestFrontEnd::new(config, args.seed);

    let mailbox = EdgeMailbox::new();
    let schedules: Vec<Vec<Vec<u8>>> = (0..producers)
        .map(|p| producer_frames(p, frames_per_producer, reports_per_frame))
        .collect();

    let started = clock.now();
    let handles = spawn_producers(&mailbox, schedules);
    let mut pending: Vec<Vec<u8>> = Vec::new();
    let mut next_pending = 0usize;
    let mut offered_at: Vec<Duration> = Vec::new(); // wall time per tick
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut now: Tick = 0;
    let mut cost = |_: HouseholdId| ShedCost::Fresh;
    loop {
        pending.extend(mailbox.drain());
        let wall = clock.now().saturating_sub(started);
        offered_at.push(wall);
        while next_pending < pending.len()
            && front.queue_depth() + reports_per_frame <= config.queue_capacity
        {
            let _ = front.offer_bytes(now, &pending[next_pending], &mut cost);
            next_pending += 1;
        }
        let drained = front.drain(now);
        if !drained.admitted.is_empty() {
            let drain_wall = clock.now().saturating_sub(started);
            for item in &drained.admitted {
                let enqueue_wall = offered_at[item.enqueued_at as usize];
                latencies_us.push(
                    drain_wall.saturating_sub(enqueue_wall).as_secs_f64() * 1e6,
                );
            }
        }
        now += 1;
        let producers_done = handles.iter().all(std::thread::JoinHandle::is_finished);
        if producers_done
            && mailbox.is_empty()
            && next_pending == pending.len()
            && front.queue_depth() == 0
        {
            break;
        }
    }
    let wall = clock.now().saturating_sub(started);
    for handle in handles {
        let _ = handle.join();
    }

    let stats = front.stats();
    assert_eq!(
        stats.admitted, total_reports,
        "closed loop must be lossless: {stats:?}"
    );
    assert_eq!(stats.shed.total(), 0, "nothing sheds in the closed loop");

    latencies_us.sort_by(f64::total_cmp);
    let wall_ms = wall.as_secs_f64() * 1e3;
    ClosedLoop {
        producers,
        frames_per_producer,
        reports_per_frame,
        total_reports,
        wall_ms,
        reports_per_sec: if wall_ms > 0.0 {
            total_reports as f64 / (wall_ms / 1e3)
        } else {
            f64::INFINITY
        },
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
    }
}

/// One deterministic offered-load run at `factor`× drain capacity.
fn sweep_row(args: &RunArgs, factor: f64) -> SweepRow {
    const DRAIN: usize = 64;
    const FRAME_REPORTS: usize = 32;
    const DEADLINE_TICKS: Tick = 16;
    let ticks: Tick = if args.fast { 400 } else { 2000 };

    let config = IngestConfig {
        queue_capacity: 1024,
        drain_per_tick: DRAIN,
        backoff: Backoff::default(),
    };
    let mut front = IngestFrontEnd::new(config, args.seed ^ factor.to_bits());
    let per_tick = (factor * DRAIN as f64).round() as usize;
    let mut offered = 0u64;
    let mut next_household = 0u32;
    let mut latencies: Vec<u64> = Vec::new();
    // Households with even ids have a standing profile behind them
    // (replaceable); odd ids are fresh — so eviction and fallback paths
    // both run under overload.
    let mut cost =
        |h: HouseholdId| {
            if h.index().is_multiple_of(2) {
                ShedCost::Replaceable
            } else {
                ShedCost::Fresh
            }
        };
    let drain_into = |front: &mut IngestFrontEnd, now: Tick, out: &mut Vec<u64>| {
        for item in front.drain(now).admitted {
            out.push(now.saturating_sub(item.enqueued_at));
        }
    };
    for now in 0..ticks {
        let mut remaining = per_tick;
        while remaining > 0 {
            let count = remaining.min(FRAME_REPORTS);
            let batch = Batch {
                day: 0,
                deadline: now + DEADLINE_TICKS,
                reports: (0..count)
                    .map(|_| {
                        let h = next_household;
                        next_household = next_household.wrapping_add(1);
                        RawReport::new(
                            HouseholdId::new(h),
                            RawPreference::new(18.0, 22.0, 2.0),
                        )
                    })
                    .collect(),
            };
            offered += count as u64;
            let frame = encode_frame(&batch).expect("sweep frames are under the cap");
            let _ = front.offer_bytes(now, &frame, &mut cost);
            remaining -= count;
        }
        drain_into(&mut front, now, &mut latencies);
    }
    // Let the tail drain (or expire) so every offered report is settled
    // into a bucket before the row is read.
    let mut now = ticks;
    while front.queue_depth() > 0 {
        drain_into(&mut front, now, &mut latencies);
        now += 1;
    }

    let stats = front.stats();
    latencies.sort_unstable();
    SweepRow {
        factor,
        offered,
        admitted: stats.admitted,
        deferred: stats.deferred,
        shed_total: stats.shed.total(),
        shed_deadline_risk: stats.shed.deadline_risk,
        shed_stale: stats.shed.stale,
        shed_evicted: stats.shed.evicted,
        shed_rate: stats.shed.total() as f64 / offered as f64,
        admit_rate: stats.admitted as f64 / offered as f64,
        p50_ticks: percentile_ticks(&latencies, 0.50),
        p99_ticks: percentile_ticks(&latencies, 0.99),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let gate = std::env::args().skip(1).any(|a| a == "--gate");
    let telemetry = Telemetry::new("bench_serve", args.seed);
    let clock = MonotonicClock::new();

    // Best of REPS runs, like the other benches: the closed loop is
    // wall-clock timed across real threads, so a single run can eat a
    // scheduler hiccup that has nothing to do with the code under test.
    let closed = (0..REPS)
        .map(|_| closed_loop(&args, &clock))
        .max_by(|a, b| a.reports_per_sec.total_cmp(&b.reports_per_sec))
        .expect("REPS >= 1 always produces a run");
    println!(
        "Closed loop: {} reports in {:.1} ms — {:.0} reports/s (p50 {:.0} µs, p99 {:.0} µs)\n",
        closed.total_reports, closed.wall_ms, closed.reports_per_sec, closed.p50_us, closed.p99_us
    );

    let sweep: Vec<SweepRow> = [0.5, 1.0, 2.0, 4.0, 8.0]
        .iter()
        .map(|&factor| sweep_row(&args, factor))
        .collect();

    println!("Offered-load sweep — queue 1024, drain 64/tick, 16-tick deadline\n");
    let table: Vec<Vec<String>> = sweep
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.factor),
                r.offered.to_string(),
                format!("{:.3}", r.admit_rate),
                format!("{:.3}", r.shed_rate),
                r.shed_deadline_risk.to_string(),
                r.shed_stale.to_string(),
                r.shed_evicted.to_string(),
                r.deferred.to_string(),
                r.p50_ticks.to_string(),
                r.p99_ticks.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "load", "offered", "admit", "shed", "risk", "stale", "evict", "defer", "p50",
            "p99",
        ],
        &table,
    );

    let meta = telemetry.meta();
    let record = ServeRecord {
        schema: enki_telemetry::SCHEMA.to_string(),
        run_id: meta.run_id.clone(),
        seed: args.seed,
        git_rev: meta.git_rev.clone(),
        fast: args.fast,
        closed_loop: closed,
        sweep,
    };
    let json = serde_json::to_string_pretty(&record)?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("BENCH_serve.json"), &json)?;

    if record.closed_loop.reports_per_sec < THROUGHPUT_FLOOR {
        return Err(format!(
            "throughput floor: sustained {:.0} reports/s is below the {THROUGHPUT_FLOOR:.0} floor",
            record.closed_loop.reports_per_sec
        )
        .into());
    }

    let baseline_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    if gate {
        // Regression gate: never overwrite the committed baseline.
        let committed: ServeRecord =
            serde_json::from_str(&fs::read_to_string(&baseline_path)?)?;
        let base = committed.closed_loop.reports_per_sec;
        let fresh = record.closed_loop.reports_per_sec;
        eprintln!(
            "gate: fresh {fresh:.0} reports/s vs committed {base:.0} (limit {:.0})",
            base / GATE_FACTOR
        );
        if fresh < base / GATE_FACTOR {
            return Err(format!(
                "perf regression: {fresh:.0} reports/s is less than the committed \
                 {base:.0} ÷ {GATE_FACTOR}"
            )
            .into());
        }
    } else {
        fs::write(&baseline_path, &json)?;
        eprintln!("wrote {}", baseline_path.display());
    }
    Ok(())
}
