//! Machine-readable allocation bench with full telemetry.
//!
//! Runs the §VI-A social-welfare experiment at N ∈ {16, 64, 256, 1024}
//! households (N ∈ {8, 16} under `--fast`) with an attached telemetry
//! sink — once on the sequential ladder and once on the racing parallel
//! pipeline — then:
//!
//! * writes `BENCH_allocation.json` at the repository root — one record
//!   per N with wall time, thread budget, parallel speedup, the
//!   degradation-ladder rung reached, and the peak-to-average ratio of
//!   both schedulers;
//! * writes the full JSONL telemetry trace to
//!   `target/experiments/bench_telemetry.jsonl`;
//! * self-validates the trace against the `enki-telemetry/1` schema and
//!   exits nonzero if it fails — CI treats that as a broken build.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use enki_bench::{experiments_dir, print_table, speedup, RunArgs};
use enki_sim::prelude::{run_social_welfare_with, SocialWelfareConfig};
use enki_telemetry::{to_jsonl, validate_jsonl, Clock, MonotonicClock, Telemetry};
use serde::Serialize;

/// Rung keys from best to most degraded, for "worst rung reached".
const RUNG_ORDER: &[&str] = &["exact", "local_search", "greedy", "as_reported"];

/// One `BENCH_allocation.json` record: the bench outcome for one N.
#[derive(Debug, Serialize)]
struct BenchRow {
    /// Number of households.
    n: usize,
    /// Days simulated.
    days: usize,
    /// Wall-clock time for the whole sweep at this N, milliseconds
    /// (racing pipeline at [`threads`](Self::threads) threads).
    wall_ms: f64,
    /// Thread budget of the racing pipeline run this row reports.
    threads: usize,
    /// Sequential wall time over parallel wall time at this N
    /// (`wall_ms(threads=1) / wall_ms`). Outcomes are bit-identical at
    /// every thread count, so this isolates scheduling, not quality.
    /// `null` when either wall is under [`enki_bench::SPEEDUP_WALL_FLOOR_MS`].
    speedup: Option<f64>,
    /// Most degraded ladder rung any day ended on.
    rung: String,
    /// Days per rung, as `(rung key, days)` pairs.
    rungs: Vec<(String, usize)>,
    /// Mean peak-to-average ratio of Enki's greedy allocation.
    enki_par: f64,
    /// Mean peak-to-average ratio of the Optimal column.
    optimal_par: f64,
    /// Mean Optimal scheduling time per day, milliseconds.
    optimal_time_ms: f64,
}

/// The `BENCH_allocation.json` document.
#[derive(Debug, Serialize)]
struct BenchRecord {
    /// Telemetry schema the companion JSONL trace conforms to.
    schema: String,
    /// Run id shared with the JSONL trace header.
    run_id: String,
    /// Base RNG seed.
    seed: u64,
    /// Git revision the bench was built from.
    git_rev: String,
    /// Whether this was a `--fast` smoke run.
    fast: bool,
    /// One record per population size.
    rows: Vec<BenchRow>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let (populations, days, limit, threads) = if args.fast {
        (vec![8usize, 16], 2usize, Duration::from_millis(100), 2usize)
    } else {
        (vec![16usize, 64, 256, 1024], 3usize, Duration::from_secs(1), 4usize)
    };

    let telemetry = Telemetry::new("bench_allocation", args.seed);
    let mut rows = Vec::with_capacity(populations.len());
    for &n in &populations {
        // One sweep on the sequential ladder, one on the racing parallel
        // pipeline. Outcomes are bit-identical; only wall time may move.
        let timed_run = |threads: usize,
                         sink: Option<&enki_telemetry::Telemetry>|
         -> Result<(f64, enki_sim::prelude::SocialWelfareRow), Box<dyn std::error::Error>> {
            let config = SocialWelfareConfig {
                populations: vec![n],
                days,
                optimal_time_limit: limit,
                threads,
                seed: args.seed,
                ..SocialWelfareConfig::default()
            };
            let clock = MonotonicClock::new();
            let started = clock.now();
            let mut swept = run_social_welfare_with(&config, sink)?;
            let wall_ms = clock.now().saturating_sub(started).as_secs_f64() * 1e3;
            Ok((wall_ms, swept.remove(0)))
        };
        eprintln!("n = {n}: {days} days, optimal cap {limit:?}, 1 vs {threads} thread(s) …");
        let (sequential_ms, _) = timed_run(1, None)?;
        let (wall_ms, row) = timed_run(threads, Some(&telemetry))?;
        let rung = RUNG_ORDER
            .iter()
            .rev()
            .find(|k| row.rungs.iter().any(|(key, count)| key == *k && *count > 0))
            .unwrap_or(&"exact");
        rows.push(BenchRow {
            n,
            days,
            wall_ms,
            threads,
            speedup: speedup(sequential_ms, wall_ms),
            rung: (*rung).to_string(),
            rungs: row.rungs.clone(),
            enki_par: row.enki_par.mean,
            optimal_par: row.optimal_par.mean,
            optimal_time_ms: row.optimal_time_ms.mean,
        });
    }

    println!("Allocation bench — §VI-A sweep with telemetry\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.wall_ms),
                r.threads.to_string(),
                r.speedup
                    .map_or_else(|| "—".to_string(), |s| format!("{s:.2}")),
                r.rung.clone(),
                format!("{:.3}", r.enki_par),
                format!("{:.3}", r.optimal_par),
                format!("{:.1}", r.optimal_time_ms),
            ]
        })
        .collect();
    print_table(
        &[
            "n",
            "wall ms",
            "threads",
            "speedup",
            "worst rung",
            "Enki PAR",
            "Optimal PAR",
            "opt ms/day",
        ],
        &table,
    );

    // The JSONL trace, self-validated: a trace this binary cannot read
    // back is a broken build, not an artifact.
    let trace = to_jsonl(&telemetry);
    let summary = validate_jsonl(&trace)
        .map_err(|e| format!("telemetry JSONL failed schema self-validation: {e}"))?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let trace_path = dir.join("bench_telemetry.jsonl");
    fs::write(&trace_path, &trace)?;
    eprintln!(
        "wrote {} ({} spans, {} counters, {} histograms)",
        trace_path.display(),
        summary.spans,
        summary.counters,
        summary.histograms
    );

    let meta = telemetry.meta();
    let record = BenchRecord {
        schema: enki_telemetry::SCHEMA.to_string(),
        run_id: meta.run_id.clone(),
        seed: args.seed,
        git_rev: meta.git_rev.clone(),
        fast: args.fast,
        rows,
    };
    let bench_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_allocation.json");
    fs::write(&bench_path, serde_json::to_string_pretty(&record)?)?;
    eprintln!("wrote {}", bench_path.display());
    Ok(())
}
