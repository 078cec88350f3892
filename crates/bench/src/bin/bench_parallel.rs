//! Parallel-solver scaling bench: wall-time scaling of the racing
//! [`AnytimePipeline`] across thread budgets, with bit-identical outcomes
//! verified at every thread count.
//!
//! For N ∈ {16, 64, 256, 1024} households (N ∈ {16, 64, 256} under
//! `--fast`) and thread budgets {1, 2, 4, 8} ({1, 2} under `--fast`), the
//! bench solves the same seeded allocation problem through the pipeline
//! with a **node-only** exact budget (the wall-clock deadline is
//! disabled), measures wall time, and asserts the parallel outcome is
//! bit-identical to the sequential one — same windows, same objective
//! bits, same rung. It exits nonzero on any divergence.
//!
//! Artifacts:
//!
//! * `BENCH_parallel.json` at the repository root — the committed
//!   baseline, one row per (N, threads) with `wall_ms` and `speedup`;
//! * a copy in `target/experiments/` for CI artifact upload.
//!
//! `--gate` switches to regression-check mode: instead of overwriting
//! the committed baseline, the fresh run is compared against it and the
//! process exits nonzero if any N ≤ 256 row fails to answer from a
//! proven exact solve, if any row's exact work — search nodes, rung,
//! proof status or objective bits — differs from the committed row with
//! the same (N, threads), or if single-thread wall time at N = 256
//! regressed by more than 25% (with an absolute jitter floor). The
//! budget is node-only, so the exact work is a pure function of the seed
//! and host noise never moves it.
//!
//! `--profile` additionally prints per-phase timings of the parallel
//! exact rung (enumerate / speculate / validate / bound) for each cell
//! that ran the speculative driver.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use enki_bench::{experiments_dir, print_table, speedup, RunArgs};
use enki_core::config::EnkiConfig;
use enki_core::household::{HouseholdId, Report};
use enki_sim::profile::{ProfileConfig, UsageProfile};
use enki_solver::prelude::*;
use enki_telemetry::{Clock, MonotonicClock, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Node budget for the exact rung. The deadline is `Duration::MAX`, so
/// this is the solve's *only* budget — the result is a pure function of
/// the instance and seed, at any thread count, on any machine.
const NODE_LIMIT: u64 = 50_000;

/// Measured solves per (N, threads) cell; the row keeps the minimum.
const REPS: usize = 3;

/// Gate tolerance: fail if fresh wall time exceeds baseline × this.
const GATE_FACTOR: f64 = 1.25;

/// Absolute wall-time slack for the gate, milliseconds. Sub-100 ms cells
/// jitter by scheduler noise far more than 25%, so the gate only fires
/// when the fresh run exceeds *both* the relative factor and this floor.
const GATE_FLOOR_MS: f64 = 25.0;

/// One `BENCH_parallel.json` row: the pipeline at one (N, threads).
#[derive(Debug, Serialize, Deserialize)]
struct ParallelRow {
    /// Number of households.
    n: usize,
    /// Pipeline thread budget.
    threads: usize,
    /// Minimum wall time over the measured repetitions, milliseconds.
    wall_ms: f64,
    /// Single-thread wall time at this N over this row's wall time;
    /// `null` when either wall is under [`enki_bench::SPEEDUP_WALL_FLOOR_MS`] (the
    /// division would measure pool spin-up noise, not scaling).
    speedup: Option<f64>,
    /// Ladder rung that answered.
    rung: String,
    /// Whether the exact rung proved optimality within its node budget.
    proven_optimal: bool,
    /// Exact-stage search nodes expanded.
    nodes: u64,
    /// Objective of the returned schedule (σ-scaled κ).
    objective: f64,
    /// Speculative subtree tasks the parallel solver enumerated.
    tasks: u64,
    /// Work-stealing events in the pool (scheduling-dependent).
    steals: u64,
    /// Nodes expanded speculatively by pool workers.
    speculative_nodes: u64,
    /// Whether this row's outcome was bit-identical to threads = 1.
    identical: bool,
}

/// The `BENCH_parallel.json` document.
#[derive(Debug, Serialize, Deserialize)]
struct ParallelRecord {
    /// Telemetry schema identifier (shared with `BENCH_allocation.json`).
    schema: String,
    /// Run id of the generating process.
    run_id: String,
    /// Base RNG seed.
    seed: u64,
    /// Git revision the bench was built from.
    git_rev: String,
    /// Whether this was a `--fast` smoke run.
    fast: bool,
    /// One row per (N, threads).
    rows: Vec<ParallelRow>,
}

/// A seeded day-sized instance: wide truthful reports, as in §VI-A.
fn instance(n: usize, seed: u64) -> enki_core::Result<AllocationProblem> {
    let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) << 20);
    let profile = ProfileConfig::default();
    let reports: Vec<Report> = (0..n)
        .map(|i| {
            let p = UsageProfile::generate(&mut rng, &profile);
            Report::new(HouseholdId::new(i as u32), p.wide())
        })
        .collect();
    AllocationProblem::from_config(
        reports.iter().map(|r| r.preference).collect(),
        &EnkiConfig::default(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let gate = std::env::args().skip(1).any(|a| a == "--gate");
    let profile = std::env::args().skip(1).any(|a| a == "--profile");
    let (populations, thread_budgets) = if args.fast {
        (vec![16usize, 64, 256], vec![1usize, 2])
    } else {
        (vec![16usize, 64, 256, 1024], vec![1usize, 2, 4, 8])
    };

    let telemetry = Telemetry::new("bench_parallel", args.seed);
    let clock = MonotonicClock::new();
    let mut rows: Vec<ParallelRow> = Vec::new();
    let mut divergences = 0usize;
    for &n in &populations {
        let problem = instance(n, args.seed)?;
        let mut sequential: Option<(f64, SolveOutcome)> = None;
        for &threads in &thread_budgets {
            let pipeline = AnytimePipeline::new()
                .with_threads(threads)
                .with_exact_node_limit(NODE_LIMIT)
                .with_exact_time_limit(Duration::MAX)
                .with_seed(42)
                .with_profiling(profile);
            let mut wall_ms = f64::INFINITY;
            let mut solved = None;
            for _ in 0..REPS {
                let started = clock.now();
                let result = pipeline.solve_traced_with_stats(&problem, None)?;
                let elapsed = clock.now().saturating_sub(started).as_secs_f64() * 1e3;
                wall_ms = wall_ms.min(elapsed);
                solved = Some(result);
            }
            let (outcome, stats) = solved.expect("REPS >= 1 always produces a solve");
            let (base_ms, identical) = match &sequential {
                None => {
                    sequential = Some((wall_ms, outcome.clone()));
                    (wall_ms, true)
                }
                Some((base_ms, base)) => {
                    // The determinism contract, checked on the bench
                    // instances themselves: same windows, same objective
                    // bits, same rung, same proof status.
                    let same = base.solution.windows == outcome.solution.windows
                        && base.solution.objective.to_bits()
                            == outcome.solution.objective.to_bits()
                        && base.rung == outcome.rung
                        && base.proven_optimal == outcome.proven_optimal;
                    (*base_ms, same)
                }
            };
            if !identical {
                divergences += 1;
                eprintln!(
                    "DIVERGENCE: n={n} threads={threads} differs from the sequential outcome"
                );
            }
            if profile {
                if let Some(p) = &stats.profile {
                    let ms = |ns: u64| Duration::from_nanos(ns).as_secs_f64() * 1e3;
                    eprintln!(
                        "profile: n={n} threads={threads} enumerate={:.2} ms \
                         speculate={:.2} ms validate={:.2} ms bound={:.2} ms \
                         bound_evals={} bound_cache_hits={}",
                        ms(p.enumerate_ns),
                        ms(p.speculate_ns),
                        ms(p.validate_ns),
                        ms(p.bound_ns),
                        p.bound_evals,
                        p.bound_cache_hits,
                    );
                }
            }
            let exact = outcome.stage(Rung::Exact);
            rows.push(ParallelRow {
                n,
                threads,
                wall_ms,
                speedup: speedup(base_ms, wall_ms),
                rung: outcome.rung.key().to_string(),
                proven_optimal: outcome.proven_optimal,
                nodes: exact.map_or(0, |s| s.nodes),
                objective: outcome.solution.objective,
                tasks: stats.tasks,
                steals: stats.steals,
                speculative_nodes: stats.speculative_nodes,
                identical,
            });
        }
    }

    println!("Parallel solve bench — racing pipeline, node-only budget\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.threads.to_string(),
                format!("{:.1}", r.wall_ms),
                r.speedup.map_or_else(|| "—".to_string(), |s| format!("{s:.2}")),
                r.rung.clone(),
                r.proven_optimal.to_string(),
                r.nodes.to_string(),
                r.steals.to_string(),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &["n", "threads", "wall ms", "speedup", "rung", "proven", "nodes", "steals", "identical"],
        &table,
    );

    let meta = telemetry.meta();
    let record = ParallelRecord {
        schema: enki_telemetry::SCHEMA.to_string(),
        run_id: meta.run_id.clone(),
        seed: args.seed,
        git_rev: meta.git_rev.clone(),
        fast: args.fast,
        rows,
    };
    let json = serde_json::to_string_pretty(&record)?;
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("BENCH_parallel.json"), &json)?;

    let baseline_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_parallel.json");
    if gate {
        // Regression gate: never overwrite the committed baseline.
        //
        // 1. Every fresh row at N ≤ 256 must answer from the exact rung
        //    with a completed proof — the equivalence-class search proves
        //    these instances inside the node budget, and silently
        //    degrading back to `local_search` is the regression this
        //    gate exists to catch.
        // 2. Every fresh row must do the committed row's exact work: the
        //    same node count, rung, proof status and objective bits at the
        //    same (N, threads). Under a node-only budget these are pure
        //    functions of the seed, so any difference is a real change —
        //    a weaker bound shows up here long before the wall gate.
        // 3. The single-thread N = 256 wall time must stay within the
        //    committed baseline × GATE_FACTOR (plus an absolute floor so
        //    sub-100 ms scheduler jitter cannot fail CI).
        for row in record.rows.iter().filter(|r| r.n <= 256) {
            if row.rung != "exact" || !row.proven_optimal {
                return Err(format!(
                    "rung regression: n={} threads={} answered from `{}` \
                     (proven_optimal={}) instead of a proven exact solve",
                    row.n, row.threads, row.rung, row.proven_optimal
                )
                .into());
            }
        }
        let committed: ParallelRecord =
            serde_json::from_str(&fs::read_to_string(&baseline_path)?)?;
        for row in &record.rows {
            let Some(base) = committed
                .rows
                .iter()
                .find(|b| b.n == row.n && b.threads == row.threads)
            else {
                return Err(format!(
                    "gate row n={} threads={} missing from the committed baseline",
                    row.n, row.threads
                )
                .into());
            };
            if row.nodes != base.nodes
                || row.rung != base.rung
                || row.proven_optimal != base.proven_optimal
                || row.objective.to_bits() != base.objective.to_bits()
            {
                return Err(format!(
                    "exact-work regression: n={} threads={} did {} nodes on `{}` \
                     (proven_optimal={}, objective {}) where the committed row did \
                     {} nodes on `{}` (proven_optimal={}, objective {})",
                    row.n,
                    row.threads,
                    row.nodes,
                    row.rung,
                    row.proven_optimal,
                    row.objective,
                    base.nodes,
                    base.rung,
                    base.proven_optimal,
                    base.objective
                )
                .into());
            }
        }
        eprintln!(
            "gate: exact work of {} rows matches the committed baseline",
            record.rows.len()
        );
        let pick = |record: &ParallelRecord| {
            record
                .rows
                .iter()
                .find(|r| r.n == 256 && r.threads == 1)
                .map(|r| r.wall_ms)
        };
        let (Some(base), Some(fresh)) = (pick(&committed), pick(&record)) else {
            return Err("gate rows (n=256, threads=1) missing from baseline or fresh run".into());
        };
        let limit = (base * GATE_FACTOR).max(base + GATE_FLOOR_MS);
        eprintln!(
            "gate: n=256 threads=1 fresh {fresh:.1} ms vs committed {base:.1} ms (limit {limit:.1} ms)"
        );
        if fresh > limit {
            return Err(format!(
                "perf regression: single-thread N=256 took {fresh:.1} ms, \
                 above the {limit:.1} ms gate (committed {base:.1} ms)"
            )
            .into());
        }
    } else {
        fs::write(&baseline_path, &json)?;
        eprintln!("wrote {}", baseline_path.display());
    }

    if divergences > 0 {
        return Err(format!(
            "{divergences} thread-count divergence(s): parallel solve is not bit-identical"
        )
        .into());
    }
    Ok(())
}
