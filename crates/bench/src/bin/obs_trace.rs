//! Exports a causally-stamped telemetry trace for the `enki-obs` CLI.
//!
//! Runs the serve-path runtime (producers → wire codec → bounded ingest
//! queue → center) for a few days under the driver's virtual clock (1 ms
//! per tick), so `day` spans carry real durations and every stage
//! of the report lifecycle — `producer.report`, `ingest.enqueue`,
//! `center.admit`, `center.settle`, `center.bill` — is witnessed by a
//! span carrying derived [`TraceContext`]
//! ids. The exported JSONL is byte-deterministic in the seed.
//!
//! Artifact: `target/experiments/obs_trace.jsonl`, consumed by
//! `enki-obs validate/tree/causal/follow/critical` (see the obs-smoke
//! CI job and EXPERIMENTS.md).

use std::fs;
use std::sync::Arc;

use enki_agents::prelude::*;
use enki_bench::{experiments_dir, RunArgs};
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_serve::prelude::IngestConfig;
use enki_telemetry::{to_jsonl, validate_jsonl, Telemetry, TraceContext, VirtualClock};

const HOUSEHOLDS: u32 = 6;
const DAYS: u64 = 3;

fn main() {
    let args = RunArgs::from_env();
    let seed = args.seed;

    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("obs-trace", seed, Arc::clone(&clock));
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..HOUSEHOLDS).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), seed)
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    for i in 0..HOUSEHOLDS {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    rt.run_days(DAYS);
    drop(rt);

    let jsonl = to_jsonl(&telemetry);
    let summary = match validate_jsonl(&jsonl) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("obs_trace: exported trace failed validation: {e}");
            std::process::exit(1);
        }
    };

    let dir = experiments_dir();
    let path = dir.join("obs_trace.jsonl");
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, &jsonl)) {
        eprintln!("obs_trace: write {}: {e}", path.display());
        std::process::exit(1);
    }

    let root = TraceContext::day_root(seed, 1);
    println!(
        "wrote {} — {} spans ({} traced), {} counters, {} histograms",
        path.display(),
        summary.spans,
        summary.traced,
        summary.counters,
        summary.histograms
    );
    println!("day 1 causal root: {:#x}", root.trace_id);
    println!(
        "try: cargo run --release -p enki-obs -- follow {} {seed} 1 2",
        path.display()
    );
}
