//! Observability acceptance suite: causal traces, the flight recorder,
//! SLO day-health, and the `enki-obs` analysis layer, exercised through
//! the real runtimes.
//!
//! The contract under test, end to end:
//!
//! * traced runs export **byte-identical** JSONL for a given seed — on
//!   the simulated LAN at every solver thread count, and on the served
//!   path — and settle the identical records across thread counts;
//! * one household report is followable edge-to-bill through derived
//!   [`TraceContext`](enki_telemetry::TraceContext) ids, with every
//!   stage witnessed by a recorded span in the serve path;
//! * an induced failure (a crash that swallows a whole day) dumps a
//!   flight-recorder postmortem that passes the schema validator and
//!   names its trigger;
//! * every metric name the runtimes emit is declared in the
//!   [`metric_names`] registry.

use std::sync::Arc;

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_serve::prelude::IngestConfig;
use enki_sim::behavior::ReportStrategy;
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::{ProfileConfig, UsageProfile};
use enki_telemetry::{metric_names, to_jsonl, validate_jsonl, Telemetry, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build(n: u32, seed: u64, threads: usize) -> Runtime {
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
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..n).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    )
    .with_pipeline(PipelineConfig {
        threads,
        ..PipelineConfig::default()
    });
    Runtime::new(SimNetwork::new(NetworkConfig::default(), seed), center, households)
}

/// One traced lockstep run: returns the exported JSONL and the settled
/// records.
fn traced_run(n: u32, seed: u64, days: u64, threads: usize) -> (String, Vec<DayRecord>) {
    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("obs", seed, Arc::clone(&clock));
    let mut rt = build(n, seed, threads)
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    rt.run_days(days);
    let records = rt.records().to_vec();
    drop(rt);
    (to_jsonl(&telemetry), records)
}

/// One traced serve-path run (producers → codec → queue → center)
/// under the driver's virtual clock.
fn traced_serve_run(n: u32, seed: u64, days: u64) -> String {
    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("serve-obs", seed, Arc::clone(&clock));
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..n).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), seed)
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    for i in 0..n {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    rt.run_days(days);
    drop(rt);
    to_jsonl(&telemetry)
}

/// Acceptance: traces replay byte-identically at every thread count and
/// on the served path, the causal stamping survives validation, and the
/// virtual clock gives every day span its 100 ms.
#[test]
fn traces_replay_byte_identically_at_every_thread_count() {
    let mut runs: Vec<(String, String, String)> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let (a, _) = traced_run(6, 33, 3, threads);
            let (b, _) = traced_run(6, 33, 3, threads);
            (format!("threads={threads}"), a, b)
        })
        .collect();
    runs.push(("served".into(), traced_serve_run(6, 33, 3), traced_serve_run(6, 33, 3)));
    for (label, a, b) in runs {
        assert_eq!(a, b, "{label}: same seed must replay identical bytes");
        let summary = validate_jsonl(&a).expect("trace validates");
        assert!(summary.traced > 0, "{label}: no causally stamped spans");
        assert_eq!(summary.open, 0, "{label}: open spans leaked into export");
        let trace = enki_obs::load_trace(&a).expect("trace loads");
        let days: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name == "day")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        assert_eq!(days, vec![100_000_000; 3], "{label}: day spans under the virtual clock");
    }
}

/// Thread counts are a scheduling decision, never an outcome: settled
/// records agree bit-for-bit, and every trace witnesses the identical
/// derived admit/settle/bill chain for the same household.
#[test]
fn records_and_causal_chains_agree_across_thread_counts() {
    let runs: Vec<(String, Vec<DayRecord>)> =
        [1usize, 2, 8].iter().map(|&t| traced_run(6, 34, 3, t)).collect();
    for (jsonl, records) in &runs[1..] {
        assert_eq!(records, &runs[0].1, "records diverged across thread counts");
        // The traces themselves may differ (different solver rungs run
        // under racing), but the causal chain of a given report is a
        // pure function of the seed — identical everywhere.
        let trace = enki_obs::load_trace(jsonl).expect("trace loads");
        let chain = enki_obs::follow_report(&trace, 34, 1, 3);
        for hit in chain.iter().filter(|h| {
            matches!(h.stage, "admit" | "settle" | "bill")
        }) {
            assert!(
                !hit.witnesses.is_empty(),
                "stage {} unwitnessed in one thread count's trace",
                hit.stage
            );
        }
        let _ = jsonl;
    }
    let baseline = enki_obs::load_trace(&runs[0].0).expect("trace loads");
    let chain = enki_obs::follow_report(&baseline, 34, 1, 3);
    assert_eq!(chain.len(), 5);
}

/// Acceptance: in the serve path a single household report is
/// followable end-to-end — report, enqueue, admit, settle, bill — with
/// every stage witnessed by a span, and the causal tree stitches the
/// producer, queue, and center spans under one day root.
#[test]
fn serve_report_is_followable_edge_to_bill() {
    let seed = 2017;
    let jsonl = traced_serve_run(4, seed, 3);
    let trace = enki_obs::load_trace(&jsonl).expect("serve trace loads");

    let (rendered, witnessed) = enki_obs::render_followed_report(&trace, seed, 1, 2);
    assert_eq!(witnessed, 5, "incomplete chain:\n{rendered}");

    // The chain's parent links hold stage to stage.
    let chain = enki_obs::follow_report(&trace, seed, 1, 2);
    for pair in chain.windows(2) {
        assert_eq!(pair[1].ctx.parent_id, pair[0].ctx.span_id);
    }

    // The reconstructed causal tree for that day contains the spans of
    // all three layers, stitched by derived ids alone.
    let root = enki_telemetry::TraceContext::day_root(seed, 1);
    let tree = enki_obs::render_causal_tree(&trace, root.trace_id);
    for name in ["producer.report", "ingest.enqueue", "center.admit", "center.bill"] {
        assert!(tree.contains(name), "causal tree missing {name}:\n{tree}");
    }

    // And the serve trace replays byte-identically too.
    assert_eq!(jsonl, traced_serve_run(4, seed, 3));
}

/// Acceptance: an induced failure — a crash that swallows an entire
/// day — dumps a flight-recorder postmortem that self-validates and
/// carries its trigger and ring context.
#[test]
fn a_swallowed_day_dumps_a_validating_postmortem() {
    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("flight", 7, Arc::clone(&clock));
    let mut rt = build(4, 7, 2)
        .with_crashes(vec![CrashSchedule {
            crash_at: 10,
            recover_at: 250,
        }])
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    rt.run_days(3);
    drop(rt);

    let postmortems = telemetry.postmortems();
    let dump = postmortems
        .iter()
        .find(|p| p.trigger == "deadline_miss")
        .expect("a day without settlement must dump a deadline_miss postmortem");
    let summary = validate_jsonl(&dump.jsonl).expect("postmortem dump validates");
    assert!(summary.spans >= 1, "dump carries the trigger span");
    assert!(dump.jsonl.contains("flight.deadline_miss"), "trigger span named");
    assert!(
        telemetry.counter(metric_names::obs::FLIGHT_DUMPS).unwrap_or(0) > 0,
        "flight.dumps counter bumped"
    );
}

/// SLO day-health: a clean run reports every standard objective
/// healthy; the swallowed-day run breaches deadline compliance.
#[test]
fn slo_day_health_tracks_deadline_compliance() {
    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("slo", 11, Arc::clone(&clock));
    let mut rt = build(4, 11, 2)
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    rt.run_days(3);
    assert_eq!(rt.day_health().len(), 3);
    for day in rt.day_health() {
        for status in &day.statuses {
            assert!(!status.breached, "clean run breached {}", status.name);
        }
    }

    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("slo-miss", 11, Arc::clone(&clock));
    let mut rt = build(4, 11, 2)
        .with_crashes(vec![CrashSchedule {
            crash_at: 10,
            recover_at: 250,
        }])
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    rt.run_days(3);
    let breached = rt
        .day_health()
        .iter()
        .flat_map(|d| d.statuses.iter())
        .any(|s| s.name == "deadline_compliance" && s.breached);
    assert!(breached, "a swallowed day must breach deadline compliance");
}

/// Registry discipline: every metric name either runtime emits — over
/// the lockstep and serve paths, including SLO gauges and flight
/// counters — is declared in [`metric_names`].
#[test]
fn every_emitted_metric_name_is_registered() {
    let clock = VirtualClock::new();
    let telemetry = Telemetry::with_virtual_clock("names", 5, Arc::clone(&clock));
    let mut rt = build(4, 5, 2)
        .with_telemetry(&telemetry)
        .with_virtual_clock(clock);
    rt.run_days(2);
    let _ = check_invariants_traced(&rt, Some(&telemetry.recorder()));
    drop(rt);
    for name in telemetry.metrics().keys() {
        assert!(
            metric_names::is_registered(name),
            "lockstep run emitted unregistered metric `{name}`"
        );
    }

    let serve_telemetry = Telemetry::with_virtual_clock("names-serve", 5, VirtualClock::new());
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..4).map(HouseholdId::new).collect(),
        DayPlan::default(),
        5,
    );
    let mut rt = ServeRuntime::new(center, IngestConfig::default(), 5)
        .with_telemetry(&serve_telemetry);
    for i in 0..4 {
        rt.add_producer(ServeProducer::new(
            HouseholdId::new(i),
            RawPreference::new(f64::from(16 + (i % 6)), 23.0, 2.0),
        ));
    }
    rt.run_days(2);
    drop(rt);
    for name in serve_telemetry.metrics().keys() {
        assert!(
            metric_names::is_registered(name),
            "serve run emitted unregistered metric `{name}`"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: for arbitrary seeds, traced runs replay byte-identically
    /// at 1, 2, and 8 solver threads, and every dump the run captured
    /// (if any) passes the schema validator.
    #[test]
    fn prop_traces_replay_and_dumps_validate(seed in 0u64..1_000) {
        for threads in [1usize, 2, 8] {
            let clock = VirtualClock::new();
            let telemetry =
                Telemetry::with_virtual_clock("obs-prop", seed, Arc::clone(&clock));
            let mut rt = build(4, seed, threads)
                .with_telemetry(&telemetry)
                .with_virtual_clock(clock);
            rt.run_days(2);
            drop(rt);
            let a = to_jsonl(&telemetry);

            let clock = VirtualClock::new();
            let again =
                Telemetry::with_virtual_clock("obs-prop", seed, Arc::clone(&clock));
            let mut rt = build(4, seed, threads)
                .with_telemetry(&again)
                .with_virtual_clock(clock);
            rt.run_days(2);
            drop(rt);
            let b = to_jsonl(&again);

            prop_assert_eq!(&a, &b, "threads={}: trace bytes diverged", threads);
            let summary = validate_jsonl(&a);
            prop_assert!(summary.is_ok(), "invalid trace: {:?}", summary.err());
            for dump in telemetry.postmortems() {
                let verdict = enki_telemetry::validate_jsonl(&dump.jsonl);
                prop_assert!(
                    verdict.is_ok(),
                    "postmortem `{}` failed validation: {:?}",
                    dump.trigger,
                    verdict.err()
                );
            }
        }
    }
}
