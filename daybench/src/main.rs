//! Served-day benchmark: whole protocol days through [`ServeRuntime`],
//! from producer frames to journal flush, with the outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path daybench/Cargo.toml -- \
//!     --workload history-50 --seed 2017 --seconds 35 --trace 0
//! ```
//!
//! A run serves seeded *episodes* — a fresh center that serves its days
//! and is then restarted from its journal — until `--seconds` have
//! passed. Episode 0 is the warm-up: it is served twice, untimed, and
//! the two servings must agree exactly. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! episodes and prints the per-layer metrics, writing the benchmark's
//! spans as `enki-telemetry/1` JSONL next to the executable. The last
//! line of standard output is one JSON object with the result; a failed
//! output check exits nonzero without it. Every end-to-end timing is in
//! reference milliseconds, scaled by a probe of the host's speed taken
//! beside it (see `calibrate.rs`). See `README.md` beside this crate for
//! the workloads, metrics and noise notes.
//!
//! [`ServeRuntime`]: enki_agents::prelude::ServeRuntime

#![deny(unsafe_code)]

mod calibrate;
mod day;
mod layers;
mod stats;
mod workload;

use std::process::ExitCode;

use enki_agents::prelude::{check_invariant_parts, CenterAgent, DayPlan, ServeRuntime};
use enki_serve::prelude::IngestFrontEnd;
use enki_telemetry::{to_jsonl, validate_jsonl, Clock, MonotonicClock, Recorder, Telemetry};

use crate::calibrate::{Probe, REFERENCE_MS};
use crate::day::{serve_day, DaySample};
use crate::layers::{appended_bytes, EpisodeTracer, LayerSamples};
use crate::stats::{median, tail, Ops, Tail};
use crate::workload::{by_name, EpisodeInputs, Workload, WORKLOADS};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2017;

/// The untimed episode every run starts with.
const WARMUP_EPISODE: u64 = 0;

/// Times each episode's set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Command-line options.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Outputs that are a pure function of the seed: the same for every
/// run with that seed, and compared exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Exact {
    days: u64,
    settled_days: u64,
    cost: f64,
    par: f64,
    wal_bytes: u64,
    ops: Ops,
    /// FNV-1a over every settled bill: day, household, amount bits.
    digest: u64,
}

impl Exact {
    fn merge(&mut self, other: &Self) {
        self.days += other.days;
        self.settled_days += other.settled_days;
        self.cost += other.cost;
        self.par += other.par;
        self.wal_bytes += other.wal_bytes;
        self.ops.attempted += other.ops.attempted;
        self.ops.failed += other.ops.failed;
        self.digest = fnv(self.digest, other.digest);
    }
}

fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything one served episode produced.
#[derive(Debug, Default)]
struct Episode {
    setup_s: f64,
    days: Vec<DaySample>,
    restart_ms: Vec<f64>,
    exact: Exact,
    /// Resident set at the episode's end, its runtime still alive, MiB.
    rss_mb: f64,
}

/// Builds the episode `SETUP_REPEATS` times, keeping the last build
/// and the median build time, seconds.
fn build_timed(
    w: Workload,
    inputs: &EpisodeInputs,
    clock: &MonotonicClock,
) -> Result<(ServeRuntime, f64), String> {
    let mut built = None;
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = clock.now();
        let rt = w.build(inputs)?;
        seconds.push(clock.now().saturating_sub(started).as_secs_f64());
        built = Some(rt);
    }
    let rt = built.ok_or("no set-up ran")?;
    Ok((rt, need(median(&seconds), "set-up")?))
}

/// One timed restart of the episode's final log: `Journal::recover`,
/// `RecoveredState::audit`, `CenterAgent::restore` and
/// `IngestFrontEnd::restore`. The restored center must be exactly the
/// one that wrote the log.
fn restart(w: Workload, rt: &mut ServeRuntime, clock: &MonotonicClock) -> Result<f64, String> {
    let roster = w.roster();
    let enki = w.enki();
    let journal = rt.journal_mut().ok_or("episode runs without a journal")?;
    let started = clock.now();
    let state = journal
        .recover()
        .map_err(|e| format!("restart: log replay failed: {e}"))?;
    state
        .audit(&roster, enki.config())
        .map_err(|e| format!("restart: recovered state failed its audit: {e}"))?;
    let center = state
        .center
        .ok_or("restart: the log holds no center checkpoint")?;
    let ingest = state
        .ingest
        .ok_or("restart: the log holds no ingest checkpoint")?;
    let restored = CenterAgent::restore(enki, roster, DayPlan::default(), center);
    let front = IngestFrontEnd::restore(w.ingest, ingest);
    let ms = clock.now().saturating_sub(started).as_secs_f64() * 1e3;
    std::hint::black_box(&front);
    if *restored.checkpoint() != rt.center().snapshot() {
        return Err("restart: the log restored a different center than wrote it".into());
    }
    Ok(ms)
}

/// The exact outputs of a finished episode's timed days, after its
/// output checks: every day closed with a record, and records and
/// trace pass the protocol oracle (budget balance, at most one bill,
/// grounded allocations). Records come from the center's committed
/// checkpoint, which a crash leaves in place.
fn check_episode(
    w: Workload,
    rt: &ServeRuntime,
    warmup_days: u64,
    wal_start: usize,
) -> Result<Exact, String> {
    let records = rt.center().checkpoint().records();
    let days: Vec<u64> = records.iter().map(|r| r.day).collect();
    let served = warmup_days + w.days;
    if days != (0..served).collect::<Vec<u64>>() {
        return Err(format!(
            "episode closed days {days:?}, expected 0..{served}"
        ));
    }
    let violations =
        check_invariant_parts(records, rt.center().roster(), w.enki().config(), rt.trace());
    if let Some(first) = violations.first() {
        return Err(format!(
            "{} oracle violations, first: {first:?}",
            violations.len()
        ));
    }
    let mut exact = Exact {
        days: w.days,
        digest: 0xcbf2_9ce4_8422_2325,
        ..Exact::default()
    };
    for record in &records[warmup_days as usize..] {
        let billed = record
            .settlement
            .as_ref()
            .map_or(0, |s| s.entries.len() as u64);
        exact.ops.record_day(u64::from(w.households), billed);
        let Some(settlement) = record.settlement.as_ref() else {
            continue;
        };
        exact.settled_days += 1;
        exact.cost += settlement.total_cost;
        exact.par += settlement.load.peak_to_average();
        for entry in &settlement.entries {
            exact.digest = fnv(exact.digest, record.day);
            exact.digest = fnv(exact.digest, u64::from(entry.household.index()));
            exact.digest = fnv(exact.digest, entry.payment.to_bits());
        }
    }
    let journal = rt.journal().ok_or("episode runs without a journal")?;
    let ops = journal
        .fault_storage()
        .ok_or("journal is not on the in-memory store")?
        .op_log();
    exact.wal_bytes = appended_bytes(&ops[wal_start..]);
    Ok(exact)
}

/// Serves one day between two probe runs, replaying its layers beside
/// each tick when traced. The day's timings are returned in reference
/// milliseconds; the tracer attributes its wall-clock ones.
fn serve_one_day(
    rt: &mut ServeRuntime,
    clock: &MonotonicClock,
    probe: &mut Probe,
    cursor: &mut usize,
    traced: Option<(&mut EpisodeTracer<'_>, &Recorder, &mut LayerSamples)>,
) -> Result<DaySample, String> {
    let Some((tracer, recorder, out)) = traced else {
        let (sample, scale) = probe.around(clock, || serve_day(rt, clock, cursor, |_, _, _| {}));
        return Ok(sample.scaled(scale));
    };
    let mut span = recorder.span("served_day");
    let (sample, scale) = probe.around(clock, || {
        serve_day(rt, clock, cursor, |rt, tick, start| {
            tracer.on_tick(rt, tick, start, out);
        })
    });
    tracer.end_day(rt, sample.day_ms, out);
    span.record("served_ms", sample.day_ms);
    drop(span);
    match tracer.take_error() {
        Some(e) => Err(format!("traced day: {e}")),
        None => Ok(sample.scaled(scale)),
    }
}

/// Storage operations the episode's journal has made so far.
fn wal_ops(rt: &ServeRuntime) -> Result<usize, String> {
    rt.journal()
        .and_then(|j| j.fault_storage())
        .map(|s| s.op_log().len())
        .ok_or_else(|| "journal is not on the in-memory store".to_string())
}

/// Whether the last closed day billed every household. A household
/// takes part only through an admitted report or the standing profile
/// one left, so after such a day every household has a fallback.
fn last_day_billed_all(w: Workload, rt: &ServeRuntime) -> bool {
    rt.center()
        .checkpoint()
        .records()
        .last()
        .and_then(|r| r.settlement.as_ref())
        .is_some_and(|s| s.entries.len() == w.households as usize)
}

/// Serves one episode: set-up (the builds and any warm-up days), the
/// timed days, the output checks and the timed restarts. Each timing is
/// taken between two probe runs and kept in reference milliseconds. With
/// a tracer, the layers are replayed beside every tick and the final log
/// is replayed call by call.
fn serve_episode(
    w: Workload,
    inputs: &EpisodeInputs,
    clock: &MonotonicClock,
    probe: &mut Probe,
    traced: Option<(&Recorder, &mut LayerSamples)>,
) -> Result<Episode, String> {
    let mut episode = Episode::default();
    let (built, scale) = probe.around(clock, || build_timed(w, inputs, clock));
    let (mut rt, build_s) = built?;
    let build_s = build_s * scale;
    let mut cursor = 0;
    let mut traced = traced
        .map(|(recorder, out)| EpisodeTracer::new(w, inputs, recorder).map(|t| (t, recorder, out)))
        .transpose()?;
    let recorder = traced.as_ref().map(|(_, r, _)| *r);
    let episode_span = recorder.map(|r| r.span("episode"));

    let mut warmup_s = 0.0;
    let mut warmup_days = 0;
    let mut warmup_layers = LayerSamples::default();
    while w.max_warmup_days > 0 && !last_day_billed_all(w, &rt) {
        if warmup_days == w.max_warmup_days {
            return Err(format!(
                "no day billed every household within {warmup_days} warm-up days"
            ));
        }
        let day_traced = traced.as_mut().map(|(t, r, _)| (t, *r, &mut warmup_layers));
        warmup_s += serve_one_day(&mut rt, clock, probe, &mut cursor, day_traced)?.day_ms / 1e3;
        warmup_days += 1;
    }
    episode.setup_s = build_s + warmup_s;

    let wal_start = wal_ops(&rt)?;
    for _ in 0..w.days {
        let day_traced = traced.as_mut().map(|(t, r, o)| (t, *r, &mut **o));
        episode
            .days
            .push(serve_one_day(&mut rt, clock, probe, &mut cursor, day_traced)?);
    }
    if let Some((t, r, o)) = traced.as_mut() {
        let span = r.span("restart");
        t.replay_restart(&rt, o)?;
        drop(span);
    }
    drop(episode_span);
    episode.exact = check_episode(w, &rt, warmup_days, wal_start)?;
    for _ in 0..w.restarts {
        let (ms, scale) = probe.around(clock, || restart(w, &mut rt, clock));
        episode.restart_ms.push(ms? * scale);
    }
    episode.rss_mb = resident_mb()?;
    Ok(episode)
}

/// One metric line of the result.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Samples pooled over a run's timed episodes.
#[derive(Debug, Default)]
struct RunSamples {
    setup_s: Vec<f64>,
    day_ms: Vec<f64>,
    alloc_ms: Vec<f64>,
    settle_ms: Vec<f64>,
    restart_ms: Vec<f64>,
    traced_day_ms: Vec<f64>,
    episodes: u64,
    ops: Ops,
    exact: Exact,
    /// Highest resident set at the end of an exact-window episode: the
    /// same episodes for every run with a seed, whatever its length. The
    /// process high-water mark instead depends on which later episodes
    /// a run reaches.
    peak_rss_mb: f64,
}

impl RunSamples {
    /// Folds episode `index` into the run. The warm-up episode is not
    /// timed and contributes nothing; the exact outputs cover the first
    /// `exact_episodes` timed episodes only.
    fn add(&mut self, w: Workload, index: u64, episode: &Episode, traced: bool) {
        if index == WARMUP_EPISODE {
            return;
        }
        if index <= w.exact_episodes as u64 {
            self.exact.merge(&episode.exact);
            self.peak_rss_mb = self.peak_rss_mb.max(episode.rss_mb);
        }
        self.setup_s.push(episode.setup_s);
        for day in &episode.days {
            if traced {
                self.traced_day_ms.push(day.day_ms);
                continue;
            }
            self.day_ms.push(day.day_ms);
            self.alloc_ms.extend(day.alloc_ms);
            self.settle_ms.extend(day.settle_ms);
        }
        self.restart_ms.extend(&episode.restart_ms);
        self.ops.attempted += episode.exact.ops.attempted;
        self.ops.failed += episode.exact.ops.failed;
        self.episodes += 1;
    }

    /// Every reported tail has more than ten samples behind it.
    fn enough(&self, trace: bool, layers: &LayerSamples) -> bool {
        let tails = [
            &self.day_ms,
            &self.alloc_ms,
            &self.settle_ms,
            &self.restart_ms,
        ];
        if trace {
            tail(&layers.solve_ms).is_some()
                && !self.traced_day_ms.is_empty()
                && !self.day_ms.is_empty()
        } else {
            tails.iter().all(|s| tail(s).is_some())
        }
    }
}

fn need(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

fn need_tail(values: &[f64], what: &str) -> Result<Tail, String> {
    tail(values).ok_or_else(|| format!("too few samples for the tail of {what}"))
}

/// The process's resident set size now (`VmRSS`), MiB.
fn resident_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmRSS line in the process status")?;
    Ok(kib / 1024.0)
}

fn end_to_end(run: &RunSamples, notes: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let mut metrics = vec![Metric {
        name: "setup_s",
        value: need(median(&run.setup_s), "setup_s")?,
        unit: "s",
    }];
    let series: [(&'static str, &'static str, &[f64]); 4] = [
        ("day_ms_p50", "day_ms_tail", &run.day_ms),
        ("alloc_ms_p50", "alloc_ms_tail", &run.alloc_ms),
        ("settle_ms_p50", "settle_ms_tail", &run.settle_ms),
        ("restart_ms_p50", "restart_ms_tail", &run.restart_ms),
    ];
    for (p50, tail_name, values) in series {
        let t = need_tail(values, tail_name)?;
        notes.push(format!(
            "{tail_name} is p{:.2} over {} samples",
            t.percentile, t.samples
        ));
        metrics.push(Metric {
            name: p50,
            value: need(median(values), p50)?,
            unit: "ms",
        });
        metrics.push(Metric {
            name: tail_name,
            value: t.value,
            unit: "ms",
        });
    }
    let exact = run.exact;
    let settled = exact.settled_days.max(1) as f64;
    metrics.extend([
        Metric {
            name: "peak_rss_mb",
            value: run.peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "wal_bytes_per_day",
            value: exact.wal_bytes as f64 / exact.days.max(1) as f64,
            unit: "B/day",
        },
        Metric {
            name: "cost_per_day",
            value: exact.cost / settled,
            unit: "kappa",
        },
        Metric {
            name: "par",
            value: exact.par / settled,
            unit: "ratio",
        },
        Metric {
            name: "billed_share",
            value: exact.ops.billed_share(),
            unit: "fraction",
        },
    ]);
    Ok(metrics)
}

fn per_layer(
    run: &RunSamples,
    l: &LayerSamples,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let days = l.days.max(1) as f64;
    let solves = l.solve_ms.len().max(1) as f64;
    let solve_tail = need_tail(&l.solve_ms, "solver.pipeline.solve_ms")?;
    notes.push(format!(
        "solver.pipeline.solve_ms_tail is p{:.2} over {} solves",
        solve_tail.percentile, solve_tail.samples
    ));
    let med = |values: &[f64], what: &str| need(median(values), what);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("serve.ingest.offer_us", med(&l.offer_us, "offer")?, "us"),
        m("serve.ingest.drain_us", med(&l.drain_us, "drain")?, "us"),
        m("serve.ingest.frames", l.frames as f64 / days, "count/day"),
        m(
            "serve.ingest.depth_p50",
            median(&l.depth).unwrap_or(0.0),
            "count",
        ),
        m(
            "serve.ingest.deferred",
            l.deferred as f64 / days,
            "count/day",
        ),
        m(
            "serve.ingest.shed_share",
            l.shed as f64 / l.frames.max(1) as f64,
            "fraction",
        ),
        m(
            "serve.snapshot.encode_us",
            med(&l.encode_us, "encode")?,
            "us",
        ),
        m(
            "serve.snapshot.decode_us",
            med(&l.decode_us, "decode")?,
            "us",
        ),
        m("core.mechanism.admit_us", med(&l.admit_us, "admit")?, "us"),
        m(
            "core.mechanism.allocate_us",
            med(&l.allocate_us, "allocate")?,
            "us",
        ),
        m(
            "core.mechanism.settle_us",
            med(&l.settle_us, "settle")?,
            "us",
        ),
        m(
            "solver.pipeline.solve_ms_p50",
            med(&l.solve_ms, "solve")?,
            "ms",
        ),
        m("solver.pipeline.solve_ms_tail", solve_tail.value, "ms"),
        m(
            "solver.pipeline.nodes_p50",
            med(&l.nodes, "nodes")?,
            "count",
        ),
        m(
            "solver.pipeline.unproven_share",
            l.unproven as f64 / solves,
            "fraction",
        ),
        m(
            "solver.pipeline.refined_share",
            l.refined as f64 / solves,
            "fraction",
        ),
        m(
            "agents.center.snapshot_us",
            med(&l.snapshot_us, "snapshot")?,
            "us",
        ),
        m(
            "agents.center.checkpoint_bytes",
            med(&l.checkpoint_bytes, "checkpoint")?,
            "B",
        ),
        m(
            "agents.center.restore_ms",
            med(&l.restore_ms, "restore")?,
            "ms",
        ),
        m("agents.durable.log_us", med(&l.log_us, "log")?, "us"),
        m(
            "agents.durable.recover_ms",
            med(&l.recover_ms, "recover")?,
            "ms",
        ),
        m("agents.durable.audit_ms", med(&l.audit_ms, "audit")?, "ms"),
        m(
            "durable.wal.appends_per_day",
            l.wal_appends as f64 / days,
            "count/day",
        ),
        m(
            "durable.wal.bytes_per_day",
            l.wal_bytes as f64 / days,
            "B/day",
        ),
        m(
            "durable.wal.write_amplification",
            l.wal_bytes as f64 / l.record_bytes.max(1) as f64,
            "ratio",
        ),
        m(
            "durable.wal.compactions_per_day",
            l.compactions as f64 / days,
            "count/day",
        ),
        m(
            "durable.wal.replayed_records",
            med(&l.replayed_records, "replayed records")?,
            "count",
        ),
        m(
            "durable.wal.replayed_bytes",
            med(&l.replayed_bytes, "replayed bytes")?,
            "B",
        ),
        m(
            "unattributed.alloc_share",
            med(&l.unattributed_alloc, "alloc residual")?,
            "fraction",
        ),
        m(
            "unattributed.settle_share",
            med(&l.unattributed_settle, "settle residual")?,
            "fraction",
        ),
        m(
            "unattributed.day_share",
            med(&l.unattributed_day, "day residual")?,
            "fraction",
        ),
        m(
            "trace.overhead_day_ms",
            med(&run.traced_day_ms, "traced days")? - med(&run.day_ms, "untraced days")?,
            "ms",
        ),
    ])
}

/// The run's result, printed as the last line of standard output.
#[derive(Debug)]
struct Outcome {
    ops: Ops,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn run(args: Args) -> Result<Outcome, String> {
    let w = args.workload;
    let clock = MonotonicClock::new();

    // The recorder's run header would otherwise search the directories
    // above the working directory for a git checkout.
    if std::env::var_os("GIT_REV").is_none() {
        std::env::set_var("GIT_REV", "unknown");
    }
    let telemetry = Telemetry::new(&format!("daybench.{}", w.name), args.seed);
    let recorder = telemetry.recorder();
    let mut layers = LayerSamples::default();
    let mut run = RunSamples::default();
    let mut probe = Probe::new();
    let mut started = clock.now();
    for index in WARMUP_EPISODE.. {
        let inputs = w.inputs(args.seed, index);
        let traced = args.trace && index % 2 == 0 && index != WARMUP_EPISODE;
        let episode = serve_episode(
            w,
            &inputs,
            &clock,
            &mut probe,
            traced.then_some((&recorder, &mut layers)),
        )?;
        if index == WARMUP_EPISODE {
            // Served again: the same seed must give the same outputs.
            let again = serve_episode(w, &inputs, &clock, &mut probe, None)?;
            if again.exact != episode.exact {
                return Err(format!(
                    "the warm-up episode served twice disagreed: {:?} vs {:?}",
                    episode.exact, again.exact
                ));
            }
            started = clock.now();
        }
        run.add(w, index, &episode, traced);
        let elapsed = clock.now().saturating_sub(started).as_secs_f64();
        if elapsed >= args.seconds
            && index >= w.exact_episodes as u64
            && run.enough(args.trace, &layers)
        {
            break;
        }
    }

    let mut notes = vec![
        format!(
            "{} timed episodes of {} days, {} households; exact outputs over the first {} (bill digest {:016x})",
            run.episodes, w.days, w.households, w.exact_episodes, run.exact.digest
        ),
        format!(
            "timings in reference ms: probe median {:.4} ms over {} runs, reference {REFERENCE_MS} ms",
            need(median(probe.times()), "probe")?,
            probe.times().len()
        ),
    ];
    let metrics = if args.trace {
        recorder.flush();
        let jsonl = to_jsonl(&telemetry);
        let summary = validate_jsonl(&jsonl).map_err(|e| format!("trace artefact: {e}"))?;
        let path = std::env::current_exe()
            .map_err(|e| format!("locating the executable: {e}"))?
            .with_file_name(format!("daybench-{}.jsonl", w.name));
        std::fs::write(&path, jsonl).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            summary.spans,
            path.display()
        ));
        per_layer(&run, &layers, &mut notes)?
    } else {
        end_to_end(&run, &mut notes)?
    };
    Ok(Outcome {
        ops: run.ops,
        metrics,
        notes,
    })
}

fn render(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.ops.attempted,
        outcome.ops.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(run).and_then(|outcome| {
        let line = render(&outcome)?;
        Ok((outcome, line))
    });
    match result {
        Ok((outcome, line)) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics {
                println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daybench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn episode() -> Episode {
        Episode {
            setup_s: 0.5,
            days: vec![DaySample {
                day_ms: 9.0,
                alloc_ms: Some(3.0),
                settle_ms: Some(2.0),
            }],
            restart_ms: vec![4.0],
            rss_mb: 12.0,
            exact: Exact {
                days: 1,
                settled_days: 1,
                cost: 10.0,
                par: 1.5,
                wal_bytes: 100,
                ops: Ops {
                    attempted: 50,
                    failed: 0,
                },
                digest: 7,
            },
        }
    }

    #[test]
    fn the_warmup_episode_is_never_sampled() {
        let w = by_name("history-50").expect("workload exists");
        let mut run = RunSamples::default();
        run.add(w, WARMUP_EPISODE, &episode(), false);
        assert_eq!(run.episodes, 0);
        assert!(run.setup_s.is_empty() && run.day_ms.is_empty() && run.restart_ms.is_empty());
        assert_eq!(run.ops, Ops::default());
        assert_eq!(run.exact, Exact::default());

        run.add(w, 1, &episode(), false);
        assert_eq!(run.episodes, 1);
        assert_eq!(
            (run.day_ms.len(), run.alloc_ms.len(), run.restart_ms.len()),
            (1, 1, 1)
        );
        assert_eq!(run.ops.attempted, 50);
        assert_eq!(run.exact.days, 1);
    }

    #[test]
    fn exact_outputs_cover_a_fixed_window_of_timed_episodes() {
        let w = by_name("history-50").expect("workload exists");
        let mut run = RunSamples::default();
        for index in 0..=w.exact_episodes as u64 + 3 {
            run.add(w, index, &episode(), false);
        }
        assert_eq!(run.episodes, w.exact_episodes as u64 + 3);
        assert_eq!(run.exact.days, w.exact_episodes as u64);
        assert_eq!(run.ops.attempted, 50 * run.episodes);
        let mut late = episode();
        late.rss_mb = 99.0;
        run.add(w, w.exact_episodes as u64 + 4, &late, false);
        assert_eq!(run.peak_rss_mb, 12.0, "only the exact window sets the peak");
    }

    #[test]
    fn traced_days_are_kept_apart_from_untraced_ones() {
        let w = by_name("history-50").expect("workload exists");
        let mut run = RunSamples::default();
        run.add(w, 1, &episode(), false);
        run.add(w, 2, &episode(), true);
        assert_eq!((run.day_ms.len(), run.traced_day_ms.len()), (1, 1));
        assert_eq!(
            run.alloc_ms.len(),
            1,
            "traced ticks are not end-to-end samples"
        );
    }

    #[test]
    fn flags_parse_and_default() {
        let args: Vec<String> = ["--workload", "refine-128", "--trace", "1"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let parsed = parse_args(&args).expect("valid flags");
        assert_eq!(parsed.workload.name, "refine-128");
        assert_eq!(parsed.seed, DEFAULT_SEED);
        assert!(parsed.trace);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(
            parse_args(&["--seed".into(), "3".into()]).is_err(),
            "workload is required"
        );
    }
}
