//! The traced run: each layer timed from outside, beside the served day.
//!
//! After every served tick the tracer calls the public entry point of
//! each layer that tick exercised, on that tick's inputs, and times the
//! call inside one of the benchmark's own telemetry spans. No program
//! code is instrumented. The inputs are the ones the served day used:
//! the day's frames (re-encoded from the episode's reports), the
//! reports the center received (read off the trace), the admitted
//! reports and their allocation, the center's committed checkpoint,
//! and the episode's journal.
//!
//! The attribution model per served tick:
//!
//! * a center phase commit clones the checkpoint twice (the commit and
//!   the journal's `CenterAgent::snapshot`) and logs it once;
//! * a dirty front-end snapshot is logged once;
//! * the allocation tick admits and allocates (and refines, when the
//!   center refines); the settlement tick settles;
//! * a recovery tick replays, audits and restores the log the previous
//!   day ended with;
//! * the report window's ingest work is replayed once per day through
//!   a fresh front end with the workload's queue, burst and backoff.
//!
//! Whatever the served tick took beyond those calls is the
//! `unattributed.*` residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use enki_agents::prelude::{
    CenterAgent, DayPlan, DayRecord, Journal, JournalConfig, Message, RecoveredState, ServeRuntime,
    Tick, TraceKind,
};
use enki_core::household::{HouseholdId, Preference, Report};
use enki_core::mechanism::{AllocationOutcome, Enki};
use enki_core::time::Interval;
use enki_core::validation::{RawPreference, RawReport};
use enki_durable::fault::OpRecord;
use enki_durable::prelude::{FaultPlan, FaultStorage, OpKind};
use enki_serve::prelude::{
    encode_frame, Batch, IngestFrontEnd, IngestStats, ProducerSignal, ShedCost,
};
use enki_serve::snapshot;
use enki_solver::prelude::{AllocationProblem, AnytimePipeline};
use enki_telemetry::{Recorder, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::day::TickSample;
use crate::stats::residual_share;
use crate::workload::{mix, EpisodeInputs, Workload, SOLVE_CONFIG};

/// Per-layer samples gathered over a run's traced episodes.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// Busy time of `IngestFrontEnd::offer_bytes` per day, µs.
    pub offer_us: Vec<f64>,
    /// Busy time of `IngestFrontEnd::drain` per day, µs.
    pub drain_us: Vec<f64>,
    /// Queue depth after each report-window tick.
    pub depth: Vec<f64>,
    /// Frames the front end decoded on traced days.
    pub frames: u64,
    /// Reports deferred to a producer retry on traced days.
    pub deferred: u64,
    /// Reports shed, all classes, on traced days.
    pub shed: u64,
    /// `snapshot::encode` of each committed checkpoint, µs.
    pub encode_us: Vec<f64>,
    /// `snapshot::decode` of each committed checkpoint, µs.
    pub decode_us: Vec<f64>,
    /// `Enki::admit_with_history` per day, µs.
    pub admit_us: Vec<f64>,
    /// `Enki::allocate` per day, µs.
    pub allocate_us: Vec<f64>,
    /// `Enki::settle` per day, µs.
    pub settle_us: Vec<f64>,
    /// `AnytimePipeline::solve` per day, ms.
    pub solve_ms: Vec<f64>,
    /// Search nodes per solve.
    pub nodes: Vec<f64>,
    /// Solves that did not prove optimality.
    pub unproven: u64,
    /// Solves strictly cheaper than the greedy allocation.
    pub refined: u64,
    /// `CenterAgent::snapshot` per commit, µs.
    pub snapshot_us: Vec<f64>,
    /// Encoded size of each committed checkpoint, bytes.
    pub checkpoint_bytes: Vec<f64>,
    /// `CenterAgent::restore` per replayed log, ms.
    pub restore_ms: Vec<f64>,
    /// `Journal::log_center` / `Journal::log_ingest` per call, µs.
    pub log_us: Vec<f64>,
    /// `Journal::recover` per replayed log, ms.
    pub recover_ms: Vec<f64>,
    /// `RecoveredState::audit` per replayed log, ms.
    pub audit_ms: Vec<f64>,
    /// Records each replay recovered.
    pub replayed_records: Vec<f64>,
    /// Durable log bytes each replay read.
    pub replayed_bytes: Vec<f64>,
    /// WAL appends over traced days.
    pub wal_appends: u64,
    /// WAL bytes appended over traced days.
    pub wal_bytes: u64,
    /// WAL compactions over traced days.
    pub compactions: u64,
    /// Encoded bytes of the day records settled on traced days.
    pub record_bytes: u64,
    /// Traced days.
    pub days: u64,
    /// Unattributed share of each allocation tick.
    pub unattributed_alloc: Vec<f64>,
    /// Unattributed share of each settlement tick.
    pub unattributed_settle: Vec<f64>,
    /// Unattributed share of each served day.
    pub unattributed_day: Vec<f64>,
}

/// Times `f` inside a span named `name`, returning its result and the
/// call's wall time in microseconds. The span is opened before and
/// closed after the timed window, so its own cost is not counted.
fn timed<T>(recorder: &Recorder, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = recorder.span(name);
    let started = recorder.now();
    let out = black_box(f());
    let us = recorder.now().saturating_sub(started).as_secs_f64() * 1e6;
    drop(span);
    (out, us)
}

/// Sums the bytes of every WAL append in `ops`.
#[must_use]
pub fn appended_bytes(ops: &[OpRecord]) -> u64 {
    ops.iter()
        .map(|op| match op.kind {
            OpKind::Append(n) => n as u64,
            _ => 0,
        })
        .sum()
}

/// The day the center is currently running, as its `DayStart` said.
#[derive(Debug, Clone, Copy)]
struct OpenDay {
    day: u64,
    started: Tick,
    report_deadline: Tick,
    allocated: bool,
}

/// Replays one episode's layers beside its served ticks.
#[derive(Debug)]
pub struct EpisodeTracer<'a> {
    workload: Workload,
    inputs: &'a EpisodeInputs,
    recorder: &'a Recorder,
    enki: Enki,
    /// A journal of the benchmark's own that the commits are re-logged
    /// into, so `Journal::log_*` is timed on the same checkpoints and
    /// compacts on the same appends as the served journal.
    scratch: Journal,
    commit_seq: u64,
    appended: u64,
    compactions: u64,
    op_cursor: usize,
    records_seen: usize,
    ingest_before: IngestStats,
    last_raw: BTreeMap<HouseholdId, RawPreference>,
    profiles: BTreeMap<HouseholdId, Preference>,
    rng: StdRng,
    open: Option<OpenDay>,
    received: BTreeMap<HouseholdId, RawPreference>,
    allocation: Option<(Vec<Report>, AllocationOutcome)>,
    /// Replay cost of the log the previous day ended with: what the
    /// next recovery tick spends, µs.
    pending_recovery_us: f64,
    /// Layer time attributed to the current day so far, µs.
    day_us: f64,
    /// Expected participants per day, checked against the records.
    participants: BTreeMap<u64, usize>,
    error: Option<String>,
}

impl<'a> EpisodeTracer<'a> {
    /// A tracer for a freshly built episode runtime.
    ///
    /// # Errors
    ///
    /// Fails when the scratch journal cannot be opened.
    #[must_use = "the tracer must be driven beside the served ticks"]
    pub fn new(
        workload: Workload,
        inputs: &'a EpisodeInputs,
        recorder: &'a Recorder,
    ) -> Result<Self, String> {
        let (scratch, _) = Journal::open(
            FaultStorage::new(FaultPlan::none()),
            JournalConfig::default(),
        )
        .map_err(|e| format!("opening the scratch journal: {e}"))?;
        Ok(Self {
            workload,
            inputs,
            recorder,
            enki: workload.enki(),
            scratch,
            commit_seq: 0,
            appended: 0,
            compactions: 0,
            op_cursor: 0,
            records_seen: 0,
            ingest_before: IngestStats::default(),
            last_raw: BTreeMap::new(),
            profiles: BTreeMap::new(),
            rng: StdRng::seed_from_u64(mix(inputs.seed, 0xA110C)),
            open: None,
            received: BTreeMap::new(),
            allocation: None,
            pending_recovery_us: 0.0,
            day_us: 0.0,
            participants: BTreeMap::new(),
            error: None,
        })
    }

    /// The first error a layer call hit, if any.
    #[must_use = "a failed layer call invalidates the traced run"]
    pub fn take_error(&mut self) -> Option<String> {
        self.error.take()
    }

    fn fail(&mut self, message: String) {
        self.error.get_or_insert(message);
    }

    /// Calls the layers `tick` exercised. `start` is the trace length
    /// before the tick.
    pub fn on_tick(
        &mut self,
        rt: &ServeRuntime,
        tick: &TickSample,
        start: usize,
        out: &mut LayerSamples,
    ) {
        if let Err(e) = self.try_on_tick(rt, tick, start, out) {
            self.fail(e);
        }
    }

    fn try_on_tick(
        &mut self,
        rt: &ServeRuntime,
        tick: &TickSample,
        start: usize,
        out: &mut LayerSamples,
    ) -> Result<(), String> {
        self.read_trace(rt, start);
        let mut tick_us = 0.0;
        if tick.recovered {
            tick_us += self.pending_recovery_us;
            // A recovery restarts the journal's count toward its next
            // compaction; restart the scratch journal alike so both
            // compact on the same appends.
            self.scratch
                .recover()
                .map_err(|e| format!("scratch journal recovery failed: {e}"))?;
        }
        if tick.kind.allocation {
            self.day_us += self.replay_ingest(out)?;
            tick_us += self.replay_allocation(out)?;
            if let Some(open) = self.open.as_mut() {
                open.allocated = true;
            }
        }
        if tick.kind.bill {
            tick_us += self.replay_settlement(out)?;
        }
        tick_us += self.replay_commits(rt, out)?;
        if let Some(open) = self.open {
            if !open.allocated && !rt.is_down() {
                out.depth.push(rt.queue_depth() as f64);
            }
        }
        let tick_ms = tick_us / 1e3;
        if tick.kind.allocation {
            out.unattributed_alloc
                .push(residual_share(tick.ms, tick_ms));
        }
        if tick.kind.bill {
            out.unattributed_settle
                .push(residual_share(tick.ms, tick_ms));
        }
        self.day_us += tick_us;
        Ok(())
    }

    /// Follows the day the center runs and the reports it received.
    fn read_trace(&mut self, rt: &ServeRuntime, start: usize) {
        for event in &rt.trace()[start..] {
            match (event.kind, event.envelope.message) {
                (
                    TraceKind::Originated,
                    Message::DayStart {
                        day,
                        report_deadline,
                        ..
                    },
                ) if self.open.map(|o| o.day) != Some(day) => {
                    self.open = Some(OpenDay {
                        day,
                        started: event.at,
                        report_deadline,
                        allocated: false,
                    });
                    self.received.clear();
                }
                (TraceKind::Delivered, Message::SubmitReport { day, preference })
                    if self.open.map(|o| o.day) == Some(day) =>
                {
                    if let enki_agents::prelude::NodeId::Household(h) = event.envelope.from {
                        self.received.insert(h, preference);
                    }
                }
                _ => {}
            }
        }
    }

    /// Replays the day's report window through a fresh front end: the
    /// producers' frames, retried on backpressure by the runtime's own
    /// rules, and one drain per tick. Returns the busy time, µs.
    fn replay_ingest(&mut self, out: &mut LayerSamples) -> Result<f64, String> {
        let open = self.open.ok_or("allocation tick outside a started day")?;
        let span = self.recorder.span("serve.ingest");
        let clock = self.recorder;
        struct Producer {
            frame: Vec<u8>,
            next: Tick,
            done: bool,
        }
        let mut producers = (0u32..)
            .zip(&self.inputs.reports)
            .map(|(i, &raw)| {
                let batch = Batch {
                    day: open.day,
                    deadline: open.report_deadline,
                    reports: vec![RawReport::new(HouseholdId::new(i), raw)],
                };
                encode_frame(&batch).map(|frame| Producer {
                    frame,
                    next: open.started + 1,
                    done: false,
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("encoding a report frame: {e:?}"))?;
        let profiles = &self.profiles;
        let mut cost = |h: HouseholdId| {
            if profiles.contains_key(&h) {
                ShedCost::Replaceable
            } else {
                ShedCost::Fresh
            }
        };
        let mut front = IngestFrontEnd::new(self.workload.ingest, self.inputs.seed);
        let (mut offer, mut drain) = (Duration::ZERO, Duration::ZERO);
        for now in open.started + 1..=open.report_deadline {
            for p in producers.iter_mut().filter(|p| !p.done && now >= p.next) {
                let mut signals = Vec::new();
                let started = clock.now();
                for _ in 0..self.workload.burst {
                    signals.extend(front.offer_bytes(now, &p.frame, &mut cost));
                }
                offer += clock.now().saturating_sub(started);
                let accepted = signals
                    .iter()
                    .any(|s| matches!(s, ProducerSignal::Accepted { .. }));
                let retry = signals.iter().rev().find_map(|s| match s {
                    ProducerSignal::Backpressure { retry_after } => Some(*retry_after),
                    _ => None,
                });
                let shed = signals
                    .iter()
                    .any(|s| matches!(s, ProducerSignal::Shed { .. }));
                match (accepted, retry) {
                    (true, _) => p.done = true,
                    (false, Some(t)) => p.next = now.saturating_add(t.max(1)),
                    (false, None) => p.done = shed,
                }
            }
            let started = clock.now();
            black_box(front.drain(now));
            drain += clock.now().saturating_sub(started);
        }
        let (offer_us, drain_us) = (offer.as_secs_f64() * 1e6, drain.as_secs_f64() * 1e6);
        drop(span);
        out.offer_us.push(offer_us);
        out.drain_us.push(drain_us);
        Ok(offer_us + drain_us)
    }

    /// Admits the received reports, allocates, and solves. Returns the
    /// time the served allocation tick spends in these calls, µs: the
    /// solve counts only when the center refines.
    fn replay_allocation(&mut self, out: &mut LayerSamples) -> Result<f64, String> {
        let open = self.open.ok_or("allocation tick outside a started day")?;
        let enki = self.enki;
        let raw: Vec<RawReport> = self
            .received
            .iter()
            .map(|(&h, &p)| RawReport::new(h, p))
            .collect();
        let last_raw = &self.last_raw;
        let (admission, admit_us) = timed(self.recorder, "core.mechanism.admit", || {
            enki.admit_with_history(&raw, |h| last_raw.get(&h).copied())
        });
        for r in &raw {
            self.last_raw.insert(r.household, r.preference);
        }
        for entry in &admission.entries {
            if let Some(p) = entry.admitted {
                self.profiles.insert(entry.household, p);
            }
        }
        let profiles = &self.profiles;
        let reports = admission.admitted_with_fallback(|h| profiles.get(&h).copied());
        self.participants.insert(open.day, reports.len());
        let rng = &mut self.rng;
        let (outcome, allocate_us) = timed(self.recorder, "core.mechanism.allocate", || {
            enki.allocate(&reports, rng)
        });
        let outcome = outcome.map_err(|e| format!("replayed allocation failed: {e}"))?;

        let config = self.workload.refine.unwrap_or(SOLVE_CONFIG);
        let seed = mix(self.inputs.seed, open.day);
        let preferences: Vec<Preference> = reports.iter().map(|r| r.preference).collect();
        let (solved, solve_us) = timed(self.recorder, "solver.pipeline.solve", || {
            let problem = AllocationProblem::from_config(preferences, enki.config())?;
            AnytimePipeline::new()
                .with_threads(config.threads)
                .with_exact_node_limit(config.exact_node_limit)
                .with_exact_time_limit(Duration::MAX)
                .with_restarts(config.restarts)
                .with_seed(seed)
                .with_clock(VirtualClock::new())
                .solve(&problem)
        });
        let solved = solved.map_err(|e| format!("replayed solve failed: {e}"))?;
        out.solve_ms.push(solve_us / 1e3);
        out.nodes
            .push(solved.stages.iter().map(|s| s.nodes).sum::<u64>() as f64);
        out.unproven += u64::from(!solved.proven_optimal);
        out.refined += u64::from(solved.solution.objective < outcome.planned_cost - 1e-12);

        out.admit_us.push(admit_us);
        out.allocate_us.push(allocate_us);
        self.allocation = Some((reports, outcome));
        let solve_on_path = if self.workload.refine.is_some() {
            solve_us
        } else {
            0.0
        };
        Ok(admit_us + allocate_us + solve_on_path)
    }

    /// Settles the replayed allocation as if every household followed
    /// it (the served producers' meters mirror their windows).
    fn replay_settlement(&mut self, out: &mut LayerSamples) -> Result<f64, String> {
        let (reports, outcome) = self
            .allocation
            .take()
            .ok_or("settlement tick without a replayed allocation")?;
        let consumption: Vec<Interval> = outcome.assignments.iter().map(|a| a.window).collect();
        let enki = self.enki;
        let (settled, settle_us) = timed(self.recorder, "core.mechanism.settle", || {
            enki.settle(&reports, &outcome, &consumption)
        });
        settled.map_err(|e| format!("replayed settlement failed: {e}"))?;
        out.settle_us.push(settle_us);
        Ok(settle_us)
    }

    /// Re-logs the tick's journal appends: a center phase commit (two
    /// checkpoint clones and a log) and a dirty front-end snapshot (a
    /// log). Also times the checkpoint codec on each commit.
    fn replay_commits(&mut self, rt: &ServeRuntime, out: &mut LayerSamples) -> Result<f64, String> {
        let journal = rt.journal().ok_or("episode runs without a journal")?;
        let stats = *journal.stats();
        let ops = journal
            .fault_storage()
            .ok_or("journal is not on the in-memory store")?
            .op_log();
        out.wal_bytes += appended_bytes(&ops[self.op_cursor..]);
        self.op_cursor = ops.len();
        let appends = stats.appended - self.appended;
        let compactions = stats.compactions - self.compactions;
        out.wal_appends += appends;
        out.compactions += compactions;
        self.appended = stats.appended;
        self.compactions = stats.compactions;

        let mut us = 0.0;
        let center_logged = rt.center().commit_seq() != self.commit_seq;
        if center_logged {
            self.commit_seq = rt.center().commit_seq();
            let (checkpoint, snapshot_us) = timed(self.recorder, "agents.center.snapshot", || {
                rt.center().snapshot()
            });
            let (logged, log_us) = timed(self.recorder, "agents.durable.log", || {
                self.scratch.log_center(&checkpoint)
            });
            logged.map_err(|e| format!("scratch journal refused a center commit: {e}"))?;
            let (bytes, encode_us) = timed(self.recorder, "serve.snapshot.encode", || {
                snapshot::encode(&checkpoint)
            });
            let (decoded, decode_us) = timed(self.recorder, "serve.snapshot.decode", || {
                snapshot::decode::<enki_agents::prelude::CenterCheckpoint>(&bytes)
            });
            if decoded.as_ref() != Some(&checkpoint) {
                return Err("a committed checkpoint did not survive the codec".into());
            }
            out.snapshot_us.push(snapshot_us);
            out.log_us.push(log_us);
            out.encode_us.push(encode_us);
            out.decode_us.push(decode_us);
            out.checkpoint_bytes.push(bytes.len() as f64);
            us += 2.0 * snapshot_us + log_us;
        }
        let ingest_logs = appends - u64::from(center_logged) - compactions;
        if ingest_logs > 0 {
            let checkpoint = rt.checkpoint();
            let (logged, log_us) = timed(self.recorder, "agents.durable.log", || {
                self.scratch.log_ingest(checkpoint.ingest())
            });
            logged.map_err(|e| format!("scratch journal refused an ingest snapshot: {e}"))?;
            out.log_us.push(log_us);
            us += ingest_logs as f64 * log_us;
        }
        if self.scratch.stats().compactions != stats.compactions {
            return Err("the scratch journal compacted out of step with the served one".into());
        }
        Ok(us)
    }

    /// Closes a served day: front-end counters, settled record bytes,
    /// the day's residual, and — on workloads that crash daily — a
    /// replay of the log the day ended with, which is what the next
    /// day's recovery tick reads.
    pub fn end_day(&mut self, rt: &ServeRuntime, day_ms: f64, out: &mut LayerSamples) {
        if let Err(e) = self.try_end_day(rt, day_ms, out) {
            self.fail(e);
        }
    }

    fn try_end_day(
        &mut self,
        rt: &ServeRuntime,
        day_ms: f64,
        out: &mut LayerSamples,
    ) -> Result<(), String> {
        let stats = rt.ingest_stats();
        let before = self.ingest_before;
        out.frames += stats.frames - before.frames;
        out.deferred += stats.deferred - before.deferred;
        out.shed += stats.shed.total() - before.shed.total();
        self.ingest_before = stats;

        // The committed records: a crash after the bills wipes the live ones.
        let records = rt.center().checkpoint().records();
        for record in &records[self.records_seen..] {
            self.check_participants(record)?;
            out.record_bytes += snapshot::encode(record).len() as u64;
        }
        self.records_seen = records.len();
        out.days += 1;
        if self.workload.daily_crash {
            self.pending_recovery_us = self.replay_restart(rt, out)?;
        }
        out.unattributed_day
            .push(residual_share(day_ms, self.day_us / 1e3));
        self.day_us = 0.0;
        Ok(())
    }

    fn check_participants(&self, record: &DayRecord) -> Result<(), String> {
        match self.participants.get(&record.day) {
            Some(&n) if n == record.participants.len() => Ok(()),
            expected => Err(format!(
                "day {}: the replayed admission saw {expected:?} participants, the center {}",
                record.day,
                record.participants.len()
            )),
        }
    }

    /// Replays the episode's current log as a restart does — recover,
    /// audit, restore the center and the front end — timing each call.
    /// Returns the total, µs.
    ///
    /// # Errors
    ///
    /// Fails when the log does not recover, fails its audit, or
    /// restores a center other than the one that wrote it.
    #[must_use = "the replay checks the log; its error must not be dropped"]
    pub fn replay_restart(
        &mut self,
        rt: &ServeRuntime,
        out: &mut LayerSamples,
    ) -> Result<f64, String> {
        let storage = rt
            .journal()
            .and_then(Journal::fault_storage)
            .cloned()
            .ok_or("journal is not on the in-memory store")?;
        let log_bytes: usize = storage.durable_image().values().map(Vec::len).sum();
        let (mut journal, _) = Journal::open(storage, JournalConfig::default())
            .map_err(|e| format!("reopening a copy of the log: {e}"))?;
        let (state, recover_us) = timed(self.recorder, "agents.durable.recover", || {
            journal.recover()
        });
        let state = state.map_err(|e| format!("log replay failed: {e}"))?;
        let roster = self.workload.roster();
        let enki = self.enki;
        let (audit, audit_us) = timed(self.recorder, "agents.durable.audit", || {
            state.audit(&roster, enki.config())
        });
        audit.map_err(|e| format!("recovered state failed its audit: {e}"))?;
        let RecoveredState {
            center,
            ingest,
            replayed,
            ..
        } = state;
        let center = center.ok_or("the log holds no center checkpoint")?;
        let ingest = ingest.ok_or("the log holds no ingest checkpoint")?;
        let (restored, restore_us) = timed(self.recorder, "agents.center.restore", || {
            CenterAgent::restore(enki, roster, DayPlan::default(), center)
        });
        if restored.checkpoint() != rt.center().checkpoint() {
            return Err("the replayed log restored a different center".into());
        }
        let config = self.workload.ingest;
        let (_, front_us) = timed(self.recorder, "serve.ingest.restore", || {
            IngestFrontEnd::restore(config, ingest)
        });
        out.recover_ms.push(recover_us / 1e3);
        out.audit_ms.push(audit_us / 1e3);
        out.restore_ms.push(restore_us / 1e3);
        out.replayed_records.push(replayed as f64);
        out.replayed_bytes.push(log_bytes as f64);
        Ok(recover_us + audit_us + restore_us + front_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appended_bytes_counts_appends_only() {
        let op = |op, kind| OpRecord {
            op,
            kind,
            segment: String::new(),
        };
        let ops = [
            op(0, OpKind::List),
            op(1, OpKind::Append(120)),
            op(2, OpKind::Flush),
            op(3, OpKind::Append(8)),
            op(4, OpKind::Read),
        ];
        assert_eq!(appended_bytes(&ops), 128);
    }
}
