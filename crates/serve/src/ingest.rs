//! The deterministic batch-executing ingest front end.
//!
//! [`IngestFrontEnd`] is the core of the serve layer: a tick-driven,
//! seeded, panic-free executor that turns wire bytes into admitted raw
//! reports under explicit bounds. Per tick it accepts frames from
//! producers ([`offer_bytes`](IngestFrontEnd::offer_bytes)) and drains
//! a bounded batch toward the center
//! ([`drain`](IngestFrontEnd::drain)). Overload is handled by policy,
//! not by luck:
//!
//! * **Deadline propagation** — every frame carries the day's report
//!   deadline. Work that already missed it, or whose projected queue
//!   wait crosses it, is shed immediately (`Stale` / `DeadlineRisk`):
//!   admitting a report after the center's deadline is worthless, so
//!   the cost is paid at the door, not after queueing.
//! * **Cheapest-first shedding** — the caller classifies each report's
//!   [`ShedCost`] (replaceable from a standing profile, or fresh); a
//!   full queue evicts replaceable work before rejecting fresh work.
//! * **Backpressure** — a rejected offer yields a
//!   [`ProducerSignal::Backpressure`] whose `retry_after` follows the
//!   household [`Backoff`] contract, with jitter from the front end's
//!   seeded RNG (deterministic for a given seed).
//! * **Containment** — the cost classifier is foreign code; if it
//!   panics, `catch_unwind` quarantines the whole batch as `Poisoned`
//!   and the ingest loop keeps running.
//!
//! Time enters only as ticks supplied by the caller and through the
//! optional telemetry [`Recorder`] (whose clock is injected); there are
//! no wall-clock reads here, so two runs with equal seeds, ticks, and
//! bytes are bit-identical — including the full checkpoint state.

use std::panic::{catch_unwind, AssertUnwindSafe};

use enki_core::household::HouseholdId;
use enki_telemetry::trace::{stage, TraceContext};
use enki_telemetry::{FieldValue, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Decode, Deserialize, Encode, Serialize};

use crate::backoff::Backoff;
use crate::codec::FrameDecoder;
use crate::queue::{IngressQueue, Offer, QueuedReport};
use crate::shed::{ShedClass, ShedCost, ShedStats};
use crate::Tick;

/// Static configuration of one ingest front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Bound on queued reports. Zero admits nothing (every offer sees
    /// backpressure); one degenerates to a single-slot mailbox.
    pub queue_capacity: usize,
    /// Reports handed to the consumer per [`drain`](IngestFrontEnd::drain)
    /// call — the modeled consumer rate, and the denominator of the
    /// deadline-risk projection. Zero models a stalled consumer: all
    /// queue wait projects past any deadline, so everything sheds.
    pub drain_per_tick: usize,
    /// Backoff contract advertised to producers on backpressure.
    pub backoff: Backoff,
}

impl Default for IngestConfig {
    /// 1024 queued reports, 64 drained per tick, default household
    /// backoff.
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            drain_per_tick: 64,
            backoff: Backoff::default(),
        }
    }
}

/// What one [`offer_bytes`](IngestFrontEnd::offer_bytes) call tells the
/// producer, per decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProducerSignal {
    /// The frame's reports were enqueued (possibly evicting cheaper
    /// queued work).
    Accepted {
        /// Reports enqueued from this frame.
        enqueued: usize,
    },
    /// The queue is saturated; the producer should retry the frame no
    /// sooner than `retry_after` ticks from now.
    Backpressure {
        /// Ticks to wait before retrying, per the [`Backoff`] contract.
        retry_after: Tick,
    },
    /// Reports from this frame were dropped for the given reason.
    Shed {
        /// The shed class charged.
        class: ShedClass,
        /// Reports dropped.
        count: usize,
    },
}

/// Running totals for one front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize, Encode, Decode)]
pub struct IngestStats {
    /// Reports enqueued successfully.
    pub enqueued: u64,
    /// Reports drained to the consumer (admitted toward the center).
    pub admitted: u64,
    /// Reports a producer must resend after backpressure (not lost —
    /// deferred to a retry).
    pub deferred: u64,
    /// Frames decoded successfully.
    pub frames: u64,
    /// Per-class shed counters.
    pub shed: ShedStats,
}

/// A durable snapshot of the front end, for mid-batch crash recovery.
/// Restoring it resumes the exact queue, counters, and RNG stream.
///
/// # Commit contract
///
/// The front end's deterministic state changes only inside
/// [`IngestFrontEnd::offer_bytes`] (when a frame completes) and
/// [`IngestFrontEnd::drain`] (when it pops reports or hands out
/// fallbacks); every such mutation marks the front end *dirty*. A
/// runtime that persists snapshots must, at each tick boundary, take
/// [`IngestFrontEnd::snapshot_if_dirty`] and write it **before**
/// treating the tick as committed (log → flush → apply, the same
/// write-ahead order as [`CenterAgent::commit`]'s phase-boundary
/// checkpoints). Clean ticks return `None` and may skip the write
/// entirely: skipping is invisible, because a clean tick's snapshot
/// would be byte-identical to the previous one. Bytes buffered in the
/// frame decoder are deliberately volatile — producers resend partial
/// frames after a crash — so they neither dirty the state nor appear
/// in the snapshot.
///
/// [`CenterAgent::commit`]: https://docs.rs/enki-agents
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct IngestCheckpoint {
    queue: Vec<QueuedReport>,
    stats: IngestStats,
    rng_state: [u64; 4],
    pressure: u32,
    fallbacks: Vec<(u64, HouseholdId)>,
}

/// One drain's yield.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Drain {
    /// Reports admitted toward the center, oldest first.
    pub admitted: Vec<QueuedReport>,
    /// `(day, household)` pairs shed since the last drain whose cost
    /// was [`ShedCost::Replaceable`]: the center should fall back to
    /// its standing profile for them.
    pub fallbacks: Vec<(u64, HouseholdId)>,
}

/// The deterministic ingest front end.
#[derive(Debug)]
pub struct IngestFrontEnd {
    config: IngestConfig,
    queue: IngressQueue,
    decoder: FrameDecoder,
    stats: IngestStats,
    rng: StdRng,
    /// Consecutive rejected offers; drives the backoff attempt number
    /// so sustained saturation widens the advertised retry window.
    pressure: u32,
    /// Replaceable sheds awaiting standing-profile fallback, drained
    /// with the next [`drain`](IngestFrontEnd::drain).
    fallbacks: Vec<(u64, HouseholdId)>,
    /// Whether checkpointable state changed since the last
    /// [`snapshot_if_dirty`](IngestFrontEnd::snapshot_if_dirty).
    /// Decoder-buffer changes do not count: partial frames are
    /// volatile by contract (see [`IngestCheckpoint`]).
    dirty: bool,
    recorder: Option<Recorder>,
    /// Seed for deriving deterministic [`TraceContext`]s stamped on
    /// queued reports at the `enqueue` stage. Static configuration,
    /// not checkpointed; defaults to 0.
    trace_seed: u64,
}

/// A single shed burst at or above this many reports dumps the flight
/// recorder: mass shedding is exactly the moment an operator wants the
/// recent-event ring preserved.
const SHED_SPIKE_THRESHOLD: u64 = 64;

impl IngestFrontEnd {
    /// A front end with the given configuration and RNG seed.
    #[must_use]
    pub fn new(config: IngestConfig, seed: u64) -> Self {
        Self {
            queue: IngressQueue::new(config.queue_capacity),
            decoder: FrameDecoder::new(),
            stats: IngestStats::default(),
            rng: StdRng::seed_from_u64(seed),
            pressure: 0,
            fallbacks: Vec::new(),
            dirty: false,
            recorder: None,
            trace_seed: 0,
            config,
        }
    }

    /// Sets the seed from which enqueue-stage [`TraceContext`]s are
    /// derived — the same run seed the producers use, so the queue
    /// entry's causal ids line up with the household's report span.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// Attaches a telemetry recorder: queue-depth gauges
    /// (`serve.queue.depth`), admit/shed/defer counters (`serve.*`),
    /// and the admission-latency histogram
    /// (`serve.admission_latency.ticks`).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> IngestConfig {
        self.config
    }

    /// Running totals.
    #[must_use]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Reports currently queued.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Ticks a report offered now would wait before draining, given the
    /// current depth and the configured drain rate.
    fn projected_wait(&self) -> Tick {
        if self.config.drain_per_tick == 0 {
            return Tick::MAX;
        }
        (self.queue.depth() as u64) / (self.config.drain_per_tick as u64) + 1
    }

    fn record_shed(&mut self, class: ShedClass, n: u64) {
        self.stats.shed.record(class, n);
        if let Some(r) = self.recorder.as_ref() {
            r.incr(&format!("serve.shed.{}", class.key()), n);
            // Contained foreign-code panics and mass shed bursts both
            // warrant a postmortem of the recent-event ring.
            if class == ShedClass::Poisoned || n >= SHED_SPIKE_THRESHOLD {
                let _ = r.postmortem(
                    &format!("serve.shed.{}", class.key()),
                    &[("count", FieldValue::U64(n))],
                );
            }
        }
    }

    /// A shed report with a standing profile behind it is not lost: the
    /// center substitutes the profile. Queue it for the next drain.
    fn note_fallback(&mut self, item: &QueuedReport) {
        if item.cost == ShedCost::Replaceable {
            self.fallbacks.push((item.day, item.report.household));
        }
    }

    /// Feeds wire bytes and processes every frame they complete.
    ///
    /// The `cost` classifier maps a household to the cost of shedding
    /// its report (typically: replaceable iff the center holds a
    /// standing profile). It is called once per report inside a
    /// `catch_unwind` guard — a panicking classifier poisons only the
    /// batch it was judging.
    ///
    /// Returns one signal per completed frame, in wire order.
    pub fn offer_bytes(
        &mut self,
        now: Tick,
        bytes: &[u8],
        cost: &mut dyn FnMut(HouseholdId) -> ShedCost,
    ) -> Vec<ProducerSignal> {
        self.decoder.push_bytes(bytes);
        let mut signals = Vec::new();
        while let Some(frame) = self.decoder.next_frame() {
            // Every completed frame mutates checkpointable state (at
            // minimum a counter), whichever arm below it takes.
            self.dirty = true;
            let batch = match frame {
                Ok(batch) => batch,
                Err(_) => {
                    // The codec cannot know how many reports the frame
                    // held; charge one unit of malformed work.
                    self.record_shed(ShedClass::Malformed, 1);
                    signals.push(ProducerSignal::Shed {
                        class: ShedClass::Malformed,
                        count: 1,
                    });
                    continue;
                }
            };
            // Classify every report before touching the queue, so a
            // poisoned batch is contained before it mutates anything.
            let costs = catch_unwind(AssertUnwindSafe(|| {
                batch
                    .reports
                    .iter()
                    .map(|r| cost(r.household))
                    .collect::<Vec<ShedCost>>()
            }));
            let costs = match costs {
                Ok(costs) => costs,
                Err(_) => {
                    let count = batch.reports.len();
                    self.record_shed(ShedClass::Poisoned, count as u64);
                    signals.push(ProducerSignal::Shed {
                        class: ShedClass::Poisoned,
                        count,
                    });
                    continue;
                }
            };
            self.stats.frames += 1;
            signals.push(self.offer_batch(now, &batch, &costs));
        }
        if let Some(r) = self.recorder.as_ref() {
            r.gauge("serve.queue.depth", self.queue.depth() as f64);
        }
        signals
    }

    /// Offers one decoded, classified batch. Returns the frame's signal.
    fn offer_batch(
        &mut self,
        now: Tick,
        batch: &crate::codec::Batch,
        costs: &[ShedCost],
    ) -> ProducerSignal {
        let mut enqueued = 0usize;
        let mut stale = 0usize;
        let mut risk = 0usize;
        for (report, &cost) in batch.reports.iter().zip(costs) {
            let item = QueuedReport {
                day: batch.day,
                deadline: batch.deadline,
                enqueued_at: now,
                cost,
                report: *report,
                trace: Some(TraceContext::report_stage(
                    self.trace_seed,
                    batch.day,
                    u64::from(report.household.index()),
                    stage::ENQUEUE,
                )),
            };
            if now > batch.deadline {
                // Deadline already passed: shed at the door.
                self.record_shed(ShedClass::Stale, 1);
                self.note_fallback(&item);
                stale += 1;
                continue;
            }
            if now.saturating_add(self.projected_wait()) > batch.deadline {
                // Projected to clear the queue after the deadline:
                // admitted-late work is worthless, shed it early.
                self.record_shed(ShedClass::DeadlineRisk, 1);
                self.note_fallback(&item);
                risk += 1;
                continue;
            }
            let trace = item.trace;
            match self.queue.offer(item) {
                Offer::Enqueued => {
                    enqueued += 1;
                    // Witness the enqueue stage so the causal chain of
                    // this report is followable span-to-span, not just
                    // by derived ids.
                    if let (Some(r), Some(ctx)) = (self.recorder.as_ref(), trace) {
                        drop(r.span_with_trace("ingest.enqueue", ctx));
                    }
                }
                Offer::Evicted(victim) => {
                    self.record_shed(ShedClass::Evicted, 1);
                    self.note_fallback(&victim);
                    enqueued += 1;
                    if let (Some(r), Some(ctx)) = (self.recorder.as_ref(), trace) {
                        drop(r.span_with_trace("ingest.enqueue", ctx));
                    }
                }
                Offer::Rejected => {
                    // Saturated: tell the producer to back off and
                    // retry the whole remainder of the frame.
                    let remaining =
                        batch.reports.len() - enqueued - stale - risk;
                    self.stats.enqueued += enqueued as u64;
                    self.stats.deferred += remaining as u64;
                    let retry_after =
                        self.config.backoff.delay(self.pressure, &mut self.rng);
                    self.pressure = self.pressure.saturating_add(1);
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("serve.defer", remaining as u64);
                        r.incr("serve.enqueued", enqueued as u64);
                    }
                    return ProducerSignal::Backpressure { retry_after };
                }
            }
        }
        self.pressure = 0;
        self.stats.enqueued += enqueued as u64;
        if let Some(r) = self.recorder.as_ref() {
            r.incr("serve.enqueued", enqueued as u64);
        }
        if enqueued == 0 && stale + risk > 0 {
            let class = if stale >= risk {
                ShedClass::Stale
            } else {
                ShedClass::DeadlineRisk
            };
            return ProducerSignal::Shed {
                class,
                count: stale + risk,
            };
        }
        ProducerSignal::Accepted { enqueued }
    }

    /// Drains up to `drain_per_tick` reports toward the consumer, plus
    /// the standing-profile fallbacks owed since the last drain.
    ///
    /// Queued reports whose deadline has passed by `now` are shed as
    /// `Stale` here rather than delivered: deadline propagation holds on
    /// the way out as well as the way in.
    pub fn drain(&mut self, now: Tick) -> Drain {
        if !self.fallbacks.is_empty() {
            self.dirty = true;
        }
        let mut out = Drain {
            admitted: Vec::new(),
            fallbacks: std::mem::take(&mut self.fallbacks),
        };
        while out.admitted.len() < self.config.drain_per_tick {
            let Some(item) = self.queue.pop() else { break };
            self.dirty = true;
            if now > item.deadline {
                self.record_shed(ShedClass::Stale, 1);
                if item.cost == ShedCost::Replaceable {
                    out.fallbacks.push((item.day, item.report.household));
                }
                continue;
            }
            self.stats.admitted += 1;
            if let Some(r) = self.recorder.as_ref() {
                r.observe(
                    "serve.admission_latency.ticks",
                    now.saturating_sub(item.enqueued_at),
                );
            }
            out.admitted.push(item);
        }
        if let Some(r) = self.recorder.as_ref() {
            r.incr("serve.admitted", out.admitted.len() as u64);
            r.gauge("serve.queue.depth", self.queue.depth() as f64);
        }
        out
    }

    /// Snapshots the complete deterministic state (queue, counters, RNG
    /// stream, pending fallbacks) for durable storage.
    #[must_use]
    pub fn checkpoint(&self) -> IngestCheckpoint {
        IngestCheckpoint {
            queue: self.queue.snapshot(),
            stats: self.stats,
            rng_state: self.rng.state(),
            pressure: self.pressure,
            fallbacks: self.fallbacks.clone(),
        }
    }

    /// Whether checkpointable state changed since the last
    /// [`snapshot_if_dirty`](IngestFrontEnd::snapshot_if_dirty) (or
    /// construction). Idle ticks stay clean, so a persisting runtime
    /// can skip their snapshot and WAL work entirely.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Takes a snapshot only when state changed since the last one,
    /// clearing the dirty flag. The skip is invisible: a clean tick's
    /// snapshot would equal the previous tick's bit for bit (asserted
    /// by the serve property suite).
    #[must_use = "a dropped snapshot is a lost commit"]
    pub fn snapshot_if_dirty(&mut self) -> Option<IngestCheckpoint> {
        if !self.dirty {
            return None;
        }
        self.dirty = false;
        Some(self.checkpoint())
    }

    /// Rebuilds a front end from a checkpoint plus the static
    /// configuration. Bytes buffered in the decoder at checkpoint time
    /// are *not* part of the durable state — a recovering node restarts
    /// its connections, so partial frames are the producers' to resend.
    #[must_use]
    pub fn restore(config: IngestConfig, checkpoint: IngestCheckpoint) -> Self {
        Self {
            queue: IngressQueue::restore(config.queue_capacity, checkpoint.queue),
            decoder: FrameDecoder::new(),
            stats: checkpoint.stats,
            rng: StdRng::from_state(checkpoint.rng_state),
            pressure: checkpoint.pressure,
            fallbacks: checkpoint.fallbacks,
            dirty: false,
            recorder: None,
            trace_seed: 0,
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_frame, Batch};
    use enki_core::validation::{RawPreference, RawReport};

    fn frame(day: u64, deadline: Tick, households: &[u32]) -> Vec<u8> {
        let batch = Batch {
            day,
            deadline,
            reports: households
                .iter()
                .map(|&h| {
                    RawReport::new(
                        HouseholdId::new(h),
                        RawPreference::new(18.0, 22.0, 2.0),
                    )
                })
                .collect(),
        };
        encode_frame(&batch).unwrap()
    }

    fn fresh(_: HouseholdId) -> ShedCost {
        ShedCost::Fresh
    }

    #[test]
    fn offer_then_drain_admits_in_order() {
        let mut f = IngestFrontEnd::new(IngestConfig::default(), 1);
        let signals = f.offer_bytes(0, &frame(0, 30, &[3, 1, 2]), &mut fresh);
        assert_eq!(signals, vec![ProducerSignal::Accepted { enqueued: 3 }]);
        let drained = f.drain(1);
        let order: Vec<u32> = drained
            .admitted
            .iter()
            .map(|q| q.report.household.index())
            .collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert_eq!(f.stats().admitted, 3);
    }

    #[test]
    fn stale_frames_are_shed_at_the_door() {
        let mut f = IngestFrontEnd::new(IngestConfig::default(), 1);
        let signals = f.offer_bytes(50, &frame(0, 30, &[0, 1]), &mut fresh);
        assert_eq!(
            signals,
            vec![ProducerSignal::Shed {
                class: ShedClass::Stale,
                count: 2
            }]
        );
        assert_eq!(f.stats().shed.stale, 2);
        assert!(f.drain(51).admitted.is_empty());
    }

    #[test]
    fn stalled_consumer_sheds_everything_as_deadline_risk() {
        let config = IngestConfig {
            drain_per_tick: 0,
            ..IngestConfig::default()
        };
        let mut f = IngestFrontEnd::new(config, 1);
        let signals = f.offer_bytes(0, &frame(0, 30, &[0, 1, 2]), &mut fresh);
        assert_eq!(
            signals,
            vec![ProducerSignal::Shed {
                class: ShedClass::DeadlineRisk,
                count: 3
            }]
        );
        assert_eq!(f.stats().shed.deadline_risk, 3);
    }

    #[test]
    fn zero_capacity_signals_backpressure_with_growing_delay() {
        let config = IngestConfig {
            queue_capacity: 0,
            backoff: Backoff::new(2, 16),
            ..IngestConfig::default()
        };
        let mut f = IngestFrontEnd::new(config, 1);
        let mut delays = Vec::new();
        for _ in 0..4 {
            let signals = f.offer_bytes(0, &frame(0, 30, &[0]), &mut fresh);
            match signals.as_slice() {
                [ProducerSignal::Backpressure { retry_after }] => {
                    delays.push(*retry_after);
                }
                other => panic!("expected backpressure, got {other:?}"),
            }
        }
        // Exponential under sustained pressure, bounded by cap + jitter.
        assert_eq!(delays[0], 2);
        assert!(delays[3] >= delays[0]);
        assert!(delays.iter().all(|&d| d <= 16 + 3), "{delays:?}");
        assert_eq!(f.stats().deferred, 4);
    }

    #[test]
    fn accepted_frame_resets_pressure() {
        let config = IngestConfig {
            queue_capacity: 1,
            backoff: Backoff::new(2, 64),
            ..IngestConfig::default()
        };
        let mut f = IngestFrontEnd::new(config, 1);
        // Fill, then saturate twice.
        f.offer_bytes(0, &frame(0, 1000, &[0]), &mut fresh);
        f.offer_bytes(0, &frame(0, 1000, &[1]), &mut fresh);
        f.offer_bytes(0, &frame(0, 1000, &[1]), &mut fresh);
        // Drain frees the slot; the next offer is accepted and resets
        // the pressure counter.
        let _ = f.drain(1);
        f.offer_bytes(1, &frame(0, 1000, &[1]), &mut fresh);
        let _ = f.drain(2);
        let signals = f.offer_bytes(2, &frame(0, 1000, &[2, 3]), &mut fresh);
        match signals.as_slice() {
            [ProducerSignal::Backpressure { retry_after }] => {
                assert_eq!(*retry_after, 2, "pressure was reset");
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_quarantine_without_stopping_the_loop() {
        let mut f = IngestFrontEnd::new(IngestConfig::default(), 1);
        let mut bytes = frame(0, 30, &[0]);
        bytes[4] = 99; // bad version
        bytes.extend(frame(0, 30, &[1]));
        let signals = f.offer_bytes(0, &bytes, &mut fresh);
        assert_eq!(
            signals,
            vec![
                ProducerSignal::Shed {
                    class: ShedClass::Malformed,
                    count: 1
                },
                ProducerSignal::Accepted { enqueued: 1 },
            ]
        );
        assert_eq!(f.stats().shed.malformed, 1);
    }

    #[test]
    fn poisoned_batch_is_contained_and_the_loop_survives() {
        let mut f = IngestFrontEnd::new(IngestConfig::default(), 1);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let signals = f.offer_bytes(0, &frame(0, 30, &[0, 1]), &mut |h| {
            assert!(h.index() != 1, "poisoned household");
            ShedCost::Fresh
        });
        std::panic::set_hook(hook);
        assert_eq!(
            signals,
            vec![ProducerSignal::Shed {
                class: ShedClass::Poisoned,
                count: 2
            }]
        );
        assert_eq!(f.stats().shed.poisoned, 2);
        // The front end still works afterwards.
        let signals = f.offer_bytes(1, &frame(0, 30, &[2]), &mut fresh);
        assert_eq!(signals, vec![ProducerSignal::Accepted { enqueued: 1 }]);
    }

    #[test]
    fn eviction_produces_a_standing_profile_fallback() {
        let config = IngestConfig {
            queue_capacity: 1,
            ..IngestConfig::default()
        };
        let mut f = IngestFrontEnd::new(config, 1);
        f.offer_bytes(0, &frame(0, 30, &[0]), &mut |_| ShedCost::Replaceable);
        let signals = f.offer_bytes(0, &frame(0, 30, &[1]), &mut fresh);
        assert_eq!(signals, vec![ProducerSignal::Accepted { enqueued: 1 }]);
        let drained = f.drain(1);
        assert_eq!(drained.fallbacks, vec![(0, HouseholdId::new(0))]);
        assert_eq!(
            drained.admitted[0].report.household,
            HouseholdId::new(1)
        );
        assert_eq!(f.stats().shed.evicted, 1);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let config = IngestConfig {
            queue_capacity: 2,
            backoff: Backoff::new(3, 24),
            ..IngestConfig::default()
        };
        let mut a = IngestFrontEnd::new(config, 42);
        a.offer_bytes(0, &frame(0, 30, &[0, 1]), &mut fresh);
        a.offer_bytes(0, &frame(0, 30, &[2]), &mut fresh); // backpressure draw
        let mut b = IngestFrontEnd::restore(config, a.checkpoint());
        // Same future: equal drains and equal backpressure delays.
        let da = a.drain(1);
        let db = b.drain(1);
        assert_eq!(da, db);
        let sa = a.offer_bytes(2, &frame(0, 30, &[3, 4, 5]), &mut fresh);
        let sb = b.offer_bytes(2, &frame(0, 30, &[3, 4, 5]), &mut fresh);
        assert_eq!(sa, sb);
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn checkpoint_roundtrips_through_serde() {
        let mut f = IngestFrontEnd::new(IngestConfig::default(), 7);
        f.offer_bytes(0, &frame(0, 30, &[0, 1, 2]), &mut fresh);
        let checkpoint = f.checkpoint();
        let json = serde_json::to_string(&checkpoint).unwrap();
        let back: IngestCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, checkpoint);
    }
}
