//! The neighborhood-center agent.
//!
//! Drives the daily protocol: broadcasts `DayStart`, collects reports
//! until the report deadline (late or duplicate reports are handled
//! idempotently), allocates with the greedy mechanism, pushes allocations,
//! collects meter readings until the meter deadline, settles, and bills.
//!
//! **Failure handling.** A household whose report never arrives is simply
//! excluded from the day — the paper's mechanism has no basis to allocate
//! or bill it. A household that was allocated but whose meter reading was
//! lost is settled *as if it followed its allocation*: real smart meters
//! are read eventually, so the cooperative window is the neutral
//! assumption (and the one that cannot create a phantom defection score).
//!
//! **Admission control.** Reports arrive raw off the wire and are never
//! trusted: at the report deadline the whole batch runs through the
//! admission layer ([`enki_core::validation`]). Accepted and clamped
//! reports enter the allocation; quarantined households fall back to the
//! center's standing profile of their demand (the last preference it
//! admitted from them — its model of their ECC's reporting), or are
//! excluded if the center has never admitted one. Per-day quarantine and
//! clamp decisions are recorded in the [`DayRecord`], so a settled day
//! can always answer why a household was billed for a given window. A
//! failed allocation or settlement closes the day without a settlement
//! instead of taking the center down.
//!
//! **Crash and recovery.** The center writes a durable
//! [`CenterCheckpoint`] at every phase boundary — day start, allocation
//! computed, day settled. [`CenterAgent::crash`] wipes all live protocol
//! state (as a process crash would); the settled-day ledger lives only in
//! the committed checkpoint, so it is never wiped. [`CenterAgent::recover`]
//! restores from the last checkpoint, including the allocation RNG state,
//! so the post-recovery allocation stream is identical to an uncrashed
//! run. Reports and readings received *between* phase boundaries are
//! volatile and lost on crash — household retry loops re-deliver them.
//! Because a settled day's record and RNG state are committed atomically
//! with its bills, recovery can never re-settle a day or double-bill.

use std::collections::BTreeMap;
use std::time::Duration;

use enki_core::household::{HouseholdId, Preference, Report};
use enki_core::load::LoadProfile;
use enki_core::mechanism::{AllocationOutcome, Assignment, Enki, Settlement};
use enki_core::time::Interval;
use enki_core::validation::{RawPreference, RawReport};
use enki_solver::prelude::{AllocationProblem, AnytimePipeline};
use enki_telemetry::trace::{stage, TraceContext};
use enki_telemetry::{Recorder, VirtualClock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Decode, Deserialize, Encode, Serialize};

use crate::message::{Envelope, Message, NodeId, Tick};

/// Timing of one protocol day, in ticks relative to the day's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayPlan {
    /// Total ticks per day.
    pub day_length: Tick,
    /// Reports must arrive within this many ticks of the day start.
    pub report_offset: Tick,
    /// Meter readings are collected until this offset, then the day
    /// settles.
    pub meter_offset: Tick,
}

impl Default for DayPlan {
    fn default() -> Self {
        Self {
            day_length: 100,
            report_offset: 30,
            meter_offset: 70,
        }
    }
}

impl DayPlan {
    /// Validates the ordering `0 < report < meter < day_length`.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        0 < self.report_offset
            && self.report_offset < self.meter_offset
            && self.meter_offset < self.day_length
    }
}

/// Configuration for refining the greedy allocation through the
/// [`enki_solver`] anytime pipeline.
///
/// The center's protocol obligation is met by the greedy mechanism alone;
/// the pipeline is a *refinement*. At the report deadline the admitted
/// preferences become an [`AllocationProblem`] and the racing portfolio
/// (speculative branch-and-bound against seeded local search, for a
/// thread budget ≥ 2) gets `exact_node_limit` search nodes to beat the
/// greedy windows; the refined schedule is adopted only when its planned
/// cost is strictly lower. The solve is budgeted in **nodes only**: the
/// pipeline runs on a virtual clock that never advances, so the deadline
/// never fires and the result is a pure function of the admitted reports
/// and the day's seed, independent of host load, thread count, or
/// scheduling. That keeps the center's checkpoints replayable — a
/// crash-recovered center re-derives the same refined windows — and its
/// telemetry traces byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Thread budget handed to [`AnytimePipeline::with_threads`]. `1`
    /// runs the sequential degradation ladder; `≥ 2` races the exact and
    /// local-search rungs on the solver's work-stealing pool. Results
    /// are bit-identical at every thread count.
    pub threads: usize,
    /// Node budget for the exact rung — its only budget (see above).
    pub exact_node_limit: u64,
    /// Random restarts for the local-search rung.
    pub restarts: usize,
}

impl Default for PipelineConfig {
    /// Two threads (the racing portfolio), a 50 000-node exact budget —
    /// ample to prove day-sized neighborhoods optimal — and 8 restarts.
    fn default() -> Self {
        Self {
            threads: 2,
            exact_node_limit: 50_000,
            restarts: 8,
        }
    }
}

impl PipelineConfig {
    /// Tries to improve `greedy` for the admitted `reports`, returning
    /// the refined outcome when the pipeline's best certified schedule is
    /// strictly cheaper and the greedy outcome untouched otherwise —
    /// including on any solver error or contained rung panic. Refinement
    /// must never cost the neighborhood its day.
    pub(crate) fn refine(
        self,
        enki: &Enki,
        reports: &[Report],
        greedy: AllocationOutcome,
        seed: u64,
        recorder: Option<&Recorder>,
    ) -> AllocationOutcome {
        let solved = (|| {
            let preferences: Vec<Preference> =
                reports.iter().map(|r| r.preference).collect();
            let problem = AllocationProblem::from_config(preferences, enki.config())?;
            // Node-budget only: the virtual clock never advances, so the
            // exact deadline never fires and every stage timing the
            // pipeline records is exact arithmetic, not wall time.
            AnytimePipeline::new()
                .with_threads(self.threads)
                .with_exact_node_limit(self.exact_node_limit)
                .with_exact_time_limit(Duration::MAX)
                .with_restarts(self.restarts)
                .with_seed(seed)
                .with_clock(VirtualClock::new())
                .solve_traced(&problem, recorder)
        })();
        match solved {
            Ok(outcome) if outcome.solution.objective < greedy.planned_cost - 1e-12 => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.refined", 1);
                }
                let windows = &outcome.solution.windows;
                let assignments = reports
                    .iter()
                    .zip(windows)
                    .map(|(r, &window)| Assignment {
                        household: r.household,
                        window,
                    })
                    .collect();
                AllocationOutcome {
                    assignments,
                    planned_load: LoadProfile::from_windows(windows, enki.config().rate()),
                    planned_cost: outcome.solution.objective,
                    // Flexibility scores and placement order are derived
                    // from the reports (Eq. 4), not from the windows, so
                    // the greedy mechanism's values remain the truth.
                    predicted_flexibility: greedy.predicted_flexibility,
                    placement_order: greedy.placement_order,
                }
            }
            Ok(_) => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.kept_greedy", 1);
                }
                greedy
            }
            Err(_) => {
                if let Some(r) = recorder {
                    r.incr("center.pipeline.failed", 1);
                }
                greedy
            }
        }
    }
}

/// Everything the center recorded about one settled day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct DayRecord {
    /// Day number.
    pub day: u64,
    /// Households that reported in time and were allocated.
    pub participants: Vec<HouseholdId>,
    /// Roster members whose reports never arrived.
    pub missing_reports: Vec<HouseholdId>,
    /// Participants whose meter readings never arrived (settled as
    /// cooperative).
    pub missing_readings: Vec<HouseholdId>,
    /// Households whose reports were quarantined by admission control.
    /// Those with a standing profile participated through it; the rest
    /// were excluded (and so also appear in `missing_reports`).
    pub quarantined: Vec<HouseholdId>,
    /// Participants whose reports were admitted only after clamping.
    pub clamped: Vec<HouseholdId>,
    /// The settlement, when at least one household participated.
    pub settlement: Option<Settlement>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
struct DayInProgress {
    day: u64,
    report_deadline: Tick,
    meter_deadline: Tick,
    /// Raw reports as received; validated only at the report deadline,
    /// then cleared (so checkpoints never persist unvalidated floats).
    /// Retransmissions overwrite idempotently (last write wins), so the
    /// duplicate-household quarantine applies to *batches*, not retries.
    reports: BTreeMap<HouseholdId, RawPreference>,
    /// Admitted reports and the allocation computed from them.
    allocation: Option<(Vec<Report>, AllocationOutcome)>,
    readings: BTreeMap<HouseholdId, Interval>,
    last_day_start: Tick,
    /// Admission decisions for this day, fixed at the report deadline.
    quarantined: Vec<HouseholdId>,
    clamped: Vec<HouseholdId>,
}

/// A durable snapshot of the center's protocol state, written at phase
/// boundaries and restored by [`CenterAgent::recover`].
///
/// Serializable, so a deployment can persist it across process restarts;
/// [`CenterAgent::restore`] rebuilds an agent from a deserialized
/// checkpoint plus the static configuration (mechanism, roster, plan).
///
/// # Commit contract
///
/// The center mutates protocol state freely between phase boundaries,
/// but a checkpoint is only ever taken at one of four commit points:
/// day start, allocation (report deadline), settlement (meter
/// deadline), and empty-day close. Each commit bumps
/// [`CenterAgent::commit_seq`], so a persistence layer can detect
/// "a phase boundary passed" and write the new state *behind* a
/// write-ahead barrier before acknowledging the phase (log → flush →
/// apply). States between commits are volatile by design: a crash
/// rolls back to the previous boundary, and the protocol's idempotent
/// message handling absorbs the replay.
///
/// A checkpoint has two halves. The **live state** — next day, RNG,
/// the day in progress, standing profiles, `last_raw` — is O(roster)
/// and replaced whole at every commit. The **ledger** of settled
/// [`DayRecord`]s only grows: a commit appends at most the record of
/// the day it closes and never rewrites an earlier one. That is what
/// lets the [journal](crate::durable::Journal) write most commits as a
/// delta — the live state plus the ledger's newest records — instead
/// of the whole history, while [`CenterCheckpoint::records`] still
/// returns every settled day.
///
/// Checkpoints never contain unvalidated floats in `current` (raw
/// reports are cleared at the report deadline), but `last_raw`
/// intentionally preserves each household's last submission verbatim —
/// NaN and all — which is why durable serialization uses the bit-exact
/// snapshot codec rather than JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct CenterCheckpoint {
    next_day: u64,
    rng_state: [u64; 4],
    records: Vec<DayRecord>,
    current: Option<DayInProgress>,
    /// The center's standing model of each household's demand: the last
    /// preference admission accepted (or clamped) from it. Used as the
    /// fallback when a household's report is quarantined.
    profiles: BTreeMap<HouseholdId, Preference>,
    /// The last *raw* preference each household ever submitted, kept
    /// across days so admission can flag bit-exact cross-day replays
    /// (a stuck or replaying reporter) without affecting verdicts.
    last_raw: BTreeMap<HouseholdId, RawPreference>,
}

impl CenterCheckpoint {
    /// The settled day records this checkpoint carries — what a
    /// post-recovery audit verifies against the mechanism invariants.
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        &self.records
    }

    /// The day the restored center will run next.
    #[must_use]
    pub fn next_day(&self) -> u64 {
        self.next_day
    }

    /// Whether the live state follows the ledger, as every commit leaves
    /// it: the newest settled day lies below `next_day`, and a day in
    /// progress is day `next_day − 1` and newer than the newest settled
    /// day. A checkpoint failing this would restart a recorded day
    /// after a restore.
    pub(crate) fn live_state_follows_ledger(&self) -> bool {
        let newest = self.records.last().map(|r| r.day);
        newest.is_none_or(|day| day < self.next_day)
            && self.current.as_ref().is_none_or(|current| {
                current.day.checked_add(1) == Some(self.next_day)
                    && newest.is_none_or(|day| day < current.day)
            })
    }

    /// Whether this checkpoint's ledger extends `earlier`'s: it is at
    /// least as long and holds `earlier`'s newest record at the same
    /// position. The ledger is append-only, so for two commits of one
    /// center the boundary record decides; the check is O(roster).
    pub(crate) fn extends(&self, earlier: &Self) -> bool {
        let held = earlier.records.len();
        held <= self.records.len()
            && earlier
                .records
                .last()
                .is_none_or(|last| self.records.get(held - 1) == Some(last))
    }

    /// A delta of this checkpoint against a ledger that already holds
    /// its first `base` records: the live state plus `records[base..]`.
    /// Borrowed, so encoding it copies no history.
    pub(crate) fn delta(&self, base: usize) -> CenterDeltaRef<'_> {
        CenterDeltaRef {
            base: base.min(self.records.len()),
            checkpoint: self,
        }
    }

    /// Moves this checkpoint forward to `later`, which must
    /// [extend](Self::extends) it: the live state is replaced and only
    /// the records this ledger lacks are copied.
    pub(crate) fn advance_to(&mut self, later: &Self) {
        self.next_day = later.next_day;
        self.rng_state = later.rng_state;
        self.current.clone_from(&later.current);
        self.profiles.clone_from(&later.profiles);
        self.last_raw.clone_from(&later.last_raw);
        let held = self.records.len().min(later.records.len());
        self.records.extend_from_slice(&later.records[held..]);
    }

    /// Applies a replayed delta. It applies only when its base lies
    /// within this ledger, the records both hold agree, and it does not
    /// end before this ledger does; otherwise `false`, with `self`
    /// untouched — the caller must treat the ledger as broken, never
    /// guess around the gap.
    pub(crate) fn apply_delta(&mut self, delta: CenterDelta) -> bool {
        let CenterDelta {
            base,
            next_day,
            rng_state,
            current,
            profiles,
            last_raw,
            records,
        } = delta;
        let Ok(base) = usize::try_from(base) else {
            return false;
        };
        let Some(overlap) = self.records.len().checked_sub(base) else {
            return false;
        };
        if records.len() < overlap || self.records[base..] != records[..overlap] {
            return false;
        }
        self.records.extend(records.into_iter().skip(overlap));
        self.next_day = next_day;
        self.rng_state = rng_state;
        self.current = current;
        self.profiles = profiles;
        self.last_raw = last_raw;
        true
    }
}

/// The encoding side of a [`CenterDelta`]: a checkpoint's live state
/// and the tail of its ledger from `base` on, written straight from
/// the borrowed checkpoint.
#[derive(Debug)]
pub(crate) struct CenterDeltaRef<'a> {
    base: usize,
    checkpoint: &'a CenterCheckpoint,
}

/// Writes exactly what [`CenterDelta`]'s derived reader reads: its
/// fields in its declaration order, `base` as a `u64` and the ledger
/// tail as a sequence.
impl Encode for CenterDeltaRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        let c = self.checkpoint;
        u64::try_from(self.base).unwrap_or(u64::MAX).encode(out);
        c.next_day.encode(out);
        c.rng_state.encode(out);
        c.current.encode(out);
        c.profiles.encode(out);
        c.last_raw.encode(out);
        c.records[self.base..].encode(out);
    }
}

/// A replayed center delta: the live state of one commit plus the
/// ledger's records from index `base` on. Decoded from what
/// [`CenterDeltaRef`] writes; the field order is the format.
#[derive(Debug, Decode)]
pub(crate) struct CenterDelta {
    base: u64,
    next_day: u64,
    rng_state: [u64; 4],
    current: Option<DayInProgress>,
    profiles: BTreeMap<HouseholdId, Preference>,
    last_raw: BTreeMap<HouseholdId, RawPreference>,
    records: Vec<DayRecord>,
}

/// Ticks between repeated `DayStart` broadcasts to households that have
/// not reported yet.
const REBROADCAST_INTERVAL: Tick = 5;

/// The center agent.
#[derive(Debug)]
pub struct CenterAgent {
    enki: Enki,
    roster: Vec<HouseholdId>,
    plan: DayPlan,
    rng: StdRng,
    next_day: u64,
    current: Option<DayInProgress>,
    profiles: BTreeMap<HouseholdId, Preference>,
    last_raw: BTreeMap<HouseholdId, RawPreference>,
    /// The last committed checkpoint. Its ledger is the center's only
    /// copy of the settled days: records join it in the commit that
    /// closes their day, and a crash leaves it in place.
    durable: CenterCheckpoint,
    /// Monotone count of phase-boundary commits over the agent's
    /// lifetime (not protocol state: survives crashes, not persisted).
    commit_seq: u64,
    down: bool,
    /// Optional telemetry: admission counters, phase timings, day
    /// outcomes. `None` records nothing and costs nothing.
    recorder: Option<Recorder>,
    /// Seed for deriving deterministic [`TraceContext`]s. Static
    /// configuration (like `plan`): not checkpointed, defaults to 0.
    trace_seed: u64,
    /// Optional allocation refinement through the solver pipeline.
    /// Static configuration (like `plan`), not protocol state: it is not
    /// checkpointed and must be re-supplied on [`CenterAgent::restore`].
    pipeline: Option<PipelineConfig>,
}

impl CenterAgent {
    /// Creates a center driving the given roster.
    ///
    /// # Panics
    ///
    /// Panics if the plan's deadlines are not strictly ordered.
    #[must_use]
    pub fn new(enki: Enki, roster: Vec<HouseholdId>, plan: DayPlan, seed: u64) -> Self {
        assert!(plan.is_valid(), "day plan deadlines must be ordered");
        let rng = StdRng::seed_from_u64(seed);
        let durable = CenterCheckpoint {
            next_day: 0,
            rng_state: rng.state(),
            records: Vec::new(),
            current: None,
            profiles: BTreeMap::new(),
            last_raw: BTreeMap::new(),
        };
        Self {
            enki,
            roster,
            plan,
            rng,
            next_day: 0,
            current: None,
            profiles: BTreeMap::new(),
            last_raw: BTreeMap::new(),
            durable,
            commit_seq: 0,
            down: false,
            recorder: None,
            trace_seed: 0,
            pipeline: None,
        }
    }

    /// Enables allocation refinement: at each report deadline the greedy
    /// outcome is handed to the anytime solver pipeline and replaced when
    /// the pipeline finds a strictly cheaper schedule. See
    /// [`PipelineConfig`] for the determinism contract.
    #[must_use]
    pub fn with_pipeline(mut self, config: PipelineConfig) -> Self {
        self.pipeline = Some(config);
        self
    }

    /// The configured refinement pipeline, if any.
    #[must_use]
    pub fn pipeline(&self) -> Option<PipelineConfig> {
        self.pipeline
    }

    /// Rebuilds a center from a previously persisted checkpoint plus the
    /// static configuration. The result is up and resumes exactly where
    /// the checkpoint left off.
    ///
    /// # Panics
    ///
    /// Panics if the plan's deadlines are not strictly ordered.
    #[must_use]
    pub fn restore(
        enki: Enki,
        roster: Vec<HouseholdId>,
        plan: DayPlan,
        checkpoint: CenterCheckpoint,
    ) -> Self {
        let mut center = Self::new(enki, roster, plan, 0);
        center.recover_from(checkpoint);
        center
    }

    /// Attaches a telemetry recorder. The center emits admission
    /// counters (`center.admission.*`), day-outcome counters
    /// (`center.day.*`), and allocate/settle latency histograms.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// Sets the seed from which the center derives deterministic
    /// [`TraceContext`]s — the same run seed the households use, so
    /// both ends of the wire derive identical causal ids.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = seed;
    }

    /// The mechanism this center runs (e.g. so an oracle can verify
    /// settlements against its configuration).
    #[must_use]
    pub fn enki(&self) -> &Enki {
        &self.enki
    }

    /// The center's network address.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        NodeId::Center
    }

    /// The households this center drives.
    #[must_use]
    pub fn roster(&self) -> &[HouseholdId] {
        &self.roster
    }

    /// The timing of every protocol day this center drives.
    #[must_use]
    pub fn plan(&self) -> DayPlan {
        self.plan
    }

    /// Settled day records so far: the committed ledger, which a crash
    /// does not wipe.
    #[must_use]
    pub fn records(&self) -> &[DayRecord] {
        &self.durable.records
    }

    /// The last committed checkpoint, by reference: what the
    /// [journal](crate::durable::Journal) writes and what
    /// [`CenterAgent::recover`] restores, so the two can never drift
    /// apart. Borrowing it copies nothing.
    #[must_use]
    pub fn checkpoint(&self) -> &CenterCheckpoint {
        &self.durable
    }

    /// An owned copy of the last committed checkpoint, for when it must
    /// outlive the borrow. Copies the whole ledger; the commit path
    /// uses [`CenterAgent::checkpoint`] instead.
    #[must_use]
    pub fn snapshot(&self) -> CenterCheckpoint {
        self.durable.clone()
    }

    /// How many phase-boundary commits have happened over this
    /// agent's lifetime. A persistence layer polls this after each
    /// tick: a change means the durable checkpoint is new and must be
    /// logged (see the [`CenterCheckpoint`] commit contract).
    #[must_use]
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Whether the center is currently crashed.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Commits the live state into the durable checkpoint, with the
    /// record of the day this commit closes (if any) appended to its
    /// ledger. Called at phase boundaries only; O(roster), whatever the
    /// length of the ledger.
    fn commit(&mut self, closed: Option<DayRecord>) {
        let durable = &mut self.durable;
        durable.next_day = self.next_day;
        durable.rng_state = self.rng.state();
        durable.current.clone_from(&self.current);
        durable.profiles.clone_from(&self.profiles);
        durable.last_raw.clone_from(&self.last_raw);
        durable.records.extend(closed);
        self.commit_seq += 1;
    }

    /// Simulates a process crash: all live protocol state is wiped. The
    /// committed checkpoint, ledger included, is what durable storage
    /// holds and survives. The agent ignores messages and ticks until
    /// [`CenterAgent::recover`].
    pub fn crash(&mut self) {
        self.down = true;
        self.current = None;
        self.profiles = BTreeMap::new();
        self.last_raw = BTreeMap::new();
        self.next_day = 0;
        self.rng = StdRng::seed_from_u64(0);
    }

    /// Restarts after a crash, restoring the live protocol state —
    /// including the allocation RNG — from the last committed
    /// checkpoint.
    pub fn recover(&mut self) {
        self.down = false;
        let durable = &self.durable;
        self.next_day = durable.next_day;
        self.rng = StdRng::from_state(durable.rng_state);
        self.current.clone_from(&durable.current);
        self.profiles.clone_from(&durable.profiles);
        self.last_raw.clone_from(&durable.last_raw);
    }

    /// Restarts from an externally recovered checkpoint (e.g. one
    /// replayed out of a write-ahead log), adopting it as the durable
    /// state. [`CenterAgent::recover`] is exactly this applied to the
    /// agent's own [`CenterAgent::checkpoint`] — one restore path, two
    /// sources.
    pub fn recover_from(&mut self, checkpoint: CenterCheckpoint) {
        self.durable = checkpoint;
        self.recover();
    }

    /// The center's standing model of a household's demand: the last
    /// preference admission accepted (or clamped) from it, if any.
    #[must_use]
    pub fn standing_profile(&self, household: HouseholdId) -> Option<Preference> {
        self.profiles.get(&household).copied()
    }

    /// Substitutes the center's standing profile for a household whose
    /// fresh report was shed upstream (e.g. by an overloaded ingestion
    /// front end that classified it replaceable). The profile enters the
    /// day exactly as a submitted report would — idempotently, and only
    /// while reports for `day` are still open. A later real report from
    /// the household overwrites it (last write wins).
    ///
    /// Returns whether a profile was submitted: `false` when the center
    /// is down, the day does not match or already allocated, the
    /// household is unknown, or no standing profile exists.
    pub fn submit_standing(&mut self, day: u64, household: HouseholdId) -> bool {
        if self.down || !self.roster.contains(&household) {
            return false;
        }
        let Some(profile) = self.profiles.get(&household).copied() else {
            return false;
        };
        let Some(current) = self.current.as_mut() else {
            return false;
        };
        if day != current.day || current.allocation.is_some() {
            return false;
        }
        current.reports.entry(household).or_insert(profile.into());
        if let Some(r) = self.recorder.as_ref() {
            r.incr("center.admission.standing_submitted", 1);
        }
        true
    }

    /// Handles a delivered message.
    ///
    /// Handling is idempotent per day and phase: duplicate reports and
    /// readings overwrite identically, messages for a day other than the
    /// one in progress are ignored, and messages for a phase that already
    /// closed (reports after allocation, readings before it) are ignored.
    pub fn on_message(
        &mut self,
        _now: Tick,
        from: NodeId,
        message: Message,
        _outbox: &mut Vec<Envelope>,
    ) {
        if self.down {
            return;
        }
        let NodeId::Household(household) = from else {
            return;
        };
        if !self.roster.contains(&household) {
            return; // unknown sender: never let it into an allocation
        }
        let Some(current) = self.current.as_mut() else {
            return;
        };
        match message {
            Message::SubmitReport { day, preference }
                if day == current.day && current.allocation.is_none() => {
                    current.reports.insert(household, preference);
                }
            Message::MeterReading { day, window }
                if day == current.day && current.allocation.is_some() => {
                    current.readings.insert(household, window);
                }
            _ => {}
        }
    }

    /// Advances the protocol: starts days, allocates at the report
    /// deadline, settles at the meter deadline. Each transition commits
    /// a durable checkpoint before its messages leave the outbox queue.
    pub fn on_tick(&mut self, now: Tick, outbox: &mut Vec<Envelope>) {
        if self.down {
            return;
        }
        // Start a new day once its boundary has been reached. The
        // common case hits the boundary tick exactly; the `>=` form
        // also catches a center that comes back from crash recovery
        // just after a boundary — the missed day then starts late,
        // with its deadlines re-anchored to the present tick, instead
        // of being silently skipped.
        if self.current.is_none() && now / self.plan.day_length.max(1) >= self.next_day {
            let day = self.next_day;
            debug_assert!(
                self.durable.records.last().is_none_or(|r| r.day < day),
                "a recorded day must never restart"
            );
            self.next_day += 1;
            let report_deadline = now + self.plan.report_offset;
            let meter_deadline = now + self.plan.meter_offset;
            self.current = Some(DayInProgress {
                day,
                report_deadline,
                meter_deadline,
                reports: BTreeMap::new(),
                allocation: None,
                readings: BTreeMap::new(),
                last_day_start: now,
                quarantined: Vec::new(),
                clamped: Vec::new(),
            });
            self.commit(None);
            if let Some(r) = self.recorder.as_ref() {
                r.incr("center.day.started", 1);
            }
            let day_start_ctx = TraceContext::day_root(self.trace_seed, day).child("day_start");
            for &h in &self.roster {
                outbox.push(Envelope {
                    from: NodeId::Center,
                    to: NodeId::Household(h),
                    message: Message::DayStart {
                        day,
                        report_deadline,
                        meter_deadline,
                    },
                    trace: Some(day_start_ctx),
                });
            }
            return;
        }

        let Some(current) = self.current.as_mut() else {
            return;
        };

        // Re-broadcast DayStart to silent households while reports are
        // still open — the original broadcast may have been lost.
        if current.allocation.is_none()
            && now < current.report_deadline
            && now >= current.last_day_start + REBROADCAST_INTERVAL
        {
            current.last_day_start = now;
            let day_start_ctx =
                TraceContext::day_root(self.trace_seed, current.day).child("day_start");
            for &h in &self.roster {
                if !current.reports.contains_key(&h) {
                    outbox.push(Envelope {
                        from: NodeId::Center,
                        to: NodeId::Household(h),
                        message: Message::DayStart {
                            day: current.day,
                            report_deadline: current.report_deadline,
                            meter_deadline: current.meter_deadline,
                        },
                        trace: Some(day_start_ctx),
                    });
                }
            }
        }

        // Allocate once the report deadline passes. The raw batch runs
        // through admission control exactly once, here; the decisions are
        // fixed for the day and the raw floats never outlive this tick.
        if current.allocation.is_none() && now >= current.report_deadline {
            let allocate_started = self.recorder.as_ref().map(enki_telemetry::Recorder::now);
            let day = current.day;
            let raw: Vec<RawReport> = current
                .reports
                .iter()
                .map(|(&h, &p)| RawReport::new(h, p))
                .collect();
            current.reports.clear();
            // Admission sees each household's previous-day raw so exact
            // cross-day replays are flagged (counted below; verdicts are
            // unaffected — stable routines legitimately resend).
            let last_raw = &self.last_raw;
            let admission = self
                .enki
                .admit_with_history(&raw, |h| last_raw.get(&h).copied());
            for r in &raw {
                self.last_raw.insert(r.household, r.preference);
            }
            // Every admitted preference refreshes the center's standing
            // model of that household's demand — the quarantine fallback.
            for entry in &admission.entries {
                if let Some(p) = entry.admitted {
                    self.profiles.insert(entry.household, p);
                }
            }
            let profiles = &self.profiles;
            let reports = admission.admitted_with_fallback(|h| profiles.get(&h).copied());
            current.quarantined = admission.quarantined().map(|e| e.household).collect();
            current.clamped = admission.clamped().map(|e| e.household).collect();
            if let Some(r) = self.recorder.as_ref() {
                let quarantined = current.quarantined.len() as u64;
                let clamped = current.clamped.len() as u64;
                let accepted = (raw.len() as u64).saturating_sub(quarantined + clamped);
                r.incr("center.admission.accepted", accepted);
                r.incr("center.admission.clamped", clamped);
                r.incr("center.admission.quarantined", quarantined);
                r.incr(
                    "center.admission.cross_day_replay",
                    admission.cross_day_replays() as u64,
                );
                r.gauge("center.day.participants", reports.len() as f64);
                // One point span per admitted household at the `admit`
                // stage of its report's causal chain.
                for report in &reports {
                    let ctx = TraceContext::report_stage(
                        self.trace_seed,
                        day,
                        u64::from(report.household.index()),
                        stage::ADMIT,
                    );
                    drop(r.span_with_trace("center.admit", ctx));
                }
            }
            if reports.is_empty() {
                // Nobody reported, or nothing survived admission with a
                // usable fallback: close the day with an empty record.
                let record = DayRecord {
                    day,
                    participants: Vec::new(),
                    missing_reports: self.roster.clone(),
                    missing_readings: Vec::new(),
                    quarantined: std::mem::take(&mut current.quarantined),
                    clamped: std::mem::take(&mut current.clamped),
                    settlement: None,
                };
                self.current = None;
                self.commit(Some(record));
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.empty", 1);
                }
                return;
            }
            match self.enki.allocate(&reports, &mut self.rng) {
                Ok(outcome) => {
                    // Refinement draws its seed from the checkpointed RNG
                    // stream inside the same tick that commits the
                    // allocation, so a crash-recovered center replays the
                    // draw and re-derives the same refined windows.
                    let outcome = match self.pipeline {
                        Some(cfg) => {
                            let seed = self.rng.random();
                            // The solve hangs off the day root (shared by
                            // every household): push it as the ambient
                            // context so the pipeline's spans parent on it.
                            let solve_ctx =
                                TraceContext::day_root(self.trace_seed, day).child("solve");
                            if let Some(r) = self.recorder.as_ref() {
                                r.push_trace(solve_ctx);
                            }
                            let refined = cfg.refine(
                                &self.enki,
                                &reports,
                                outcome,
                                seed,
                                self.recorder.as_ref(),
                            );
                            if let Some(r) = self.recorder.as_ref() {
                                let _ = r.pop_trace();
                            }
                            refined
                        }
                        None => outcome,
                    };
                    let assignments = outcome.assignments.clone();
                    current.allocation = Some((reports, outcome));
                    self.commit(None);
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.day.allocated", 1);
                        if let Some(started) = allocate_started {
                            r.observe_duration(
                                "center.allocate_ns",
                                r.now().saturating_sub(started),
                            );
                        }
                    }
                    for assignment in &assignments {
                        outbox.push(Envelope {
                            from: NodeId::Center,
                            to: NodeId::Household(assignment.household),
                            message: Message::Allocation {
                                day,
                                window: assignment.window,
                            },
                            trace: Some(
                                TraceContext::day_root(self.trace_seed, day).child_salted(
                                    "allocation",
                                    u64::from(assignment.household.index()),
                                ),
                            ),
                        });
                    }
                }
                Err(_) => {
                    // Unreachable with admitted reports (non-empty and
                    // duplicate-free), but a solver failure must close
                    // the day, not take the center down.
                    let record = DayRecord {
                        day,
                        participants: Vec::new(),
                        missing_reports: self.roster.clone(),
                        missing_readings: Vec::new(),
                        quarantined: std::mem::take(&mut current.quarantined),
                        clamped: std::mem::take(&mut current.clamped),
                        settlement: None,
                    };
                    self.current = None;
                    self.commit(Some(record));
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.day.allocation_failed", 1);
                    }
                }
            }
            return;
        }

        // Settle once the meter deadline passes.
        if now >= current.meter_deadline {
            let settle_started = self.recorder.as_ref().map(enki_telemetry::Recorder::now);
            if let Some((reports, outcome)) = current.allocation.take() {
                let mut missing_readings = Vec::new();
                let consumption: Vec<Interval> = reports
                    .iter()
                    .zip(&outcome.assignments)
                    .map(|(r, a)| match current.readings.get(&r.household) {
                        Some(&w) => w,
                        None => {
                            missing_readings.push(r.household);
                            a.window // smart-meter fallback: cooperative
                        }
                    })
                    .collect();
                let day = current.day;
                let quarantined = std::mem::take(&mut current.quarantined);
                let clamped = std::mem::take(&mut current.clamped);
                let participants: Vec<HouseholdId> =
                    reports.iter().map(|r| r.household).collect();
                let missing_reports: Vec<HouseholdId> = self
                    .roster
                    .iter()
                    .copied()
                    .filter(|h| !participants.contains(h))
                    .collect();
                // A settlement failure (unreachable with inputs aligned
                // by construction) closes the day unbilled rather than
                // taking the center down.
                let settlement = self.enki.settle(&reports, &outcome, &consumption).ok();
                self.current = None;
                // The record and advanced state commit atomically with
                // billing: a crash after this point can never re-settle
                // the day or bill anyone twice.
                self.commit(Some(DayRecord {
                    day,
                    participants,
                    missing_reports,
                    missing_readings,
                    quarantined,
                    clamped,
                    settlement: settlement.clone(),
                }));
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.settled", 1);
                    r.incr(
                        "center.readings.missing",
                        self.durable
                            .records
                            .last()
                            .map_or(0, |rec| rec.missing_readings.len() as u64),
                    );
                    if let Some(started) = settle_started {
                        r.observe_duration("center.settle_ns", r.now().saturating_sub(started));
                    }
                    // One point span per settled household at the
                    // `settle` stage of its report's causal chain.
                    if let Some(rec) = self.durable.records.last() {
                        for &h in &rec.participants {
                            let ctx = TraceContext::report_stage(
                                self.trace_seed,
                                day,
                                u64::from(h.index()),
                                stage::SETTLE,
                            );
                            drop(r.span_with_trace("center.settle", ctx));
                        }
                    }
                }
                if let Some(settlement) = settlement {
                    if let Some(r) = self.recorder.as_ref() {
                        r.incr("center.bills.sent", settlement.entries.len() as u64);
                    }
                    for entry in &settlement.entries {
                        let ctx = TraceContext::report_stage(
                            self.trace_seed,
                            day,
                            u64::from(entry.household.index()),
                            stage::BILL,
                        );
                        if let Some(r) = self.recorder.as_ref() {
                            drop(r.span_with_trace("center.bill", ctx));
                        }
                        outbox.push(Envelope {
                            from: NodeId::Center,
                            to: NodeId::Household(entry.household),
                            message: Message::Bill {
                                day,
                                amount: entry.payment,
                            },
                            trace: Some(ctx),
                        });
                    }
                }
            } else {
                self.current = None;
                self.commit(None);
                if let Some(r) = self.recorder.as_ref() {
                    r.incr("center.day.unsettled", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enki_core::config::EnkiConfig;

    fn center(n: u32) -> CenterAgent {
        CenterAgent::new(
            Enki::new(EnkiConfig::default()),
            (0..n).map(HouseholdId::new).collect(),
            DayPlan::default(),
            1,
        )
    }

    fn pref(b: f64, e: f64, v: f64) -> RawPreference {
        RawPreference::new(b, e, v)
    }

    #[test]
    fn day_plan_validation() {
        assert!(DayPlan::default().is_valid());
        assert!(!DayPlan {
            day_length: 10,
            report_offset: 8,
            meter_offset: 5,
        }
        .is_valid());
    }

    #[test]
    fn day_start_broadcasts_to_roster() {
        let mut c = center(3);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        assert_eq!(outbox.len(), 3);
        assert!(outbox
            .iter()
            .all(|e| matches!(e.message, Message::DayStart { day: 0, .. })));
    }

    #[test]
    fn reports_allocate_at_deadline() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        outbox.clear();
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        let allocations: Vec<_> = outbox
            .iter()
            .filter(|e| matches!(e.message, Message::Allocation { .. }))
            .collect();
        assert_eq!(allocations.len(), 2);
    }

    #[test]
    fn pipeline_refinement_reaches_the_optimal_packing() {
        // Three 2-hour jobs sharing an 18–24 window pack disjointly; the
        // refined planned cost must hit that optimum and can never
        // exceed whatever the greedy mechanism planned.
        let drive = |pipeline: Option<PipelineConfig>| {
            let mut c = center(3);
            if let Some(cfg) = pipeline {
                c = c.with_pipeline(cfg);
            }
            let mut outbox = Vec::new();
            c.on_tick(0, &mut outbox);
            for i in 0..3u32 {
                c.on_message(
                    5,
                    NodeId::Household(HouseholdId::new(i)),
                    Message::SubmitReport {
                        day: 0,
                        preference: pref(18.0, 24.0, 2.0),
                    },
                    &mut outbox,
                );
            }
            c.on_tick(30, &mut outbox);
            let (_, outcome) = c.current.as_ref().unwrap().allocation.clone().unwrap();
            (outcome, c.enki.config().rate(), c.enki.config().sigma())
        };
        let (greedy, rate, sigma) = drive(None);
        let (refined, _, _) = drive(Some(PipelineConfig::default()));
        assert!(refined.planned_cost <= greedy.planned_cost + 1e-12);
        // Disjoint packing: 6 loaded hours at `rate` ⇒ κ = σ·6·rate².
        assert!(
            enki_core::float::approx_eq(refined.planned_cost, sigma * 6.0 * rate * rate),
            "refined cost {} is not the disjoint optimum",
            refined.planned_cost
        );
        assert_eq!(refined.assignments.len(), 3);
    }

    #[test]
    fn pipeline_refinement_replays_identically_after_crash_recovery() {
        // The refinement seed is drawn from the checkpointed RNG stream
        // inside the allocation tick, so a crash after allocation and a
        // recovery must settle the exact same records as an uncrashed run.
        let drive = |crash: bool| {
            let mut c = center(4).with_pipeline(PipelineConfig::default());
            let mut outbox = Vec::new();
            c.on_tick(0, &mut outbox);
            for i in 0..4u32 {
                c.on_message(
                    5,
                    NodeId::Household(HouseholdId::new(i)),
                    Message::SubmitReport {
                        day: 0,
                        preference: pref(17.0, 23.0, 2.0),
                    },
                    &mut outbox,
                );
            }
            c.on_tick(30, &mut outbox);
            if crash {
                c.crash();
                c.recover();
            }
            c.on_tick(70, &mut outbox);
            c.records().to_vec()
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn duplicate_reports_are_idempotent() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for _ in 0..5 {
            c.on_message(
                3,
                NodeId::Household(HouseholdId::new(0)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        outbox.clear();
        c.on_tick(30, &mut outbox);
        assert_eq!(
            outbox
                .iter()
                .filter(|e| matches!(e.message, Message::Allocation { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn off_roster_senders_are_ignored() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            3,
            NodeId::Household(HouseholdId::new(99)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        outbox.clear();
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none(), "no roster member reported");
    }

    #[test]
    fn missing_reading_settles_as_cooperative() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        // Only household 0 sends its reading.
        let alloc0 = outbox
            .iter()
            .find_map(|e| match (e.to, e.message) {
                (NodeId::Household(h), Message::Allocation { window, .. })
                    if h == HouseholdId::new(0) =>
                {
                    Some(window)
                }
                _ => None,
            })
            .unwrap();
        c.on_message(
            40,
            NodeId::Household(HouseholdId::new(0)),
            Message::MeterReading {
                day: 0,
                window: alloc0,
            },
            &mut outbox,
        );
        outbox.clear();
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.missing_readings, vec![HouseholdId::new(1)]);
        let st = record.settlement.as_ref().unwrap();
        assert!(st.entries.iter().all(|e| !e.defected));
        assert!(st.center_utility >= 0.0);
    }

    #[test]
    fn silent_household_is_excluded() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.missing_reports, vec![HouseholdId::new(1)]);
    }

    #[test]
    fn empty_day_closes_cleanly() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_tick(30, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none());
        assert_eq!(record.missing_reports.len(), 2);
        // The next day still starts.
        outbox.clear();
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .all(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn late_reports_are_ignored_after_allocation() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox); // allocates with household 0 only
        c.on_message(
            31,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
    }

    #[test]
    fn crash_wipes_and_recovery_restores_phase_state() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox); // allocation phase boundary: committed
        c.crash();
        assert!(c.is_down());
        // Down: messages and ticks are inert.
        c.on_message(
            35,
            NodeId::Household(HouseholdId::new(0)),
            Message::MeterReading {
                day: 0,
                window: Interval::new(18, 20).unwrap(),
            },
            &mut outbox,
        );
        c.on_tick(40, &mut outbox);
        c.recover();
        assert!(!c.is_down());
        outbox.clear();
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.day, 0);
        assert_eq!(record.participants.len(), 2, "allocation survived the crash");
        // The reading sent while down was lost; both settle cooperative.
        assert_eq!(record.missing_readings.len(), 2);
        assert_eq!(
            outbox
                .iter()
                .filter(|e| matches!(e.message, Message::Bill { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn recovery_after_settlement_never_duplicates_records_or_bills() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox); // settles and commits atomically
        assert_eq!(c.records().len(), 1);
        c.crash();
        c.recover();
        outbox.clear();
        for t in 71..100 {
            c.on_tick(t, &mut outbox);
        }
        assert_eq!(c.records().len(), 1, "no duplicate record after recovery");
        assert!(
            !outbox.iter().any(|e| matches!(e.message, Message::Bill { .. })),
            "no re-billing after recovery"
        );
        // The next day starts normally.
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .any(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn malformed_report_is_quarantined_and_recorded() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 0,
                preference: pref(f64::NAN, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        // No standing profile yet, so the quarantined household sits out.
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.quarantined, vec![HouseholdId::new(1)]);
        assert!(record.missing_reports.contains(&HouseholdId::new(1)));
        let st = record.settlement.as_ref().unwrap();
        assert!(st.entries.iter().all(|e| e.household == HouseholdId::new(0)));
    }

    #[test]
    fn quarantined_household_falls_back_to_its_standing_profile() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        // Day 0: both report cleanly, establishing standing profiles.
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        // Day 1: household 1's ECC goes haywire.
        c.on_tick(100, &mut outbox);
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 1,
                preference: pref(16.0, 20.0, 2.0),
            },
            &mut outbox,
        );
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(1)),
            Message::SubmitReport {
                day: 1,
                preference: pref(22.0, 18.0, f64::INFINITY),
            },
            &mut outbox,
        );
        c.on_tick(130, &mut outbox);
        c.on_tick(170, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.day, 1);
        // Household 1 still participates, through its day-0 profile.
        assert_eq!(
            record.participants,
            vec![HouseholdId::new(0), HouseholdId::new(1)]
        );
        assert_eq!(record.quarantined, vec![HouseholdId::new(1)]);
        assert!(record.missing_reports.is_empty());
        let st = record.settlement.as_ref().unwrap();
        assert_eq!(st.entries.len(), 2);
        assert!(st.center_utility >= -1e-9);
    }

    #[test]
    fn clamped_report_participates_and_is_recorded() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                // Out of horizon and fractional: admissible after clamping.
                preference: pref(17.5, 30.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.clamped, vec![HouseholdId::new(0)]);
        assert!(record.quarantined.is_empty());
        assert!(record.settlement.is_some());
    }

    #[test]
    fn all_quarantined_day_closes_without_settlement() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(f64::NAN, f64::NAN, f64::NAN),
                },
                &mut outbox,
            );
        }
        outbox.clear();
        c.on_tick(30, &mut outbox);
        let record = c.records().last().unwrap();
        assert!(record.settlement.is_none());
        assert_eq!(record.quarantined.len(), 2);
        assert_eq!(record.missing_reports.len(), 2);
        assert!(outbox.is_empty(), "nothing to allocate");
        // The next day starts normally.
        c.on_tick(100, &mut outbox);
        assert!(outbox
            .iter()
            .any(|e| matches!(e.message, Message::DayStart { day: 1, .. })));
    }

    #[test]
    fn standing_profiles_survive_crash_and_recovery() {
        let mut c = center(1);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        c.on_message(
            5,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 0,
                preference: pref(18.0, 22.0, 2.0),
            },
            &mut outbox,
        );
        c.on_tick(30, &mut outbox);
        c.on_tick(70, &mut outbox);
        c.crash();
        c.recover();
        // Day 1: garbage report; the recovered profile must cover it.
        c.on_tick(100, &mut outbox);
        c.on_message(
            105,
            NodeId::Household(HouseholdId::new(0)),
            Message::SubmitReport {
                day: 1,
                preference: pref(-3.0, 2.0, -1.0),
            },
            &mut outbox,
        );
        c.on_tick(130, &mut outbox);
        c.on_tick(170, &mut outbox);
        let record = c.records().last().unwrap();
        assert_eq!(record.participants, vec![HouseholdId::new(0)]);
        assert_eq!(record.quarantined, vec![HouseholdId::new(0)]);
        assert!(record.settlement.is_some());
    }

    #[test]
    fn checkpoint_roundtrips_through_serde() {
        let mut c = center(2);
        let mut outbox = Vec::new();
        c.on_tick(0, &mut outbox);
        for i in 0..2u32 {
            c.on_message(
                5,
                NodeId::Household(HouseholdId::new(i)),
                Message::SubmitReport {
                    day: 0,
                    preference: pref(18.0, 22.0, 2.0),
                },
                &mut outbox,
            );
        }
        c.on_tick(30, &mut outbox); // checkpoint now holds the allocation
        let json = serde_json::to_string(c.checkpoint()).unwrap();
        let back: CenterCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, c.checkpoint());

        // A center restored from the serialized checkpoint finishes the
        // day exactly like the original.
        let mut restored = CenterAgent::restore(
            Enki::new(EnkiConfig::default()),
            vec![HouseholdId::new(0), HouseholdId::new(1)],
            DayPlan::default(),
            back,
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        c.on_tick(70, &mut a);
        restored.on_tick(70, &mut b);
        assert_eq!(c.records(), restored.records());
        assert_eq!(a, b);
    }
}
