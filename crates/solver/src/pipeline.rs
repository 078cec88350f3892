//! Anytime allocation pipeline with a graceful-degradation ladder.
//!
//! The paper's center calls one solver and assumes it terminates. A
//! production center cannot: the Eq. 2 MIQP can blow any time budget on
//! hard instances, and a solver bug must never take the whole day down
//! with it. This module runs a fixed ladder of increasingly cheap
//! solvers and always returns *some* feasible schedule:
//!
//! 1. [`Rung::Exact`] — branch-and-bound under a per-stage deadline and
//!    node budget. Kept only when it *proves* optimality; an aborted run
//!    contributes its incumbent to the next rung's warm start.
//! 2. [`Rung::LocalSearch`] — coordinate-descent best response, warm
//!    started from the exact stage's incumbent, plus random restarts.
//! 3. [`Rung::Greedy`] — most-constrained-first greedy placement, one
//!    pass, no search.
//! 4. [`Rung::AsReported`] — every household at its reported window
//!    (deferment 0). Always feasible; this is what a no-mechanism world
//!    would do, so it can serve as the floor of last resort.
//!
//! Every stage runs inside [`std::panic::catch_unwind`], so a panicking
//! solver *degrades* to the next rung instead of killing the day. The
//! returned [`SolveOutcome`] records which rung produced the answer, the
//! certified optimality gap, and a per-stage trace with timings — enough
//! to audit, after the fact, exactly how degraded a day was.
//!
//! ```
//! use enki_solver::prelude::*;
//! use enki_core::household::Preference;
//!
//! # fn main() -> Result<(), enki_core::Error> {
//! let problem = AllocationProblem::new(
//!     vec![Preference::new(18, 22, 2)?, Preference::new(18, 22, 2)?],
//!     2.0,
//!     0.3,
//! )?;
//! let outcome = AnytimePipeline::new().solve(&problem)?;
//! assert_eq!(outcome.rung, Rung::Exact);
//! assert!(outcome.proven_optimal);
//! assert_eq!(outcome.certified_gap(), 0.0);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use enki_core::time::HOURS_PER_DAY;
use enki_core::{Error, Result};
use enki_telemetry::{Clock, FieldValue, MonotonicClock, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bounds::{hours_mask, unit_fill_extra};
use crate::exact::BranchAndBound;
use crate::local_search::LocalSearch;
use crate::problem::{AllocationProblem, Solution};

/// A rung of the degradation ladder, from best to cheapest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Rung {
    /// Branch-and-bound proved optimality within budget.
    Exact,
    /// Coordinate-descent local search.
    LocalSearch,
    /// One-pass most-constrained-first greedy placement.
    Greedy,
    /// Everyone at their reported window (deferment 0).
    AsReported,
}

impl Rung {
    /// Stable snake_case identifier, used for telemetry metric names
    /// (e.g. `solve.rung.exact`) and bench records — unlike the
    /// human-facing `Display`.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::LocalSearch => "local_search",
            Self::Greedy => "greedy",
            Self::AsReported => "as_reported",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Exact => write!(f, "exact"),
            Self::LocalSearch => write!(f, "local search"),
            Self::Greedy => write!(f, "greedy"),
            Self::AsReported => write!(f, "as reported"),
        }
    }
}

/// How a single stage of the ladder ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageStatus {
    /// The stage produced its intended answer within budget (for the
    /// exact stage: proved optimality).
    Solved,
    /// The stage hit its deadline or node budget; any incumbent it
    /// produced was handed down the ladder.
    BudgetExhausted,
    /// The stage panicked; the panic was contained and the ladder
    /// degraded to the next rung.
    Panicked,
    /// The stage never ran (disabled, or a higher rung already answered).
    Skipped,
}

/// The per-stage trace entry of a pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Which rung this stage implements.
    pub rung: Rung,
    /// How the stage ended.
    pub status: StageStatus,
    /// Wall-clock time the stage consumed.
    pub elapsed: Duration,
    /// Objective of the solution this stage produced, if any.
    pub objective: Option<f64>,
    /// Search nodes expanded (exact stage only; zero elsewhere).
    pub nodes: u64,
}

/// The result of an anytime solve: a feasible solution, the rung that
/// produced it, and the full ladder trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use = "an unread outcome hides which ladder rung produced the schedule"]
pub struct SolveOutcome {
    /// The best feasible solution found.
    pub solution: Solution,
    /// The rung that produced [`solution`](Self::solution).
    pub rung: Rung,
    /// Whether the exact stage proved this solution optimal.
    pub proven_optimal: bool,
    /// Root lower bound on the optimum (σ-scaled): the union fill, raised
    /// to the exact stage's [`SolveReport::root_bound`](crate::exact::SolveReport::root_bound)
    /// when that stage ran; `0` is the trivial fallback when even the
    /// union fill failed.
    pub root_bound: f64,
    /// One entry per rung, in ladder order, including skipped rungs.
    pub stages: Vec<StageReport>,
}

impl SolveOutcome {
    /// Relative optimality gap certified by the root bound:
    /// `(objective − root_bound)/objective`, clamped to `[0, 1]`. Zero
    /// when proven optimal; an upper bound on the true gap otherwise.
    #[must_use]
    pub fn certified_gap(&self) -> f64 {
        if self.proven_optimal || self.solution.objective <= 0.0 {
            return 0.0;
        }
        ((self.solution.objective - self.root_bound) / self.solution.objective).clamp(0.0, 1.0)
    }

    /// Whether the answer came from anywhere below a proven-optimal
    /// exact solve.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !(self.rung == Rung::Exact && self.proven_optimal)
    }

    /// The trace entry for a rung.
    #[must_use]
    pub fn stage(&self, rung: Rung) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.rung == rung)
    }
}

/// The anytime solve pipeline. See the [module docs](self) for the
/// ladder it runs.
#[derive(Debug, Clone)]
pub struct AnytimePipeline {
    exact_enabled: bool,
    exact_time_limit: Duration,
    exact_node_limit: u64,
    restarts: usize,
    seed: u64,
    threads: usize,
    profiling: bool,
    /// Time source for stage timing and the exact stage's deadline. The
    /// production default is the real monotonic clock; tests inject a
    /// virtual clock so degradation behaviour is deterministic.
    clock: Arc<dyn Clock>,
    /// Test-only fault injection: the stage for this rung panics on
    /// entry, exercising the containment path.
    injected_panic: Option<Rung>,
}

impl AnytimePipeline {
    /// A pipeline with a 250 ms / 2·10⁶-node exact stage and 8 local
    /// search restarts — generous for day-sized neighborhoods while
    /// bounding the worst case.
    #[must_use]
    pub fn new() -> Self {
        Self {
            exact_enabled: true,
            exact_time_limit: Duration::from_millis(250),
            exact_node_limit: 2_000_000,
            restarts: 8,
            seed: 0x5eed_f00d,
            threads: 1,
            profiling: false,
            clock: Arc::new(MonotonicClock::new()),
            injected_panic: None,
        }
    }

    /// Thread budget for the solve. `1` (the default) runs the sequential
    /// degradation ladder unchanged. With `n ≥ 2` the exact and
    /// local-search rungs *race* on the work-stealing pool of
    /// [`crate::par`] instead of running one after the other: the exact
    /// rung gets `n − 1` threads of speculative branch-and-bound, local
    /// search gets the remaining lane, and both run against the exact
    /// stage's deadline. The winner is picked by a deterministic
    /// preference rule — a proven-optimal exact result always wins,
    /// otherwise the better objective with ties to the later (cheaper)
    /// rung, exactly like the sequential ladder — so the outcome never
    /// depends on which lane happened to finish first.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured thread budget.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables per-phase profiling of the exact rung. The racing
    /// portfolio then reports a [`PhaseProfile`](crate::par::PhaseProfile)
    /// in its [`ParStats`](crate::par::ParStats) and records the phase
    /// timings on the `solve.exact` span. Off by default: the timings are
    /// wall-clock and scheduling-dependent, so they must never leak into
    /// byte-reproducible traces unless explicitly requested.
    #[must_use]
    pub fn with_profiling(mut self, profiling: bool) -> Self {
        self.profiling = profiling;
        self
    }

    /// Overrides the exact stage's wall-clock deadline. A deadline of
    /// (near) zero makes the exact stage abort immediately, forcing the
    /// answer onto a lower rung — useful under load shedding.
    #[must_use]
    pub fn with_exact_time_limit(mut self, limit: Duration) -> Self {
        self.exact_time_limit = limit;
        self
    }

    /// Overrides the exact stage's node budget.
    #[must_use]
    pub fn with_exact_node_limit(mut self, limit: u64) -> Self {
        self.exact_node_limit = limit.max(1);
        self
    }

    /// Disables the exact stage entirely (the ladder starts at local
    /// search).
    #[must_use]
    pub fn without_exact(mut self) -> Self {
        self.exact_enabled = false;
        self
    }

    /// Number of random restarts for the local-search stage.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Seed for all randomized stages (determinism).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects the time source for stage timing and the exact stage's
    /// deadline (threaded through to [`BranchAndBound`]). With a
    /// [`VirtualClock`](enki_telemetry::VirtualClock), a zero-deadline
    /// degradation is exact arithmetic instead of a race against the
    /// host's scheduler.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Fault injection for tests: makes the given rung's stage panic on
    /// entry so the containment and degradation path can be exercised.
    #[doc(hidden)]
    #[must_use]
    pub fn with_injected_panic(mut self, rung: Rung) -> Self {
        self.injected_panic = Some(rung);
        self
    }

    /// Runs the ladder until a rung answers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SolveFailed`] only if **every** rung — including
    /// the as-reported floor — panics; any single surviving rung yields
    /// `Ok`.
    #[must_use = "dropping the outcome loses the solution and which rung produced it"]
    pub fn solve(&self, problem: &AllocationProblem) -> Result<SolveOutcome> {
        self.solve_traced(problem, None)
    }

    /// [`solve`](Self::solve) with telemetry: a `solve` span wrapping one
    /// child span per rung that ran, each carrying nodes expanded,
    /// objective, status, and (for the exact stage) the certified gap and
    /// remaining deadline slack. Metrics count answers per rung, degraded
    /// solves, nodes expanded, and per-stage latency. `None` records
    /// nothing and behaves exactly like `solve`.
    ///
    /// # Errors
    ///
    /// Exactly as [`solve`](Self::solve).
    #[must_use = "dropping the outcome loses the solution and which rung produced it"]
    pub fn solve_traced(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
    ) -> Result<SolveOutcome> {
        self.solve_traced_with_stats(problem, recorder)
            .map(|(outcome, _)| outcome)
    }

    /// [`solve_traced`](Self::solve_traced), additionally returning the
    /// parallel-run statistics (task, steal, and re-validation counters)
    /// of the racing solve. With one thread the statistics are those of
    /// [`ParStats::sequential`](crate::par::ParStats::sequential). The
    /// counters are scheduling-dependent, which is why they live here and
    /// not in the byte-reproducible [`SolveOutcome`] or the telemetry
    /// trace.
    ///
    /// # Errors
    ///
    /// Exactly as [`solve`](Self::solve).
    #[must_use = "dropping the outcome loses the solution and which rung produced it"]
    pub fn solve_traced_with_stats(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
    ) -> Result<(SolveOutcome, crate::par::ParStats)> {
        let mut span = recorder.map(|r| {
            let mut s = r.span("solve");
            s.record("households", problem.len());
            s
        });
        let result = self.run_ladder(problem, recorder);
        if let Ok((outcome, _)) = &result {
            if let Some(s) = span.as_mut() {
                s.record("rung", outcome.rung.to_string());
                s.record("proven_optimal", outcome.proven_optimal);
                s.record("certified_gap", outcome.certified_gap());
                s.record("objective", outcome.solution.objective);
            }
            if let Some(r) = recorder {
                r.incr(&format!("solve.rung.{}", outcome.rung.key()), 1);
                if outcome.degraded() {
                    r.incr("solve.degraded", 1);
                }
                for stage in &outcome.stages {
                    if stage.status != StageStatus::Skipped {
                        r.observe_duration("solve.stage_ns", stage.elapsed);
                    }
                    if stage.nodes > 0 {
                        r.incr("solve.nodes_expanded", stage.nodes);
                    }
                }
                // A contained rung panic is survivable (the ladder
                // degraded), but it is never expected: capture the
                // flight ring while the evidence is still in it.
                if let Some(panicked) = outcome
                    .stages
                    .iter()
                    .find(|s| s.status == StageStatus::Panicked)
                {
                    let _ = r.postmortem(
                        "solver.rung_panicked",
                        &[
                            ("rung", FieldValue::Str(panicked.rung.key().to_string())),
                            ("answered_by", FieldValue::Str(outcome.rung.key().to_string())),
                            ("households", FieldValue::U64(problem.len() as u64)),
                        ],
                    );
                }
            }
        }
        result
    }

    fn run_ladder(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
    ) -> Result<(SolveOutcome, crate::par::ParStats)> {
        if self.threads > 1 && self.exact_enabled {
            return self.run_racing(problem, recorder);
        }
        self.run_sequential_ladder(problem, recorder)
            .map(|outcome| (outcome, crate::par::ParStats::sequential()))
    }

    /// The original one-rung-after-another ladder (thread budget 1).
    fn run_sequential_ladder(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
    ) -> Result<SolveOutcome> {
        // Cheap root bound, valid for whatever rung ends up answering.
        // Falls back to the trivial bound 0 if the computation panics; an
        // exact stage that certified a tighter one raises it below.
        let mut root_bound = run_contained(|| Ok(root_bound(problem)))
            .ok()
            .flatten()
            .unwrap_or(0.0);

        let mut stages: Vec<StageReport> = Vec::with_capacity(4);
        // Best feasible solution so far and the rung that produced it.
        let mut best: Option<(Solution, Rung)> = None;

        // Rung 1: exact branch-and-bound.
        let mut proven = false;
        if self.exact_enabled {
            let mut span = recorder.map(|r| r.span("solve.exact"));
            let started = self.clock.now();
            let solver = BranchAndBound::new()
                .with_time_limit(self.exact_time_limit)
                .with_node_limit(self.exact_node_limit)
                .with_seed(self.seed)
                .with_clock(Arc::clone(&self.clock))
                .with_profiling(self.profiling);
            let run = self.stage(Rung::Exact, || solver.solve(problem));
            let elapsed = self.clock.now().saturating_sub(started);
            if let Some(s) = span.as_mut() {
                // Slack left on the stage deadline; negative means the
                // solver overshot before its periodic deadline check.
                let limit = i64::try_from(self.exact_time_limit.as_nanos()).unwrap_or(i64::MAX);
                let spent = i64::try_from(elapsed.as_nanos()).unwrap_or(i64::MAX);
                s.record("deadline_slack_ns", limit.saturating_sub(spent));
            }
            match run {
                Ok(Some(report)) => {
                    proven = report.proven_optimal;
                    root_bound = root_bound.max(report.root_bound);
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(if proven {
                            StageStatus::Solved
                        } else {
                            StageStatus::BudgetExhausted
                        }));
                        s.record("nodes", report.nodes);
                        s.record("objective", report.solution.objective);
                        s.record("certified_gap", report.certified_gap());
                    }
                    stages.push(StageReport {
                        rung: Rung::Exact,
                        status: if proven {
                            StageStatus::Solved
                        } else {
                            StageStatus::BudgetExhausted
                        },
                        elapsed,
                        objective: Some(report.solution.objective),
                        nodes: report.nodes,
                    });
                    best = Some((report.solution, Rung::Exact));
                }
                Ok(None) | Err(_) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::Exact,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        } else {
            stages.push(skipped(Rung::Exact));
        }

        if proven {
            stages.push(skipped(Rung::LocalSearch));
            stages.push(skipped(Rung::Greedy));
            stages.push(skipped(Rung::AsReported));
            // `proven` is only set by an exact stage that stored `best`.
            let Some((solution, rung)) = best else {
                return Err(Error::SolveFailed { stage: "exact" });
            };
            return Ok(SolveOutcome {
                solution,
                rung,
                proven_optimal: true,
                root_bound,
                stages,
            });
        }

        // Rung 2: local search, warm started from the exact incumbent.
        let mut answered = false;
        {
            let mut span = recorder.map(|r| r.span("solve.local_search"));
            let started = self.clock.now();
            let warm = best
                .as_ref()
                .map_or_else(|| vec![0; problem.len()], |(s, _)| s.deferments.clone());
            let restarts = self.restarts;
            let seed = self.seed;
            let run = self.stage(Rung::LocalSearch, || {
                let search = LocalSearch::new();
                let warm_started = search.improve(problem, warm.clone())?;
                let mut rng = StdRng::seed_from_u64(seed);
                let restarted = search.solve(problem, restarts, &mut rng)?;
                Ok(if restarted.objective < warm_started.objective {
                    restarted
                } else {
                    warm_started
                })
            });
            let elapsed = self.clock.now().saturating_sub(started);
            match run {
                Ok(Some(solution)) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Solved));
                        s.record("objective", solution.objective);
                        s.record("restarts", restarts);
                    }
                    stages.push(StageReport {
                        rung: Rung::LocalSearch,
                        status: StageStatus::Solved,
                        elapsed,
                        objective: Some(solution.objective),
                        nodes: 0,
                    });
                    // The warm start makes this no worse than the exact
                    // incumbent, so ties go to the rung that actually ran.
                    best = Some(take_better(best, solution, Rung::LocalSearch));
                    answered = true;
                }
                Ok(None) | Err(_) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::LocalSearch,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        }

        self.finish_ladder(problem, recorder, root_bound, stages, best, answered)
    }

    /// Races the exact and local-search rungs on the work-stealing pool
    /// (thread budget ≥ 2), then falls through to the same greedy and
    /// as-reported tail as the sequential ladder. Both lanes are
    /// individually deterministic and the winner is chosen by rung
    /// preference — proven exact first, then the better objective with
    /// ties to the cheaper rung — never by finish order.
    fn run_racing(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
    ) -> Result<(SolveOutcome, crate::par::ParStats)> {
        let mut root_bound = run_contained(|| Ok(root_bound(problem)))
            .ok()
            .flatten()
            .unwrap_or(0.0);
        let mut stages: Vec<StageReport> = Vec::with_capacity(4);

        // One lane is reserved for local search; the rest of the budget
        // goes to the speculative branch-and-bound.
        let exact_threads = self.threads - 1;
        let solver = BranchAndBound::new()
            .with_time_limit(self.exact_time_limit)
            .with_node_limit(self.exact_node_limit)
            .with_seed(self.seed)
            .with_clock(Arc::clone(&self.clock))
            .with_threads(exact_threads)
            .with_profiling(self.profiling);
        let restarts = self.restarts;
        let seed = self.seed;
        let clock = Arc::clone(&self.clock);
        let inject = self.injected_panic;

        enum Lane {
            Exact,
            Local,
        }
        enum LaneResult {
            Exact(Result<(crate::exact::SolveReport, crate::par::ParStats)>, Duration),
            Local(Result<Solution>, Duration),
        }
        let (slots, pool) =
            crate::par::run_jobs(2, vec![Lane::Exact, Lane::Local], |lane| match lane {
                Lane::Exact => {
                    let started = clock.now();
                    assert!(
                        inject != Some(Rung::Exact),
                        "injected panic in the exact stage"
                    );
                    let run = solver.solve_with_stats(problem);
                    LaneResult::Exact(run, clock.now().saturating_sub(started))
                }
                Lane::Local => {
                    let started = clock.now();
                    assert!(
                        inject != Some(Rung::LocalSearch),
                        "injected panic in the local search stage"
                    );
                    let mut rng = StdRng::seed_from_u64(seed);
                    let run = LocalSearch::new().solve(problem, restarts, &mut rng);
                    LaneResult::Local(run, clock.now().saturating_sub(started))
                }
            });
        let mut slots = slots.into_iter();
        let exact_slot = slots.next().flatten();
        let local_slot = slots.next().flatten();

        let mut stats = crate::par::ParStats {
            threads: self.threads,
            ..crate::par::ParStats::default()
        };
        stats.steals += pool.steals;

        // Exact lane. A panicked lane left its slot empty (`None`).
        let mut proven = false;
        let mut best: Option<(Solution, Rung)> = None;
        {
            let mut span = recorder.map(|r| {
                let mut s = r.span("solve.exact");
                // Deterministic configuration only: the steal and
                // re-validation counters are scheduling-dependent and
                // must stay out of byte-reproducible traces.
                s.record("racing", true);
                s.record("threads", exact_threads);
                s
            });
            match exact_slot {
                Some(LaneResult::Exact(Ok((report, lane_stats)), elapsed)) => {
                    proven = report.proven_optimal;
                    root_bound = root_bound.max(report.root_bound);
                    stats.tasks = lane_stats.tasks;
                    stats.accepted = lane_stats.accepted;
                    stats.revalidated = lane_stats.revalidated;
                    stats.speculative_nodes = lane_stats.speculative_nodes;
                    stats.steals += lane_stats.steals;
                    stats.profile = lane_stats.profile;
                    let status = if proven {
                        StageStatus::Solved
                    } else {
                        StageStatus::BudgetExhausted
                    };
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(status));
                        s.record("nodes", report.nodes);
                        s.record("objective", report.solution.objective);
                        s.record("certified_gap", report.certified_gap());
                        // Phase timings are wall-clock and scheduling-
                        // dependent; they only reach the trace when the
                        // caller opted into profiling, which forfeits
                        // byte-reproducibility of this span.
                        if let Some(profile) = &stats.profile {
                            s.record("profile.enumerate_ns", profile.enumerate_ns);
                            s.record("profile.speculate_ns", profile.speculate_ns);
                            s.record("profile.validate_ns", profile.validate_ns);
                            s.record("profile.bound_ns", profile.bound_ns);
                            s.record("profile.bound_evals", profile.bound_evals);
                            s.record("profile.bound_cache_hits", profile.bound_cache_hits);
                        }
                    }
                    stages.push(StageReport {
                        rung: Rung::Exact,
                        status,
                        elapsed,
                        objective: Some(report.solution.objective),
                        nodes: report.nodes,
                    });
                    best = Some((report.solution, Rung::Exact));
                }
                Some(LaneResult::Exact(Err(_), elapsed)) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::Exact,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
                _ => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::Exact,
                        status: StageStatus::Panicked,
                        elapsed: Duration::ZERO,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        }

        // Local-search lane.
        let mut answered = false;
        {
            let mut span = recorder.map(|r| {
                let mut s = r.span("solve.local_search");
                s.record("racing", true);
                s
            });
            match local_slot {
                Some(LaneResult::Local(Ok(restarted), elapsed)) => {
                    // The racing lane could not see the exact lane's
                    // incumbent while both were running, so replicate the
                    // sequential ladder's warm start now: descend from
                    // the exact result and keep the better of the two,
                    // ties to the warm-started descent. Without this
                    // fold, an exact lane that improves its incumbent
                    // without proving would make the racing and
                    // sequential drives' local rungs disagree.
                    let warm = best
                        .as_ref()
                        .map_or_else(|| vec![0; problem.len()], |(s, _)| s.deferments.clone());
                    let folded = run_contained(|| {
                        let warm_started = LocalSearch::new().improve(problem, warm)?;
                        Ok(if restarted.objective < warm_started.objective {
                            restarted
                        } else {
                            warm_started
                        })
                    })
                    .ok()
                    .flatten();
                    if let Some(solution) = folded {
                        if let Some(s) = span.as_mut() {
                            s.record("status", stage_status_key(StageStatus::Solved));
                            s.record("objective", solution.objective);
                            s.record("restarts", restarts);
                        }
                        stages.push(StageReport {
                            rung: Rung::LocalSearch,
                            status: StageStatus::Solved,
                            elapsed,
                            objective: Some(solution.objective),
                            nodes: 0,
                        });
                        // A proven exact answer always wins the race;
                        // below a proof, the usual ladder preference
                        // applies.
                        if !proven {
                            best = Some(take_better(best, solution, Rung::LocalSearch));
                            answered = true;
                        }
                    } else {
                        if let Some(s) = span.as_mut() {
                            s.record("status", stage_status_key(StageStatus::Panicked));
                        }
                        stages.push(StageReport {
                            rung: Rung::LocalSearch,
                            status: StageStatus::Panicked,
                            elapsed,
                            objective: None,
                            nodes: 0,
                        });
                    }
                }
                Some(LaneResult::Local(Err(_), elapsed)) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::LocalSearch,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
                _ => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::LocalSearch,
                        status: StageStatus::Panicked,
                        elapsed: Duration::ZERO,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        }

        if proven {
            stages.push(skipped(Rung::Greedy));
            stages.push(skipped(Rung::AsReported));
            let Some((solution, rung)) = best else {
                return Err(Error::SolveFailed { stage: "exact" });
            };
            return Ok((
                SolveOutcome {
                    solution,
                    rung,
                    proven_optimal: true,
                    root_bound,
                    stages,
                },
                stats,
            ));
        }
        // An unproven exact result alone does not end the ladder (the
        // sequential ladder would keep descending too); only a surviving
        // local-search answer does.
        self.finish_ladder(problem, recorder, root_bound, stages, best, answered)
            .map(|outcome| (outcome, stats))
    }

    /// Rungs 3 and 4 — greedy and the as-reported floor — plus the final
    /// assembly, shared by the sequential ladder and the racing
    /// portfolio.
    fn finish_ladder(
        &self,
        problem: &AllocationProblem,
        recorder: Option<&Recorder>,
        root_bound: f64,
        mut stages: Vec<StageReport>,
        mut best: Option<(Solution, Rung)>,
        mut answered: bool,
    ) -> Result<SolveOutcome> {
        // Rung 3: greedy. Only runs if local search did not answer.
        if answered {
            stages.push(skipped(Rung::Greedy));
        } else {
            let mut span = recorder.map(|r| r.span("solve.greedy"));
            let started = self.clock.now();
            let run = self.stage(Rung::Greedy, || greedy(problem));
            let elapsed = self.clock.now().saturating_sub(started);
            match run {
                Ok(Some(solution)) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Solved));
                        s.record("objective", solution.objective);
                    }
                    stages.push(StageReport {
                        rung: Rung::Greedy,
                        status: StageStatus::Solved,
                        elapsed,
                        objective: Some(solution.objective),
                        nodes: 0,
                    });
                    best = Some(take_better(best, solution, Rung::Greedy));
                    answered = true;
                }
                Ok(None) | Err(_) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::Greedy,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        }

        // Rung 4: the as-reported floor.
        if answered {
            stages.push(skipped(Rung::AsReported));
        } else {
            let mut span = recorder.map(|r| r.span("solve.as_reported"));
            let started = self.clock.now();
            let run = self.stage(Rung::AsReported, || {
                Solution::from_deferments(problem, vec![0; problem.len()])
            });
            let elapsed = self.clock.now().saturating_sub(started);
            match run {
                Ok(Some(solution)) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Solved));
                        s.record("objective", solution.objective);
                    }
                    stages.push(StageReport {
                        rung: Rung::AsReported,
                        status: StageStatus::Solved,
                        elapsed,
                        objective: Some(solution.objective),
                        nodes: 0,
                    });
                    best = Some(take_better(best, solution, Rung::AsReported));
                }
                Ok(None) | Err(_) => {
                    if let Some(s) = span.as_mut() {
                        s.record("status", stage_status_key(StageStatus::Panicked));
                    }
                    stages.push(StageReport {
                        rung: Rung::AsReported,
                        status: StageStatus::Panicked,
                        elapsed,
                        objective: None,
                        nodes: 0,
                    });
                }
            }
        }

        match best {
            Some((solution, rung)) => Ok(SolveOutcome {
                solution,
                rung,
                proven_optimal: false,
                root_bound,
                stages,
            }),
            None => Err(Error::SolveFailed {
                stage: "as reported",
            }),
        }
    }

    /// Runs one stage body with panic containment (and test-only panic
    /// injection). `Ok(None)` means the stage panicked.
    fn stage<T>(&self, rung: Rung, body: impl FnOnce() -> Result<T>) -> Result<Option<T>> {
        let inject = self.injected_panic == Some(rung);
        run_contained(move || {
            assert!(!inject, "injected panic in the {rung} stage");
            body()
        })
    }
}

impl Default for AnytimePipeline {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs a closure, converting a panic into `Ok(None)`.
fn run_contained<T>(body: impl FnOnce() -> Result<T>) -> Result<Option<T>> {
    match panic::catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(value)) => Ok(Some(value)),
        Ok(Err(e)) => Err(e),
        Err(_) => Ok(None),
    }
}

/// Stable snake_case identifier recorded in stage span `status` fields.
fn stage_status_key(status: StageStatus) -> &'static str {
    match status {
        StageStatus::Solved => "solved",
        StageStatus::BudgetExhausted => "budget_exhausted",
        StageStatus::Panicked => "panicked",
        StageStatus::Skipped => "skipped",
    }
}

fn skipped(rung: Rung) -> StageReport {
    StageReport {
        rung,
        status: StageStatus::Skipped,
        elapsed: Duration::ZERO,
        objective: None,
        nodes: 0,
    }
}

/// Keeps the strictly better solution; ties go to the newly produced
/// one, so the reported rung is the one that actually ran last.
fn take_better(
    best: Option<(Solution, Rung)>,
    candidate: Solution,
    rung: Rung,
) -> (Solution, Rung) {
    match best {
        Some((incumbent, incumbent_rung)) if incumbent.objective < candidate.objective - 1e-12 => {
            (incumbent, incumbent_rung)
        }
        _ => (candidate, rung),
    }
}

/// The σ-scaled root relaxation bound: optimally pack every household's
/// whole slot-hours over the union of all windows. Computed on the flat
/// fixed-point representation — integer unit counts of the shared rate —
/// and scaled to currency by `σ·rate²` in one exact conversion at the
/// end, like the solver's own bounds.
fn root_bound(problem: &AllocationProblem) -> f64 {
    let mut mask = 0u32;
    let mut units = 0u32;
    for p in problem.preferences() {
        mask |= hours_mask(p.begin(), p.end());
        units += u32::from(p.duration());
    }
    let rate = problem.rate();
    let fill = unit_fill_extra(&[0u32; HOURS_PER_DAY], mask, units);
    problem.sigma() * rate * rate * (fill as f64)
}

/// One-pass greedy: most-constrained household first, each placed at
/// its cheapest deferment against the load built so far. No search, no
/// randomness, and errors instead of panics throughout.
fn greedy(problem: &AllocationProblem) -> Result<Solution> {
    let n = problem.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let p = &problem.preferences()[i];
        (
            problem.choices(i),
            std::cmp::Reverse(p.duration()),
            p.begin(),
        )
    });
    let rate = problem.rate();
    let mut loads = [0.0f64; HOURS_PER_DAY];
    let mut deferments = vec![0u8; n];
    for &i in &order {
        let p = &problem.preferences()[i];
        let mut best_d = 0u8;
        let mut best_delta = f64::INFINITY;
        for d in 0..=p.slack() {
            let w = p.window_at_deferment(d)?;
            let delta: f64 = w
                .slots()
                .map(|h| {
                    let l = loads[h as usize];
                    (l + rate) * (l + rate) - l * l
                })
                .sum();
            if delta < best_delta - 1e-12 {
                best_delta = delta;
                best_d = d;
            }
        }
        deferments[i] = best_d;
        for h in p.window_at_deferment(best_d)?.slots() {
            loads[h as usize] += rate;
        }
    }
    Solution::from_deferments(problem, deferments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force;
    use enki_core::household::Preference;

    fn pref(b: u8, e: u8, v: u8) -> Preference {
        Preference::new(b, e, v).unwrap()
    }

    fn problem(prefs: Vec<Preference>) -> AllocationProblem {
        AllocationProblem::new(prefs, 2.0, 0.3).unwrap()
    }

    #[test]
    fn easy_instance_is_proven_on_the_exact_rung() {
        let p = problem(vec![pref(18, 22, 2), pref(18, 22, 2), pref(18, 21, 1)]);
        let o = AnytimePipeline::new().solve(&p).unwrap();
        assert_eq!(o.rung, Rung::Exact);
        assert!(o.proven_optimal);
        assert!(!o.degraded());
        assert_eq!(o.certified_gap(), 0.0);
        let brute = brute_force(&p).unwrap();
        assert!((o.solution.objective - brute.objective).abs() < 1e-9);
        // The full ladder is traced, lower rungs marked skipped.
        assert_eq!(o.stages.len(), 4);
        assert_eq!(o.stage(Rung::Greedy).unwrap().status, StageStatus::Skipped);
    }

    #[test]
    fn zero_deadline_degrades_to_a_lower_rung() {
        // Forcing a deadline of ~0 on the exact stage must yield an
        // outcome from a lower rung with the degradation recorded —
        // never a panic or an unsolved day.
        let p = problem(vec![pref(0, 24, 2); 12]);
        let o = AnytimePipeline::new()
            .with_exact_time_limit(Duration::ZERO)
            .solve(&p)
            .unwrap();
        assert!(o.rung > Rung::Exact, "rung = {:?}", o.rung);
        assert!(o.degraded());
        assert!(!o.proven_optimal);
        assert_eq!(
            o.stage(Rung::Exact).unwrap().status,
            StageStatus::BudgetExhausted
        );
        assert_eq!(o.solution.deferments.len(), 12);
        let gap = o.certified_gap();
        assert!((0.0..=1.0).contains(&gap));
    }

    #[test]
    fn node_limit_returns_incumbent_with_correct_certified_gap() {
        // Regression (satellite): a stage hitting its node limit still
        // returns the incumbent, and the certified gap brackets the
        // true optimum.
        let p = problem(vec![pref(0, 24, 2); 10]);
        let o = AnytimePipeline::new()
            .with_exact_node_limit(1)
            .solve(&p)
            .unwrap();
        assert!(o.degraded());
        assert_eq!(
            o.stage(Rung::Exact).unwrap().status,
            StageStatus::BudgetExhausted
        );
        // The incumbent is feasible and its gap is certified by the
        // root bound: root_bound ≤ optimum ≤ objective.
        assert_eq!(o.solution.deferments.len(), 10);
        assert!(o.root_bound > 0.0);
        assert!(o.root_bound <= o.solution.objective + 1e-9);
        let gap = o.certified_gap();
        assert!((0.0..=1.0).contains(&gap), "gap = {gap}");
        assert!(
            o.solution.objective * (1.0 - gap) <= o.root_bound + 1e-9,
            "gap must be consistent with the bound"
        );
    }

    #[test]
    fn an_unproven_solve_reports_the_exact_stages_tighter_bound() {
        // The windows crowd the evening, so the union fill spreads the
        // load over hours most households cannot use; the exact stage's
        // root bound knows where the windows are. One node aborts the
        // search before any proof, on either ladder.
        let p = problem(
            std::iter::repeat_n(pref(16, 22, 3), 4)
                .chain(std::iter::repeat_n(pref(18, 21, 2), 3))
                .chain([pref(0, 24, 1)])
                .collect(),
        );
        let union = root_bound(&p);
        let optimum = brute_force(&p).unwrap().objective;
        for threads in [1usize, 2] {
            let o = AnytimePipeline::new()
                .with_threads(threads)
                .with_exact_node_limit(1)
                .solve(&p)
                .unwrap();
            assert!(!o.proven_optimal);
            assert!(o.root_bound > union, "{} vs union fill {union}", o.root_bound);
            assert!(o.root_bound <= optimum + 1e-9, "{} > optimum {optimum}", o.root_bound);
            let union_gap = ((o.solution.objective - union) / o.solution.objective).clamp(0.0, 1.0);
            assert!(o.certified_gap() < union_gap, "threads = {threads}");
        }
    }

    #[test]
    fn zero_deadline_degradation_is_deterministic_under_a_virtual_clock() {
        use enki_telemetry::VirtualClock;
        // Satellite: the degradation decision must not depend on how
        // fast the host happens to run. With an injected virtual clock
        // the exact stage's deadline fires at the root node every time,
        // so two runs produce identical outcomes (stage timings
        // included — every duration is exactly zero virtual time).
        let p = problem(vec![pref(0, 24, 2); 12]);
        let run = || {
            AnytimePipeline::new()
                .with_exact_time_limit(Duration::ZERO)
                .with_clock(VirtualClock::new())
                .solve(&p)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.rung > Rung::Exact);
        assert_eq!(
            a.stage(Rung::Exact).unwrap().status,
            StageStatus::BudgetExhausted
        );
        assert_eq!(a.stage(Rung::Exact).unwrap().elapsed, Duration::ZERO);
        assert_eq!(a.stage(Rung::Exact).unwrap().nodes, 1);
    }

    #[test]
    fn traced_solve_records_rung_spans_and_metrics() {
        use enki_telemetry::{Telemetry, VirtualClock};
        let clock = VirtualClock::new();
        let telemetry =
            Telemetry::with_virtual_clock("pipeline-test", 0, std::sync::Arc::clone(&clock));
        let recorder = telemetry.recorder();
        let p = problem(vec![pref(18, 22, 2), pref(18, 22, 2)]);
        let outcome = AnytimePipeline::new()
            .with_clock(clock)
            .solve_traced(&p, Some(&recorder))
            .unwrap();
        recorder.flush();
        assert_eq!(outcome.rung, Rung::Exact);
        let spans = telemetry.spans();
        let solve = spans.iter().find(|s| s.name == "solve").unwrap();
        let exact = spans.iter().find(|s| s.name == "solve.exact").unwrap();
        assert_eq!(exact.parent, Some(solve.id));
        assert!(exact.field("nodes").is_some());
        assert!(exact.field("deadline_slack_ns").is_some());
        assert_eq!(telemetry.counter("solve.rung.exact"), Some(1));
        assert_eq!(telemetry.counter("solve.degraded"), None);
        assert!(telemetry.histogram("solve.stage_ns").unwrap().count >= 1);
    }

    #[test]
    fn exact_stage_panic_is_contained() {
        let p = problem(vec![pref(16, 24, 3), pref(18, 22, 2)]);
        let o = AnytimePipeline::new()
            .with_injected_panic(Rung::Exact)
            .solve(&p)
            .unwrap();
        assert_eq!(o.stage(Rung::Exact).unwrap().status, StageStatus::Panicked);
        assert_eq!(o.rung, Rung::LocalSearch);
        assert!(o.degraded());
    }

    #[test]
    fn cascading_panics_fall_all_the_way_to_the_floor() {
        let p = problem(vec![pref(16, 24, 3), pref(18, 22, 2)]);
        // Panic in local search: greedy answers.
        let o = AnytimePipeline::new()
            .without_exact()
            .with_injected_panic(Rung::LocalSearch)
            .solve(&p)
            .unwrap();
        assert_eq!(o.rung, Rung::Greedy);
        assert_eq!(
            o.stage(Rung::LocalSearch).unwrap().status,
            StageStatus::Panicked
        );
        assert_eq!(o.stage(Rung::Exact).unwrap().status, StageStatus::Skipped);
    }

    #[test]
    fn greedy_matches_optimum_on_simple_instances() {
        let p = problem(vec![pref(12, 18, 2); 3]);
        let s = greedy(&p).unwrap();
        // Disjoint packing: 6 hours at 2 kWh ⇒ κ = 0.3·24.
        assert!((s.objective - 0.3 * 24.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_is_deterministic_and_feasible_on_hard_instances() {
        let p = problem(vec![
            pref(0, 24, 3),
            pref(2, 20, 4),
            pref(5, 23, 2),
            pref(0, 12, 6),
            pref(12, 24, 6),
        ]);
        let a = greedy(&p).unwrap();
        let b = greedy(&p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.deferments.len(), 5);
    }

    #[test]
    fn outcome_is_deterministic_given_seed() {
        let p = problem(vec![pref(10, 20, 2); 6]);
        let a = AnytimePipeline::new().with_seed(42).solve(&p).unwrap();
        let b = AnytimePipeline::new().with_seed(42).solve(&p).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.rung, b.rung);
    }

    #[test]
    fn ladder_answer_never_worsens_with_more_budget() {
        let p = problem(vec![pref(14, 24, 3), pref(12, 22, 2), pref(10, 20, 4)]);
        let starved = AnytimePipeline::new()
            .with_exact_node_limit(1)
            .solve(&p)
            .unwrap();
        let full = AnytimePipeline::new().solve(&p).unwrap();
        assert!(full.solution.objective <= starved.solution.objective + 1e-9);
    }

    #[test]
    fn racing_pipeline_matches_the_ladder_on_proven_instances() {
        // When the exact rung proves optimality, the racing portfolio
        // must return the same solution as the sequential ladder, with
        // the proof intact, at any thread budget.
        let p = problem(vec![pref(18, 22, 2), pref(18, 22, 2), pref(18, 21, 1)]);
        let ladder = AnytimePipeline::new().solve(&p).unwrap();
        assert!(ladder.proven_optimal);
        for threads in [2usize, 4] {
            let raced = AnytimePipeline::new()
                .with_threads(threads)
                .solve(&p)
                .unwrap();
            assert_eq!(raced.rung, Rung::Exact);
            assert!(raced.proven_optimal);
            assert_eq!(raced.solution, ladder.solution);
            assert_eq!(raced.certified_gap(), 0.0);
            // Both racing lanes ran; the tail was skipped.
            assert_eq!(
                raced.stage(Rung::LocalSearch).unwrap().status,
                StageStatus::Solved
            );
            assert_eq!(raced.stage(Rung::Greedy).unwrap().status, StageStatus::Skipped);
        }
    }

    #[test]
    fn racing_pipeline_is_deterministic_under_a_virtual_clock() {
        use enki_telemetry::VirtualClock;
        let p = problem(vec![
            pref(14, 22, 3),
            pref(16, 24, 2),
            pref(15, 23, 4),
            pref(18, 22, 2),
        ]);
        let run = || {
            AnytimePipeline::new()
                .with_threads(3)
                .with_clock(VirtualClock::new())
                .solve(&p)
                .unwrap()
        };
        let a = run();
        let b = run();
        // Full structural equality, stage timings included: on a virtual
        // clock every elapsed duration is exactly zero, so the entire
        // outcome is a pure function of the seed even while two lanes
        // race on real threads.
        assert_eq!(a, b);
    }

    #[test]
    fn racing_pipeline_degrades_deterministically_when_exact_is_starved() {
        // A starved exact lane loses the race; the local-search lane's
        // deterministic answer wins — identically across runs and
        // identically to running local search alone.
        let p = problem(vec![pref(0, 24, 2); 12]);
        let run = || {
            AnytimePipeline::new()
                .with_exact_node_limit(1)
                .with_threads(2)
                .solve(&p)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.rung, b.rung);
        assert_eq!(a.rung, Rung::LocalSearch);
        assert!(!a.proven_optimal);
        assert_eq!(
            a.stage(Rung::Exact).unwrap().status,
            StageStatus::BudgetExhausted
        );
        let mut rng = StdRng::seed_from_u64(0x5eed_f00d);
        let alone = LocalSearch::new().solve(&p, 8, &mut rng).unwrap();
        assert!(a.solution.objective <= alone.objective + 1e-12);
    }

    #[test]
    fn racing_panic_in_one_lane_is_contained() {
        let p = problem(vec![pref(16, 24, 3), pref(18, 22, 2)]);
        // Exact lane panics: the local-search lane answers.
        let o = AnytimePipeline::new()
            .with_threads(2)
            .with_injected_panic(Rung::Exact)
            .solve(&p)
            .unwrap();
        assert_eq!(o.stage(Rung::Exact).unwrap().status, StageStatus::Panicked);
        assert_eq!(o.rung, Rung::LocalSearch);
        assert!(o.degraded());
        // Local lane panics: an unproven exact answer still stands, and
        // the ladder tail backs it up.
        let o = AnytimePipeline::new()
            .with_threads(2)
            .with_injected_panic(Rung::LocalSearch)
            .solve(&p)
            .unwrap();
        assert_eq!(
            o.stage(Rung::LocalSearch).unwrap().status,
            StageStatus::Panicked
        );
        assert!(o.solution.objective.is_finite());
    }

    #[test]
    fn racing_trace_records_both_lanes_with_deterministic_fields_only() {
        use enki_telemetry::{to_jsonl, Telemetry, VirtualClock};
        let p = problem(vec![pref(18, 22, 2), pref(18, 22, 2)]);
        let run = || {
            let clock = VirtualClock::new();
            let telemetry = Telemetry::with_virtual_clock(
                "racing-test",
                7,
                std::sync::Arc::clone(&clock),
            );
            let recorder = telemetry.recorder();
            let outcome = AnytimePipeline::new()
                .with_threads(4)
                .with_clock(clock)
                .solve_traced(&p, Some(&recorder))
                .unwrap();
            recorder.flush();
            (outcome.rung, to_jsonl(&telemetry))
        };
        let (rung_a, trace_a) = run();
        let (_, trace_b) = run();
        assert_eq!(rung_a, Rung::Exact);
        // Byte-identical traces across runs: nothing scheduling-dependent
        // (steals, re-validation counts, wall times) leaks into spans.
        assert_eq!(trace_a, trace_b);
        assert!(trace_a.contains("\"racing\""));
    }

    #[test]
    fn racing_stats_surface_the_thread_budget() {
        let p = problem(vec![pref(10, 20, 2); 6]);
        let (outcome, stats) = AnytimePipeline::new()
            .with_threads(3)
            .solve_traced_with_stats(&p, None)
            .unwrap();
        assert!(outcome.solution.objective.is_finite());
        assert_eq!(stats.threads, 3);
        let (_, seq_stats) = AnytimePipeline::new()
            .solve_traced_with_stats(&p, None)
            .unwrap();
        assert_eq!(seq_stats, crate::par::ParStats::sequential());
    }

    #[test]
    fn profiling_is_opt_in_and_does_not_change_the_outcome() {
        // A wide instance with several classes so the racing exact lane
        // actually splits into speculative tasks.
        let p = problem(vec![
            pref(10, 20, 2),
            pref(10, 20, 2),
            pref(10, 20, 2),
            pref(10, 20, 2),
            pref(8, 22, 3),
            pref(8, 22, 3),
            pref(12, 24, 2),
            pref(12, 24, 2),
        ]);
        let (plain, silent) = AnytimePipeline::new()
            .with_threads(2)
            .solve_traced_with_stats(&p, None)
            .unwrap();
        assert!(silent.profile.is_none(), "profiling must be opt-in");
        let (profiled, stats) = AnytimePipeline::new()
            .with_threads(2)
            .with_profiling(true)
            .solve_traced_with_stats(&p, None)
            .unwrap();
        // Observation must not perturb the solve.
        assert_eq!(profiled.solution, plain.solution);
        assert_eq!(profiled.rung, plain.rung);
        assert_eq!(profiled.proven_optimal, plain.proven_optimal);
        if stats.tasks > 0 {
            let profile = stats.profile.expect("profiling was enabled");
            assert!(profile.bound_evals + profile.bound_cache_hits > 0);
        }
    }

    #[test]
    fn stage_trace_accounts_every_rung_exactly_once() {
        let p = problem(vec![pref(18, 22, 2)]);
        let o = AnytimePipeline::new().solve(&p).unwrap();
        let rungs: Vec<Rung> = o.stages.iter().map(|s| s.rung).collect();
        assert_eq!(
            rungs,
            vec![Rung::Exact, Rung::LocalSearch, Rung::Greedy, Rung::AsReported]
        );
    }
}
