//! Deterministic parallel branch-and-bound: a hand-rolled work-stealing
//! pool plus a speculate-then-validate driver around [`crate::exact`].
//!
//! # Why speculation
//!
//! A branch-and-bound search is a sequential fold: the incumbent found
//! in one subtree sharpens the pruning of every later subtree. Naive
//! parallelism breaks that fold — whichever worker finishes first
//! publishes its incumbent, and the explored tree (and with it the
//! *returned solution*) starts depending on thread timing. This module
//! keeps the parallelism and discards the nondeterminism:
//!
//! 1. **Enumerate** (sequential, cheap): walk the class-slot tree to the
//!    instance's split slot — a class boundary chosen in
//!    `BranchAndBound::prepare` as a pure function of the instance —
//!    with the incumbent frozen, suspending every surviving subtree as a
//!    `TaskSeed` (a class-vector prefix) in depth-first visit order.
//!    Because freezing the incumbent can only *weaken* pruning, the
//!    seeds are a superset of the subtrees the true search visits.
//! 2. **Speculate** (parallel): the work-stealing pool runs each seed's
//!    subtree to completion. A task reads the shared atomic incumbent
//!    once, at its start, as its pruning threshold `hint`, and publishes
//!    any improvement back. The incumbent is an exact integer `Σc²`, so
//!    `fetch_min` on the raw `u64` is natively correct — no float bit
//!    tricks needed.
//! 3. **Validate** (sequential, cheap): re-walk the prefix exactly as
//!    the sequential solver would — same bounds, same dominance scope,
//!    same incumbent fold — and at each subtree root consult the
//!    speculative result. It is consumed only if its `hint` **equals**
//!    the incumbent the sequential search holds at that point (so every
//!    pruning decision inside matched) and its node count fits under the
//!    node limit; otherwise the subtree is re-expanded inline, which
//!    *is* the sequential walk. Either way the final solution, certified
//!    gap, and node count are bit-identical to [`BranchAndBound::solve`]
//!    with one thread.
//!
//! The validation drive never waits on wall-clock ordering, so the
//! result is reproducible at any thread count; speculation only decides
//! how much of the tree was already computed when validation arrives.
//! Re-runs are rare in practice because the local-search incumbent is
//! almost always optimal: the shared incumbent then never moves and
//! every task's hint matches by construction.
//!
//! # Why the pool lives here and not in `threaded.rs`
//!
//! `threaded.rs` (enki-agents) spawns *agents* — long-lived actors with
//! mailboxes, crash semantics, and a day-phase protocol. Solver workers
//! are the opposite: anonymous, compute-bound, scoped to one `solve`
//! call, and forbidden from touching agent state. Routing them through
//! the deployment runtime would couple solver latency to the agent
//! scheduler and drag locks into the mechanism core. Instead the pool
//! is scoped (`std::thread::scope`), owns nothing beyond its deques,
//! and is the single solver file whose `#[expect]`s let it past the
//! workspace `clippy.toml` bans on spawning and locking.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use enki_core::time::HOURS_PER_DAY;
use enki_core::Result;
#[expect(
    clippy::disallowed_types,
    reason = "the work-stealing pool behind the deterministic parallel solve is the one \
              solver file that may lock"
)]
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::exact::{BranchAndBound, SolveReport};
use crate::problem::{AllocationProblem, Solution};

/// A subtree suspended at the split slot, in depth-first visit order:
/// everything a worker needs to resume the class-vector search from
/// that node.
#[derive(Debug, Clone)]
pub(crate) struct TaskSeed {
    /// Per-slot member counts above the split (memo key).
    pub(crate) key: Vec<u32>,
    /// Full per-slot count vector (prefix placed, tail unset).
    pub(crate) chosen: Vec<u32>,
    /// Aggregate unit count per hour from the placed prefix.
    pub(crate) counts: [u32; HOURS_PER_DAY],
    /// Σc² of the placed prefix (kept incrementally, exact).
    pub(crate) sumsq: u64,
}

/// What one speculative subtree run observed and produced.
#[derive(Debug, Clone)]
pub(crate) struct SpecResult {
    /// Incumbent Σc² the task pruned against (read once, at task start).
    pub(crate) hint: u64,
    /// Nodes the task expanded.
    pub(crate) nodes: u64,
    /// Whether the task hit a node or deadline limit (not consumable).
    pub(crate) aborted: bool,
    /// Improved incumbent found in the subtree, if any: final Σc² and
    /// the full per-slot count vector.
    pub(crate) improved: Option<(u64, Vec<u32>)>,
    /// Profiling-only counters (zero when profiling is off).
    pub(crate) bound_ns: u64,
    pub(crate) bound_evals: u64,
    pub(crate) bound_cache_hits: u64,
}

/// Wall-clock timings of the speculate-then-validate phases, reported
/// only when [`BranchAndBound::with_profiling`] is on. Times are
/// nondeterministic by nature — this struct is diagnostics, never part
/// of the bit-identical solve contract.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Sequential seed enumeration (phase 1).
    pub enumerate_ns: u64,
    /// Parallel speculative subtree runs (phase 2, wall time).
    pub speculate_ns: u64,
    /// Sequential validation drive (phase 3).
    pub validate_ns: u64,
    /// Time inside bound evaluation across all drives and tasks.
    pub bound_ns: u64,
    /// Pigeonhole bound evaluations actually computed.
    pub bound_evals: u64,
    /// Pigeonhole bound evaluations answered from the per-subtree cache.
    pub bound_cache_hits: u64,
}

/// Counters from one parallel solve, for benchmarks and telemetry.
/// Deliberately *not* part of [`SolveReport`]: steal counts are
/// scheduling-dependent, and the report must stay bit-identical across
/// thread counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParStats {
    /// Worker threads the solve ran with.
    pub threads: usize,
    /// Subtree tasks enumerated at the split slot.
    pub tasks: u64,
    /// Tasks whose speculative result was consumed as-is.
    pub accepted: u64,
    /// Tasks re-expanded inline by the validation drive.
    pub revalidated: u64,
    /// Nodes expanded speculatively (including discarded work).
    pub speculative_nodes: u64,
    /// Jobs a worker took from another worker's deque.
    pub steals: u64,
    /// Per-phase wall timings, present only when profiling was enabled
    /// (serialized as `null` otherwise; `enki-obs bench-diff` skips
    /// null leaves).
    pub profile: Option<PhaseProfile>,
}

impl ParStats {
    /// The all-zero statistics of a plain sequential run.
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Self::default()
        }
    }
}

/// Statistics from one [`run_jobs`] invocation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PoolStats {
    /// Jobs executed off another worker's deque.
    pub(crate) steals: u64,
}

/// Runs `jobs` on a scoped pool of `threads` workers with per-worker
/// deques: each worker pops its own deque from the front and, when
/// empty, steals from the back of the others (crossbeam-style, built
/// from `parking_lot::Mutex<VecDeque>` to stay within the vendored
/// dependency set and the workspace's `forbid(unsafe_code)`). Jobs are dealt
/// round-robin so the earliest jobs start first across workers; results
/// come back in job order. A panicking job poisons nothing: its slot
/// stays `None` and every other job still completes.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the work-stealing pool behind the deterministic parallel solve is the one \
              solver file that may spawn scoped threads and lock"
)]
pub(crate) fn run_jobs<J, R, F>(threads: usize, jobs: Vec<J>, worker: F) -> (Vec<Option<R>>, PoolStats)
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let count = jobs.len();
    let threads = threads.max(1).min(count.max(1));
    if threads <= 1 {
        let results = jobs.into_iter().map(|job| Some(worker(job))).collect();
        return (results, PoolStats::default());
    }

    let queues: Vec<Mutex<VecDeque<(usize, J)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        queues[index % threads].lock().push_back((index, job));
    }
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for me in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let steals = &steals;
            let worker = &worker;
            scope.spawn(move || loop {
                // Pop the own queue in its own statement: the guard is
                // a temporary that dies at the `;`, so it is never held
                // across a steal. Chaining `.or_else` onto the locked
                // pop would keep the own-queue guard live while taking
                // a victim's lock — two workers stealing from each
                // other in opposite phases would deadlock.
                let own = queues[me].lock().pop_front();
                let popped = own.or_else(|| {
                    // Steal newest-first from the other deques, scanning
                    // in a fixed ring order from our right neighbour.
                    (1..threads).find_map(|offset| {
                        let victim = (me + offset) % threads;
                        let job = queues[victim].lock().pop_back();
                        if job.is_some() {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        job
                    })
                });
                // Tasks never enqueue follow-up work, so an empty sweep
                // means every remaining job is already being executed.
                let Some((index, job)) = popped else { break };
                // A panicking job leaves its slot `None`; the caller
                // (the validation drive) then re-runs that subtree
                // inline, surfacing the panic exactly where the
                // sequential solver would have hit it.
                if let Ok(result) =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(job)))
                {
                    *slots[index].lock() = Some(result);
                }
            });
        }
    });

    let results = slots.into_iter().map(Mutex::into_inner).collect();
    (
        results,
        PoolStats {
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

/// Parallel [`BranchAndBound::solve`]: speculate across the work-stealing
/// pool, then validate sequentially. See the [module docs](self) for why
/// the result is bit-identical to the sequential solver's.
///
/// # Errors
///
/// Exactly as [`BranchAndBound::solve`].
#[must_use = "dropping the outcome discards the branch-and-bound solution and its bound"]
pub(crate) fn solve_parallel(
    solver: &BranchAndBound,
    problem: &AllocationProblem,
) -> Result<(SolveReport, ParStats)> {
    let threads = solver.threads();
    let clock = solver.clock_cfg().clone();
    let start = clock.now();
    let prep = solver.prepare(problem)?;

    // The split slot is part of the preparation — a class boundary where
    // the class-vector tree is wide enough to oversubscribe the pool,
    // chosen independently of the thread count so every drive prunes
    // identically. A narrow tree cannot pay for parallelism: run the
    // sequential walk.
    let Some(split_slot) = prep.split_slot else {
        let report = solver.solve_sequential(problem)?;
        return Ok((
            report,
            ParStats {
                threads,
                ..ParStats::default()
            },
        ));
    };

    let profiling = solver.profiling_cfg();
    let node_limit = solver.node_limit_cfg();
    let time_limit = solver.time_limit_cfg();

    // Phase 1 — enumerate seeds with the incumbent frozen.
    let mut enumerator = prep.search(clock.as_ref(), start, node_limit, time_limit);
    enumerator.split_slot = split_slot;
    enumerator.profile_bounds = profiling;
    enumerator.run_from(0);
    let seeds = std::mem::take(&mut enumerator.seeds);
    let keys: Vec<Vec<u32>> = seeds.iter().map(|seed| seed.key.clone()).collect();
    let enumerated_at = clock.now();

    // Phase 2 — speculative subtree runs over the pool, sharing the
    // exact integer incumbent through one atomic word.
    let shared_incumbent = AtomicU64::new(prep.incumbent_sumsq);
    let (outcomes, pool) = run_jobs(threads, seeds, |seed: TaskSeed| {
        let hint = shared_incumbent.load(Ordering::Relaxed);
        let mut task = prep.search(clock.as_ref(), start, node_limit, time_limit);
        task.best_sumsq = hint;
        task.profile_bounds = profiling;
        task.chosen = seed.chosen;
        task.counts = seed.counts;
        task.sumsq = seed.sumsq;
        task.run_from(split_slot);
        if task.improved {
            shared_incumbent.fetch_min(task.best_sumsq, Ordering::Relaxed);
        }
        SpecResult {
            hint,
            nodes: task.nodes,
            aborted: task.aborted,
            improved: task.improved.then_some((task.best_sumsq, task.best_chosen)),
            bound_ns: task.bound_ns,
            bound_evals: task.bound_evals,
            bound_cache_hits: task.bound_cache_hits,
        }
    });
    let speculated_at = clock.now();

    let mut stats = ParStats {
        threads,
        tasks: keys.len() as u64,
        steals: pool.steals,
        ..ParStats::default()
    };
    let memo: BTreeMap<Vec<u32>, SpecResult> = keys
        .into_iter()
        .zip(outcomes)
        .filter_map(|(key, outcome)| outcome.map(|o| (key, o)))
        .collect();
    stats.speculative_nodes = memo.values().map(|spec| spec.nodes).sum();

    // Phase 3 — the deterministic validation drive.
    let mut drive = prep.search(clock.as_ref(), start, node_limit, time_limit);
    drive.split_slot = split_slot;
    drive.memo = Some(&memo);
    drive.profile_bounds = profiling;
    drive.run_from(0);
    stats.accepted = drive.consumed_tasks;
    stats.revalidated = drive.revalidated_tasks;
    let validated_at = clock.now();

    if profiling {
        let task_bound_ns: u64 = memo.values().map(|spec| spec.bound_ns).sum();
        let task_evals: u64 = memo.values().map(|spec| spec.bound_evals).sum();
        let task_hits: u64 = memo.values().map(|spec| spec.bound_cache_hits).sum();
        stats.profile = Some(PhaseProfile {
            enumerate_ns: duration_ns(enumerated_at.saturating_sub(start)),
            speculate_ns: duration_ns(speculated_at.saturating_sub(enumerated_at)),
            validate_ns: duration_ns(validated_at.saturating_sub(speculated_at)),
            bound_ns: enumerator
                .bound_ns
                .saturating_add(task_bound_ns)
                .saturating_add(drive.bound_ns),
            bound_evals: enumerator.bound_evals + task_evals + drive.bound_evals,
            bound_cache_hits: enumerator.bound_cache_hits + task_hits + drive.bound_cache_hits,
        });
    }

    let proven_optimal = !drive.aborted;
    let nodes = drive.nodes;
    let solution = Solution::from_deferments(problem, prep.eq.expand(&drive.best_chosen))?;
    Ok((
        SolveReport {
            solution,
            nodes,
            elapsed: clock.now().saturating_sub(start),
            proven_optimal,
            initial_incumbent: prep.initial_incumbent,
            root_bound: prep.root_bound,
        },
        stats,
    ))
}

/// Nanoseconds of a duration, saturating (profiling only).
fn duration_ns(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_returns_results_in_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let (results, _) = run_jobs(4, jobs, |j| j * j);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, Some((i as u64) * (i as u64)));
        }
    }

    #[test]
    fn pool_with_one_thread_runs_inline() {
        let (results, stats) = run_jobs(1, vec![1, 2, 3], |j| j + 1);
        assert_eq!(results, vec![Some(2), Some(3), Some(4)]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn pool_survives_more_threads_than_jobs() {
        let (results, _) = run_jobs(16, vec![7], |j| j);
        assert_eq!(results, vec![Some(7)]);
    }

    #[test]
    fn pool_handles_empty_job_list() {
        let (results, stats) = run_jobs(4, Vec::<u8>::new(), |j| j);
        assert!(results.is_empty());
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn profile_is_reported_only_when_enabled() {
        use enki_core::household::Preference;
        let prefs: Vec<Preference> = (0..10u8)
            .map(|i| Preference::new(10 + (i % 3), 20 + (i % 4), 2).unwrap())
            .collect();
        let problem = AllocationProblem::new(prefs, 2.0, 0.3).unwrap();
        let (_, silent) = BranchAndBound::new()
            .with_threads(2)
            .solve_with_stats(&problem)
            .unwrap();
        assert!(silent.profile.is_none(), "profiling must be opt-in");
        let (report, profiled) = BranchAndBound::new()
            .with_threads(2)
            .with_profiling(true)
            .solve_with_stats(&problem)
            .unwrap();
        // Profiling must not perturb the solve itself (elapsed is wall
        // time and excluded from the comparison).
        let (baseline, _) = BranchAndBound::new()
            .with_threads(2)
            .solve_with_stats(&problem)
            .unwrap();
        assert_eq!(report.solution, baseline.solution);
        assert_eq!(report.nodes, baseline.nodes);
        assert_eq!(report.proven_optimal, baseline.proven_optimal);
        if profiled.tasks > 0 {
            let profile = profiled.profile.expect("profiling was enabled");
            assert!(profile.bound_evals + profile.bound_cache_hits > 0);
        }
    }
}
