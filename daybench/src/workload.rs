//! The three workloads and the seeded episodes they are made of.
//!
//! An *episode* is a fresh neighborhood center that serves a number of
//! protocol days and is then restarted from its journal. Its inputs —
//! each household's reported preference — come from the workload seed
//! through the §VI generator; the program receives only those inputs.

use enki_agents::prelude::{
    CenterAgent, CrashSchedule, DayPlan, Journal, JournalConfig, PipelineConfig, ServeProducer,
    ServeRuntime, Tick,
};
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_durable::prelude::{FaultPlan, FaultStorage};
use enki_serve::prelude::{Backoff, IngestConfig};
use enki_sim::prelude::{ProfileConfig, UsageProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ticks per protocol day (the default [`DayPlan`]).
pub const DAY: Tick = 100;

/// One benchmark workload: a neighborhood shape and a load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Households in each episode's neighborhood.
    pub households: u32,
    /// Timed protocol days each episode serves.
    pub days: u64,
    /// Untimed days an episode may serve first, until a day bills every
    /// household (`0`: no warm-up). Until each household has reached the
    /// center once, it has no standing profile, and a shed report loses
    /// it the day.
    pub max_warmup_days: u64,
    /// Refine the greedy allocation through the solver pipeline.
    pub refine: Option<PipelineConfig>,
    /// The ingest front end's queue, drain rate and backoff.
    pub ingest: IngestConfig,
    /// Identical frames each producer sends per attempt.
    pub burst: u32,
    /// Crash the center after each day's bills and recover it from the
    /// journal a little after the next day boundary, so that day's
    /// deadlines are re-anchored late.
    pub daily_crash: bool,
    /// Timed restarts of each episode's final log.
    pub restarts: usize,
    /// Timed episodes the exact outputs are computed over, so they are
    /// the same for every run with the same seed whatever its length.
    pub exact_episodes: usize,
}

/// The solver configuration `refine-128` refines with, and the traced
/// run solves with on every workload: the center's default budget, on
/// one thread.
pub const SOLVE_CONFIG: PipelineConfig = PipelineConfig {
    threads: 1,
    exact_node_limit: 50_000,
    restarts: 8,
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "history-50",
        households: 50,
        days: 40,
        max_warmup_days: 0,
        refine: None,
        ingest: IngestConfig {
            queue_capacity: 1024,
            drain_per_tick: 64,
            backoff: Backoff { base: 5, cap: 10 },
        },
        burst: 1,
        daily_crash: false,
        restarts: 3,
        exact_episodes: 12,
    },
    Workload {
        name: "refine-128",
        households: 128,
        days: 1,
        max_warmup_days: 0,
        refine: Some(SOLVE_CONFIG),
        ingest: IngestConfig {
            queue_capacity: 1024,
            drain_per_tick: 64,
            backoff: Backoff { base: 5, cap: 10 },
        },
        burst: 1,
        daily_crash: false,
        restarts: 1,
        exact_episodes: 64,
    },
    Workload {
        name: "crash-flood-50",
        households: 50,
        days: 10,
        max_warmup_days: 12,
        refine: None,
        ingest: IngestConfig {
            queue_capacity: 256,
            drain_per_tick: 16,
            backoff: Backoff { base: 1, cap: 4 },
        },
        burst: 64,
        daily_crash: true,
        restarts: 2,
        exact_episodes: 16,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: derives independent per-episode seeds from one seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One episode's generated inputs.
#[derive(Debug, Clone)]
pub struct EpisodeInputs {
    /// Seed of the center's and front end's RNG streams.
    pub seed: u64,
    /// Each household's reported (wide) preference, by household index.
    pub reports: Vec<RawPreference>,
}

impl Workload {
    /// Generates episode `index`'s inputs from the workload seed.
    #[must_use]
    pub fn inputs(&self, seed: u64, index: u64) -> EpisodeInputs {
        let seed = mix(mix(seed, u64::from(self.households)), index);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ProfileConfig::default();
        let reports = (0..self.households)
            .map(|_| UsageProfile::generate(&mut rng, &config).wide().into())
            .collect();
        EpisodeInputs { seed, reports }
    }

    /// The roster every episode's center drives.
    #[must_use]
    pub fn roster(&self) -> Vec<HouseholdId> {
        (0..self.households).map(HouseholdId::new).collect()
    }

    /// The mechanism every center runs.
    #[must_use]
    pub fn enki(&self) -> Enki {
        Enki::new(EnkiConfig::default())
    }

    /// Crash schedules for one episode: after each day's bills,
    /// recovering two ticks into the next day. Scheduled for the longest
    /// warm-up, so the last served day may end with the center down;
    /// its bills are out and the restart reads its log.
    #[must_use]
    pub fn crashes(&self) -> Vec<CrashSchedule> {
        if !self.daily_crash {
            return Vec::new();
        }
        (0..self.max_warmup_days + self.days)
            .map(|d| CrashSchedule {
                crash_at: d * DAY + 90,
                recover_at: (d + 1) * DAY + 2,
            })
            .collect()
    }

    /// Builds an episode's center, front end, producers and journal:
    /// the work `setup_s` times.
    ///
    /// # Errors
    ///
    /// Fails when the in-memory journal cannot be opened.
    #[must_use = "the built runtime is the episode"]
    pub fn build(&self, inputs: &EpisodeInputs) -> Result<ServeRuntime, String> {
        let mut center =
            CenterAgent::new(self.enki(), self.roster(), DayPlan::default(), inputs.seed);
        if let Some(pipeline) = self.refine {
            center = center.with_pipeline(pipeline);
        }
        let (journal, _) = Journal::open(
            FaultStorage::new(FaultPlan::none()),
            JournalConfig::default(),
        )
        .map_err(|e| format!("opening the in-memory journal: {e}"))?;
        let mut rt = ServeRuntime::new(center, self.ingest, inputs.seed)
            .with_journal(journal)
            .with_crashes(self.crashes());
        for (i, &raw) in (0u32..).zip(&inputs.reports) {
            rt.add_producer(ServeProducer::new(HouseholdId::new(i), raw).with_burst(self.burst));
        }
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_and_are_unique() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_seed_and_episode() {
        let w = WORKLOADS[0];
        assert_eq!(w.inputs(2017, 3).reports, w.inputs(2017, 3).reports);
        assert_ne!(w.inputs(2017, 3).reports, w.inputs(2017, 4).reports);
        assert_ne!(w.inputs(2017, 3).reports, w.inputs(2018, 3).reports);
    }

    #[test]
    fn crashes_shift_every_day_but_the_first() {
        let w = by_name("crash-flood-50").expect("workload exists");
        let crashes = w.crashes();
        assert_eq!(crashes.len() as u64, w.max_warmup_days + w.days);
        assert!(crashes.iter().all(|c| c.recover_at % DAY == 2));
        assert!(by_name("history-50")
            .expect("workload exists")
            .crashes()
            .is_empty());
    }
}
