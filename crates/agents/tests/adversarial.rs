//! Adversarial input suite: fuzzes malformed wire-level reports through
//! full protocol days and asserts that the admission layer plus the
//! oracle's invariants hold for every one of them — the center must
//! produce a valid, budget-balanced outcome for every day, no matter
//! what it is fed.
//!
//! The suite covers the acceptance criteria of the robustness issue:
//! 100 fuzzed malformed-report days with zero oracle violations, every
//! settlement finite and ex ante budget-balanced over admitted reports,
//! and a ~0 deadline on the exact solve stage degrading to a lower rung
//! of the anytime ladder — never a panic or an unsolved day.
//!
//! Everything is seeded: a failure reproduces exactly from the printed
//! run index and seed.

use std::time::Duration;

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::{HouseholdId, Preference};
use enki_core::mechanism::Enki;
use enki_core::validation::RawPreference;
use enki_sim::behavior::ReportStrategy;
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::{ProfileConfig, UsageProfile};
use enki_solver::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};


/// Draws one malformed (or occasionally merely weird) raw preference.
/// The generator is intentionally hostile: non-finite floats, inverted
/// and out-of-horizon windows, negative and oversized durations,
/// fractional hours, and denormal-scale noise all appear.
fn garbage(rng: &mut StdRng) -> RawPreference {
    let field = |rng: &mut StdRng| -> f64 {
        match rng.random_range(0..10u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -rng.random_range::<f64, _>(0.0..1e6),
            4 => rng.random_range(24.0..1e9),
            5 => rng.random_range(0.0..24.0), // fractional in-horizon
            6 => f64::MIN_POSITIVE,
            7 => rng.random_range(-5.0..30.0),
            _ => f64::from(rng.random_range(0..30u32)),
        }
    };
    RawPreference::new(field(rng), field(rng), field(rng))
}

fn build(n: u32, adversaries: &[u32], network: NetworkConfig, seed: u64) -> Runtime {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProfileConfig::default();
    let households: Vec<HouseholdAgent> = (0..n)
        .map(|i| {
            let agent = HouseholdAgent::new(
                HouseholdId::new(i),
                UsageProfile::generate(&mut rng, &config),
                TruthSource::Wide,
                ReportStrategy::TruthfulWide,
                ReportSource::Strategy,
            );
            if adversaries.contains(&i) {
                // A compromised or buggy ECC: ships garbage on the wire.
                agent.with_raw_report_override(garbage(&mut rng))
            } else {
                agent
            }
        })
        .collect();
    let center = CenterAgent::new(
        Enki::new(EnkiConfig::default()),
        (0..n).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    Runtime::new(SimNetwork::new(network, seed), center, households)
}

/// The tentpole acceptance criterion: 100 fuzzed malformed-report days
/// (20 seeded runs × 5 days, each with 2–3 adversarial households)
/// produce zero oracle violations, and every day closes with a record.
#[test]
fn hundred_fuzzed_malformed_days_produce_zero_violations() {
    let days = 5;
    let mut total_days = 0u64;
    let mut quarantined_days = 0u64;
    for run in 0..20u64 {
        let seed = 1000 + run * 7;
        let mut pick = StdRng::seed_from_u64(seed);
        let mut adversaries: Vec<u32> = Vec::new();
        while adversaries.len() < 2 + (run as usize % 2) {
            let h = pick.random_range(0..6u32);
            if !adversaries.contains(&h) {
                adversaries.push(h);
            }
        }
        let mut rt = build(6, &adversaries, NetworkConfig::default(), seed);
        rt.run_days(days);
        let violations = check_invariants(&rt);
        assert!(
            violations.is_empty(),
            "run #{run} seed {seed} adversaries {adversaries:?}: {violations:?}"
        );
        // Liveness: every day closed with exactly one record, in order.
        let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        assert_eq!(
            recorded,
            (0..days).collect::<Vec<u64>>(),
            "run #{run} seed {seed}: days did not all close"
        );
        total_days += days;
        quarantined_days += rt
            .records()
            .iter()
            .filter(|r| !r.quarantined.is_empty())
            .count() as u64;
    }
    assert_eq!(total_days, 100);
    assert!(
        quarantined_days >= 50,
        "the fuzzer must actually exercise quarantine \
         ({quarantined_days}/100 days had quarantined reports)"
    );
}

/// Every settlement reached under adversarial input is finite, bills
/// only admitted participants non-negatively, and is ex ante
/// budget-balanced over the admitted reports.
#[test]
fn every_adversarial_settlement_is_finite_and_budget_balanced() {
    for run in 0..5u64 {
        let seed = 4000 + run * 13;
        let mut rt = build(6, &[0, 3, 5], NetworkConfig::default(), seed);
        rt.run_days(4);
        let config = *rt.center().enki().config();
        for record in rt.records() {
            let Some(st) = &record.settlement else {
                continue;
            };
            st.verify(&config)
                .unwrap_or_else(|e| panic!("run #{run} day {}: {e}", record.day));
            assert!(
                st.center_utility >= -1e-9,
                "run #{run} day {}: budget deficit {}",
                record.day,
                st.center_utility
            );
            for entry in &st.entries {
                assert!(entry.payment.is_finite() && entry.payment >= -1e-9);
                assert!(
                    record.participants.contains(&entry.household),
                    "run #{run} day {}: {:?} billed without an admitted report",
                    record.day,
                    entry.household
                );
            }
        }
    }
}

/// Quarantined households with a standing profile keep participating
/// (through the profile), so persistent garbage from one ECC does not
/// starve it out of the mechanism after one honest day.
#[test]
fn standing_profile_keeps_a_compromised_ecc_in_the_game() {
    // Day 0: everyone honest. Later days: household 2 ships garbage.
    let seed = 77;
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ProfileConfig::default();
    let households: Vec<HouseholdAgent> = (0..4)
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
        (0..4).map(HouseholdId::new).collect(),
        DayPlan::default(),
        seed,
    );
    let mut rt = Runtime::new(
        SimNetwork::new(NetworkConfig::default(), seed),
        center,
        households,
    )
    ;
    rt.run_days(1);
    assert!(rt.records()[0].quarantined.is_empty());

    // Compromise the ECC mid-run: from day 1 on it ships garbage.
    rt.household_mut(HouseholdId::new(2))
        .unwrap()
        .set_raw_report_override(Some(RawPreference::new(
            f64::NAN,
            f64::INFINITY,
            -1.0,
        )));
    rt.run_days(2);
    let violations = check_invariants(&rt);
    assert!(violations.is_empty(), "{violations:?}");
    for record in &rt.records()[1..] {
        assert_eq!(record.quarantined, vec![HouseholdId::new(2)]);
        // Still a participant, via the standing profile from day 0.
        assert!(record.participants.contains(&HouseholdId::new(2)));
        let st = record.settlement.as_ref().unwrap();
        assert!(st.entries.iter().any(|e| e.household == HouseholdId::new(2)));
    }
}

/// Adversarial input composed with an unreliable network: loss and
/// duplication on top of garbage reports still yield zero violations.
#[test]
fn garbage_reports_and_lossy_network_compose() {
    for seed in [5001u64, 5002, 5003] {
        let mut rt = build(6, &[1, 4], NetworkConfig::lossy(0.25), seed);
        rt.run_days(3);
        let violations = check_invariants(&rt);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let recorded: Vec<u64> = rt.records().iter().map(|r| r.day).collect();
        assert_eq!(recorded, vec![0, 1, 2], "seed {seed}: days did not close");
    }
}

/// The degradation-ladder acceptance criterion: forcing a ~0 deadline on
/// the exact stage yields a `SolveOutcome` from a lower rung with the
/// degradation recorded — never a panic or an unsolved day.
#[test]
fn zero_deadline_on_exact_stage_degrades_gracefully() {
    let preferences: Vec<Preference> = (0..12)
        .map(|_| Preference::new(0, 24, 2).unwrap())
        .collect();
    let problem = AllocationProblem::new(preferences, 2.0, 0.3).unwrap();
    let outcome = AnytimePipeline::new()
        .with_exact_time_limit(Duration::ZERO)
        .solve(&problem)
        .unwrap();
    assert!(outcome.rung > Rung::Exact, "exact cannot finish in 0 time");
    assert!(outcome.degraded());
    let exact = outcome.stage(Rung::Exact).unwrap();
    assert_eq!(exact.status, StageStatus::BudgetExhausted);
    assert!(outcome.solution.objective.is_finite());
    assert!(outcome.certified_gap() >= 0.0 && outcome.certified_gap() <= 1.0);
}
