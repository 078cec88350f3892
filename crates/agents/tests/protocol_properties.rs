//! Property-based failure injection: the day protocol keeps its
//! accounting invariants under arbitrary loss rates and seeds.

use enki_agents::prelude::*;
use enki_core::config::EnkiConfig;
use enki_core::household::HouseholdId;
use enki_core::mechanism::Enki;
use enki_sim::behavior::ReportStrategy;
use enki_sim::neighborhood::TruthSource;
use enki_sim::profile::{ProfileConfig, UsageProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn runtime(n: u32, drop_probability: f64, seed: u64) -> Runtime {
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
    );
    let network = SimNetwork::new(
        NetworkConfig {
            base_latency: 1,
            jitter: 2,
            drop_probability,
        },
        seed,
    );
    Runtime::new(network, center, households)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the loss rate, every settled day balances its budget and
    /// its participant accounting partitions the roster.
    #[test]
    fn protocol_invariants_hold_under_arbitrary_loss(
        n in 2u32..10,
        drop in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut rt = runtime(n, drop, seed);
        rt.run_days(2);
        prop_assert_eq!(rt.records().len(), 2);
        for record in rt.records() {
            let accounted = record.participants.len() + record.missing_reports.len();
            prop_assert_eq!(accounted, n as usize);
            if let Some(st) = &record.settlement {
                prop_assert!(st.center_utility >= -1e-9);
                prop_assert_eq!(st.entries.len(), record.participants.len());
                // Missing readings are a subset of participants.
                for h in &record.missing_readings {
                    prop_assert!(record.participants.contains(h));
                }
            } else {
                prop_assert!(record.participants.is_empty());
            }
        }
    }

    /// Bills received by household agents always equal a settlement
    /// payment for that household and day.
    #[test]
    fn every_bill_traces_to_a_settlement(
        n in 2u32..8,
        drop in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let mut rt = runtime(n, drop, seed);
        rt.run_days(3);
        for i in 0..n {
            let agent = rt.household(HouseholdId::new(i)).unwrap();
            for &(day, amount) in agent.bills() {
                let record = rt
                    .records()
                    .iter()
                    .find(|r| r.day == day)
                    .expect("bill references a recorded day");
                let st = record.settlement.as_ref().expect("billed day settled");
                let entry = st
                    .entry_for(HouseholdId::new(i))
                    .expect("billed household was settled");
                prop_assert!((entry.payment - amount).abs() < 1e-9);
            }
        }
    }

    /// A perfectly reliable network yields full participation and full
    /// billing every day.
    #[test]
    fn reliable_network_has_no_gaps(n in 2u32..10, seed in any::<u64>()) {
        let mut rt = runtime(n, 0.0, seed);
        rt.run_days(2);
        for record in rt.records() {
            prop_assert_eq!(record.participants.len(), n as usize);
            prop_assert!(record.missing_reports.is_empty());
            prop_assert!(record.missing_readings.is_empty());
        }
        for i in 0..n {
            prop_assert_eq!(rt.household(HouseholdId::new(i)).unwrap().bills().len(), 2);
        }
    }
}
