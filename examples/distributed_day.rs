//! The paper's Figure 1 architecture, end to end: household ECC agents and
//! the neighborhood controller exchanging protocol messages over a lossy
//! local network, with retries, re-broadcasts, and smart-meter fallbacks.
//!
//! Run with: `cargo run --example distributed_day`

use enki::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);
    let config = ProfileConfig::default();

    // Twelve ECC agents; their reports come from the learned usage pattern
    // once the predictor has history, widened by a 2-hour margin.
    let households: Vec<HouseholdAgent> = (0..12)
        .map(|i| {
            HouseholdAgent::new(
                HouseholdId::new(i),
                UsageProfile::generate(&mut rng, &config),
                TruthSource::Wide,
                ReportStrategy::TruthfulWide,
                ReportSource::Ecc { margin: 2 },
            )
        })
        .collect();

    let center = CenterAgent::new(
        Enki::default(),
        (0..12).map(HouseholdId::new).collect(),
        DayPlan::default(),
        2017,
    );

    // A 20%-loss network: the protocol's retries and re-broadcasts must
    // carry the day.
    let network = SimNetwork::new(NetworkConfig::lossy(0.2), 2017);
    let mut runtime = Runtime::new(network, center, households);
    runtime.run_days(7);

    println!("One week over a 20%-loss network:\n");
    for record in runtime.records() {
        let st = record.settlement.as_ref();
        println!(
            "  day {}: {} participants, {} lost reports, {} lost readings, cost ${:.2}, center +${:.2}",
            record.day,
            record.participants.len(),
            record.missing_reports.len(),
            record.missing_readings.len(),
            st.map(|s| s.total_cost).unwrap_or(0.0),
            st.map(|s| s.center_utility).unwrap_or(0.0),
        );
    }

    let stats = runtime.network_stats();
    println!(
        "\nnetwork: {} sent, {} delivered, {} dropped ({:.0}% loss)",
        stats.sent,
        stats.delivered,
        stats.dropped,
        100.0 * stats.dropped as f64 / stats.sent as f64
    );

    // Every settled day is budget balanced despite the chaos.
    assert!(runtime
        .records()
        .iter()
        .filter_map(|r| r.settlement.as_ref())
        .all(|s| s.center_utility >= -1e-9));
    println!("\nEvery settled day stayed budget balanced (Theorem 1 under packet loss).");

    // The same protocol with each household agent on its own OS thread,
    // over a reliable one-tick link.
    let mut rng = StdRng::seed_from_u64(7);
    let households: Vec<ThreadedHousehold> = (0..8)
        .map(|i| ThreadedHousehold {
            agent: HouseholdAgent::new(
                HouseholdId::new(i),
                UsageProfile::generate(&mut rng, &config),
                TruthSource::Wide,
                ReportStrategy::TruthfulWide,
                ReportSource::Strategy,
            ),
            fault: ThreadedFault::None,
        })
        .collect();
    let center = CenterAgent::new(
        Enki::default(),
        (0..8).map(HouseholdId::new).collect(),
        DayPlan::default(),
        7,
    );
    let (records, agents) =
        run_threaded_days(center, households, 1, std::time::Duration::from_secs(5), None)
            .expect("a non-empty roster runs");
    let settlement = records[0].settlement.as_ref().expect("the threaded day settles");
    println!(
        "\nThreaded deployment: {} households settled on their own threads, cost ${:.2}, {} bills received.",
        settlement.entries.len(),
        settlement.total_cost,
        agents.iter().map(|a| a.bills().len()).sum::<usize>()
    );
}
