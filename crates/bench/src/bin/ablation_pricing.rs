//! Ablation: the pricing model behind `κ`.
//!
//! The paper adopts quadratic pricing for tractability but notes any
//! strictly convex price would do, citing the two-step piecewise function
//! of Mohsenian-Rad et al. (§III). This ablation schedules the same §VI
//! workload under both prices and compares the *physical* outcome (peak,
//! PAR): the greedy scheduler flattens under either, but the quadratic
//! price discriminates between every pair of loads while the two-step
//! price is indifferent below its threshold.

use enki_bench::{mean_ci, print_table, write_json, RunArgs};
use enki_core::allocation::greedy_allocation;
use enki_core::household::Preference;
use enki_core::pricing::{Pricing, QuadraticPricing, TwoStepPricing};
use enki_sim::prelude::{ProfileConfig, UsageProfile};
use enki_stats::descriptive::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct PricingRow {
    pricing: String,
    peak: Summary,
    par: Summary,
}

fn run_with<P: Pricing>(
    pricing: &P,
    label: &str,
    n: usize,
    days: usize,
    seed: u64,
) -> Result<PricingRow, enki_core::Error> {
    let profile = ProfileConfig::default();
    let mut peaks = Vec::with_capacity(days);
    let mut pars = Vec::with_capacity(days);
    for day in 0..days {
        let mut rng = StdRng::seed_from_u64(seed ^ (day as u64) << 8);
        let prefs: Vec<Preference> = (0..n)
            .map(|_| UsageProfile::generate(&mut rng, &profile).wide())
            .collect();
        let out = greedy_allocation(&prefs, 2.0, pricing, &mut rng)?;
        peaks.push(out.planned_load.peak());
        pars.push(out.planned_load.peak_to_average());
    }
    Ok(PricingRow {
        pricing: label.to_string(),
        peak: Summary::from_sample(&peaks),
        par: Summary::from_sample(&pars),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let (n, days) = if args.fast { (20, 5) } else { (40, 20) };

    let quadratic = QuadraticPricing::default();
    // Two-step: cheap below 30 kWh/h, triple rate above.
    let two_step = TwoStepPricing::new(0.3, 0.9, 30.0)?;

    let rows = vec![
        run_with(&quadratic, "quadratic (paper)", n, days, args.seed)?,
        run_with(&two_step, "two-step piecewise", n, days, args.seed)?,
    ];

    println!("Ablation — pricing model driving the greedy scheduler (n = {n}, {days} days)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.pricing.clone(), mean_ci(&r.peak, 1), mean_ci(&r.par, 3)])
        .collect();
    print_table(&["pricing", "peak kWh", "PAR"], &table);

    println!("\nboth convex prices flatten the load; the quadratic price yields the");
    println!("(weakly) lower peak because it discriminates below the two-step threshold");

    let path = write_json("ablation_pricing", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
