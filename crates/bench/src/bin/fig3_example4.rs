//! Reproduces Figure 3: Example 4 — a defecting household pays more.
//!
//! A and B both report `(18, 20, 1)`. The allocation spreads them over the
//! two hours; B overrides its allocation and consumes A's hour. B's
//! defection score is positive, its realized flexibility zero, and its
//! payment strictly higher than A's.

use enki_bench::{print_table, write_json, RunArgs};
use enki_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Output {
    allocation: Vec<(u8, u8)>,
    consumption: Vec<(u8, u8)>,
    defection: Vec<f64>,
    payments: Vec<f64>,
    center_utility: f64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let enki = Enki::new(EnkiConfig::default());
    let reports = vec![
        Report::new(HouseholdId::new(0), Preference::new(18, 20, 1)?),
        Report::new(HouseholdId::new(1), Preference::new(18, 20, 1)?),
    ];
    let mut rng = StdRng::seed_from_u64(args.seed);
    let outcome = enki.allocate(&reports, &mut rng)?;
    let a = outcome.assignments[0].window;

    // B defects onto A's hour (Figure 3's right panel).
    let consumption = vec![a, a];
    let settlement = enki.settle(&reports, &outcome, &consumption)?;

    println!("Figure 3 — Example 4: B defects and pays more\n");
    println!(
        "  allocation:  A → {}   B → {}",
        outcome.assignments[0].window, outcome.assignments[1].window
    );
    println!("  consumption: A → {}   B → {} (defects)\n", a, a);

    let rows: Vec<Vec<String>> = settlement
        .entries
        .iter()
        .zip(["A", "B"])
        .map(|(e, name)| {
            vec![
                name.to_string(),
                format!("{}", e.defected),
                format!("{:.3}", e.defection),
                format!("{:.3}", e.flexibility),
                format!("{:.3}", e.social_cost.psi),
                format!("{:.3}", e.payment),
            ]
        })
        .collect();
    print_table(
        &["household", "defected", "delta", "flexibility", "psi", "payment"],
        &rows,
    );

    let e = &settlement.entries;
    assert!(enki_core::float::approx_zero(e[0].defection) && e[1].defection > 0.0);
    assert!(e[1].payment > e[0].payment);
    println!("\n✓ δ_A = 0, δ_B > 0 and B pays more (paper's conclusion)");
    println!(
        "✓ center stays budget-balanced: utility = {:.3} ≥ 0",
        settlement.center_utility
    );

    let path = write_json(
        "fig3_example4",
        &Fig3Output {
            allocation: outcome
                .assignments
                .iter()
                .map(|x| (x.window.begin(), x.window.end()))
                .collect(),
            consumption: consumption.iter().map(|w| (w.begin(), w.end())).collect(),
            defection: e.iter().map(|x| x.defection).collect(),
            payments: e.iter().map(|x| x.payment).collect(),
            center_utility: settlement.center_utility,
        },
    )?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
