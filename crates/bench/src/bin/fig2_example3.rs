//! Reproduces Figure 2: the allocations of Example 3.
//!
//! Three households — `χ_A = (16, 18, 2)`, `χ_B = χ_C = (18, 21, 2)` — are
//! scheduled by the greedy allocator. The flexible off-peak household A
//! never causes the peak; B and C (placed first, ties broken randomly)
//! split the evening window and overlap for exactly one hour.

use enki_bench::{print_table, write_json, RunArgs};
use enki_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig2Output {
    runs: Vec<Vec<(String, u8, u8)>>,
    flexibility: Vec<f64>,
    payments: Vec<f64>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let enki = Enki::new(EnkiConfig::default());
    let reports = vec![
        Report::new(HouseholdId::new(0), Preference::new(16, 18, 2)?),
        Report::new(HouseholdId::new(1), Preference::new(18, 21, 2)?),
        Report::new(HouseholdId::new(2), Preference::new(18, 21, 2)?),
    ];
    let names = ["A", "B", "C"];

    println!("Figure 2 — Example 3: greedy allocations over random tie-breaks");
    println!("χ_A = (16, 18, 2)  χ_B = χ_C = (18, 21, 2)\n");

    let mut runs = Vec::new();
    let mut last = None;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(args.seed ^ seed);
        let outcome = enki.allocate(&reports, &mut rng)?;
        let mut row = Vec::new();
        print!("  seed {seed}: ");
        for (name, a) in names.iter().zip(&outcome.assignments) {
            print!("{name} → [{:>2}, {:>2})  ", a.window.begin(), a.window.end());
            row.push((name.to_string(), a.window.begin(), a.window.end()));
        }
        // A's allocation never contributes to the peak hour.
        let peak_hour = outcome.planned_load.peak_hour().expect("non-empty load");
        let a_window = outcome.assignments[0].window;
        print!(
            " peak hour {peak_hour} (A at peak: {})",
            a_window.contains_slot(peak_hour)
        );
        println!();
        runs.push(row);
        last = Some(outcome);
    }

    // Cooperative settlement of the last run: A is more flexible ⇒ pays
    // less (Example 3's conclusion).
    let outcome = last.expect("at least one run");
    let consumption: Vec<_> = outcome.assignments.iter().map(|a| a.window).collect();
    let settlement = enki.settle(&reports, &outcome, &consumption)?;
    println!("\nSettlement when everyone cooperates:");
    let rows: Vec<Vec<String>> = settlement
        .entries
        .iter()
        .zip(names.iter())
        .map(|(e, name)| {
            vec![
                name.to_string(),
                format!("{}", e.allocation),
                format!("{:.3}", e.flexibility),
                format!("{:.3}", e.social_cost.psi),
                format!("{:.3}", e.payment),
            ]
        })
        .collect();
    print_table(&["household", "allocation", "flexibility", "psi", "payment"], &rows);

    let flexibility: Vec<f64> = settlement.entries.iter().map(|e| e.flexibility).collect();
    let payments: Vec<f64> = settlement.entries.iter().map(|e| e.payment).collect();
    assert!(
        payments[0] < payments[1] && payments[0] < payments[2],
        "Example 3: the off-peak household must pay less"
    );
    println!("\n✓ A is more flexible and pays less than B and C (paper's conclusion)");

    let path = write_json(
        "fig2_example3",
        &Fig2Output {
            runs,
            flexibility,
            payments,
        },
    )?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
