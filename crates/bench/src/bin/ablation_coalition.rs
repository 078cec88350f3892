//! Ablation: §VIII coalitions — households pre-coordinating their joint
//! consumption before reporting.
//!
//! Members jointly flatten their combined load and pin the chosen
//! placements as zero-slack reports. The measurement: joint member peak
//! and neighborhood cost go down, but the members' *payments* can go up —
//! pinned reports carry minimal flexibility scores, the exact trade-off
//! the mechanism's incentives create.

use enki_bench::{print_table, write_json, RunArgs};
use enki_core::prelude::*;
use enki_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let trials = if args.fast { 5 } else { 20 };
    let enki = Enki::new(EnkiConfig::default());
    let profile = ProfileConfig::default();

    let mut rows = Vec::new();
    let mut peak_wins = 0usize;
    let mut cost_wins = 0usize;
    let mut payment_rises = 0usize;
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(args.seed ^ (trial as u64) << 16);
        // A coalition of 5 plus 20 independent truthful households.
        let coalition = Coalition::new(
            (0..5u32)
                .map(|i| {
                    (
                        HouseholdId::new(i),
                        UsageProfile::generate(&mut rng, &profile).wide(),
                    )
                })
                .collect(),
        )?;
        let others: Vec<Report> = (5..25u32)
            .map(|i| {
                Report::new(
                    HouseholdId::new(i),
                    UsageProfile::generate(&mut rng, &profile).narrow(),
                )
            })
            .collect();
        let cmp = compare_coalition(&enki, &coalition, &others, &mut rng)?;
        if cmp.coordinated_member_peak <= cmp.uncoordinated_member_peak + 1e-9 {
            peak_wins += 1;
        }
        if cmp.coordinated_cost <= cmp.uncoordinated_cost + 1e-9 {
            cost_wins += 1;
        }
        if cmp.coordinated_member_payment > cmp.uncoordinated_member_payment {
            payment_rises += 1;
        }
        rows.push(cmp);
    }

    println!("Ablation — §VIII coalitions ({trials} trials, 5 members + 20 others)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, c)| {
            vec![
                i.to_string(),
                format!("{:.1} → {:.1}", c.uncoordinated_member_peak, c.coordinated_member_peak),
                format!("{:.1} → {:.1}", c.uncoordinated_cost, c.coordinated_cost),
                format!(
                    "{:.2} → {:.2}",
                    c.uncoordinated_member_payment, c.coordinated_member_payment
                ),
            ]
        })
        .collect();
    print_table(
        &["trial", "member peak", "neighborhood cost", "member payment"],
        &table,
    );

    println!(
        "\njoint peak never rises in {peak_wins}/{trials} trials; cost improves or ties in {cost_wins}/{trials};"
    );
    println!(
        "payments rise in {payment_rises}/{trials} — pinned reports sacrifice flexibility scores,"
    );
    println!("so coalitions help the neighborhood but are not always privately profitable");

    let path = write_json("ablation_coalition", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
