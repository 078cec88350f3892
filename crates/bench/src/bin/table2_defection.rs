//! Reproduces Table II: average defection rate of the 20 subjects per
//! stage (Overall / Initial / Defect / Cooperate).
//!
//! The human subjects are replaced by the calibrated behaviour models of
//! `enki-study` (see DESIGN.md, substitution 2).

use enki_bench::{print_table, write_json, RunArgs};
use enki_study::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = StudyConfig {
        seed: args.seed,
        ..StudyConfig::default()
    };
    let outcome = run_user_study(&config)?;
    let rates = outcome.table2_defection_rates();

    println!("Table II — average defection rate of 20 subjects\n");
    print_table(
        &["", "Overall", "Initial", "Defect", "Cooperate"],
        &[
            vec![
                "ours".to_string(),
                format!("{:.4}", rates.overall),
                format!("{:.4}", rates.initial),
                format!("{:.4}", rates.defect),
                format!("{:.4}", rates.cooperate),
            ],
            vec![
                "paper".to_string(),
                "0.2049".to_string(),
                "0.3625".to_string(),
                "0.2938".to_string(),
                "0.1250".to_string(),
            ],
        ],
    );

    println!("\npaper's shape: low overall; highest while learning (Initial);");
    println!("lowest once all artificial agents cooperate (Cooperate)");
    assert!(rates.initial > rates.cooperate);
    println!("✓ Initial > Cooperate holds");

    let path = write_json("table2_defection", &rates)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
