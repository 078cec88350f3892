//! Reproduces Table IV: average defection rate by treatment.
//!
//! Treatment 1 is the group setting (16 subjects, 6 artificial agents per
//! session); Treatment 2 is solo (4 subjects, each alone with 4 agents).
//! The paper's key observation: Treatment 2 subjects barely defect once
//! every co-player cooperates (Cooperate stage).

use enki_bench::{print_table, write_json, RunArgs};
use enki_study::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = StudyConfig {
        seed: args.seed,
        ..StudyConfig::default()
    };
    let outcome = run_user_study(&config)?;
    let (t1, t2) = outcome.table4_treatment_rates();

    println!("Table IV — average defection rate in the two treatments\n");
    let fmt = |r: &DefectionRates| {
        vec![
            format!("{:.2}", r.overall),
            format!("{:.2}", r.initial),
            format!("{:.2}", r.defect),
            format!("{:.2}", r.cooperate),
        ]
    };
    let mut t1_row = vec!["T1 (ours)".to_string()];
    t1_row.extend(fmt(&t1));
    let mut t2_row = vec!["T2 (ours)".to_string()];
    t2_row.extend(fmt(&t2));
    print_table(
        &["", "Overall", "Initial", "Defect", "Cooperate"],
        &[
            t1_row,
            t2_row,
            vec![
                "T1 (paper)".into(),
                "0.23".into(),
                "0.34".into(),
                "0.31".into(),
                "0.15".into(),
            ],
            vec![
                "T2 (paper)".into(),
                "0.14".into(),
                "0.44".into(),
                "0.25".into(),
                "0.03".into(),
            ],
        ],
    );

    assert!(t2.cooperate <= t1.cooperate + 1e-9);
    println!("\n✓ Treatment 2 defects less in Cooperate — the solo subject faces only");
    println!("  cooperating agents, corroborating weak incentive compatibility");

    let path = write_json("table4_treatments", &(t1, t2))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
