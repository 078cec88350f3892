//! Reproduces Figure 8: true-interval selecting ratio per subject, Initial
//! vs Cooperate, with the Mann–Whitney U test.
//!
//! The four non-comprehending subjects are removed (as in the paper) and
//! the one-sided test asks whether subjects select their exact true
//! interval more often in Cooperate than in Initial (paper: p = 0.0143).

use enki_bench::{print_table, write_json, RunArgs};
use enki_study::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = StudyConfig {
        seed: args.seed,
        ..StudyConfig::default()
    };
    let outcome = run_user_study(&config)?;
    let fig8 = outcome.fig8_true_interval();

    println!("Figure 8 — true-interval selecting ratio (16 comprehending subjects)\n");
    let table: Vec<Vec<String>> = fig8
        .per_subject
        .iter()
        .map(|&(subject, initial, cooperate)| {
            vec![
                subject.to_string(),
                format!("{:.2}", initial),
                format!("{:.2}", cooperate),
            ]
        })
        .collect();
    print_table(&["subject", "Initial", "Cooperate"], &table);

    println!(
        "\nmean over all 20 subjects: Initial {:.4} (paper 0.2375), Cooperate {:.4} (paper 0.3750)",
        fig8.mean_initial_all, fig8.mean_cooperate_all
    );
    println!(
        "one-sided Mann–Whitney U: p = {:.4} (paper 0.0143)",
        fig8.test.p_value
    );
    assert!(fig8.mean_cooperate_all > fig8.mean_initial_all);
    assert!(fig8.test.p_value < 0.05);
    println!("✓ subjects submit their exact true interval more often in Cooperate");

    let path = write_json("fig8_true_interval", &fig8)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
