//! Reproduces Figure 9: flexibility-ratio trajectories over the 16 rounds
//! for P7 and P8 (the two subjects who understood the game well) and the
//! average of the four intermediate-understanding subjects.
//!
//! The paper's pattern: P7/P8 defect often while learning, then stick to
//! their exact true interval (ratio 1); the intermediate average climbs.

use enki_bench::{print_table, write_json, RunArgs};
use enki_study::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = StudyConfig {
        seed: args.seed,
        ..StudyConfig::default()
    };
    let outcome = run_user_study(&config)?;
    let fig9 = outcome.fig9_flexibility();

    println!("Figure 9 — flexibility ratio per round\n");
    let table: Vec<Vec<String>> = (0..fig9.p7.len())
        .map(|i| {
            vec![
                (i + 1).to_string(),
                format!("{:.2}", fig9.p7[i]),
                format!("{:.2}", fig9.p8[i]),
                format!("{:.2}", fig9.intermediate_mean[i]),
            ]
        })
        .collect();
    print_table(&["round", "P7", "P8", "intermediate avg"], &table);

    let late_p7: f64 = fig9.p7[8..].iter().sum::<f64>() / 8.0;
    let late_p8: f64 = fig9.p8[8..].iter().sum::<f64>() / 8.0;
    let early_int: f64 = fig9.intermediate_mean[..4].iter().sum::<f64>() / 4.0;
    let late_int: f64 = fig9.intermediate_mean[12..].iter().sum::<f64>() / 4.0;
    assert!((late_p7 - 1.0).abs() < 1e-9 && (late_p8 - 1.0).abs() < 1e-9);
    assert!(late_int > early_int);
    println!("\n✓ P7 and P8 stick to their exact true interval in Cooperate (ratio 1)");
    println!(
        "✓ intermediate average rises from {:.2} (rounds 1-4) to {:.2} (rounds 13-16)",
        early_int, late_int
    );

    let path = write_json("fig9_flexibility", &fig9)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
