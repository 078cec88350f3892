//! Reproduces Figure 7: utility of the first household for every possible
//! reported interval, when all other households report truthfully.
//!
//! §VI-B setting: n = 50, the subject's true preference is `(18, 20, 2)`
//! (narrow) inside a wide interval `(16, 24)`, ρ = 5; each candidate report
//! is averaged over 10 repetitions. Weak Bayesian incentive compatibility
//! predicts the best response at the truthful `(18, 20)`.

use enki_bench::{print_table, write_json, RunArgs};
use enki_sim::prelude::{run_incentive, IncentiveConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let config = if args.fast {
        IncentiveConfig {
            n: 15,
            repetitions: 3,
            seed: args.seed,
            ..IncentiveConfig::default()
        }
    } else {
        IncentiveConfig {
            seed: args.seed,
            ..IncentiveConfig::default()
        }
    };
    eprintln!(
        "sweeping all reports for household 1 (n = {}, {} repetitions each) …",
        config.n, config.repetitions
    );
    let outcome = run_incentive(&config)?;

    println!("Figure 7 — mean utility of household 1 per reported interval\n");
    // Grid: rows = beginning time, columns = ending time.
    let wide = config.subject_wide;
    let v = config.subject_truth.duration();
    let ends: Vec<u8> = ((wide.begin() + v)..=wide.end()).collect();
    let mut headers = vec!["begin\\end".to_string()];
    headers.extend(ends.iter().map(|e| e.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut table = Vec::new();
    for begin in wide.begin()..=(wide.end() - v) {
        let mut row = vec![begin.to_string()];
        for &end in &ends {
            let cell = outcome
                .points
                .iter()
                .find(|p| p.report.begin() == begin && p.report.end() == end)
                .map(|p| format!("{:.2}", p.utility.mean))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        table.push(row);
    }
    print_table(&header_refs, &table);

    let truth = config.subject_truth;
    println!(
        "\nbest response: {}   (truth: {}, mean utility {:.2})",
        outcome.best_report, truth, outcome.truthful_utility
    );
    if outcome.truth_is_best_response(&truth, 1e-9) {
        println!("✓ the truthful report is the exact best response");
    } else {
        let best = outcome
            .points
            .iter()
            .map(|p| p.utility.mean)
            .fold(f64::NEG_INFINITY, f64::max);
        println!(
            "truthful utility is within {:.2}% of the best response (weak incentive compatibility)",
            100.0 * (best - outcome.truthful_utility) / best.abs().max(1e-9)
        );
    }

    let path = write_json("fig7_incentive", &outcome)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
