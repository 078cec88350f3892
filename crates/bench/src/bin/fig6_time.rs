//! Reproduces Figure 6: scheduling time, Enki vs Optimal.
//!
//! Same §VI-A sweep. The paper reports the optimal (CPLEX) scheduler taking
//! roughly 600× longer than Enki's greedy allocation beyond 40 households;
//! with our branch-and-bound stand-in the ratio is far larger still, since
//! greedy runs in microseconds. The Optimal column is capped by the
//! configured anytime budget (`optimal_proven` counts days solved to
//! proven optimality within it).

use enki_bench::{load_or_run_social_welfare, mean_ci, print_table, write_json, RunArgs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let rows = load_or_run_social_welfare(&args)?;

    println!("Figure 6 — scheduling time in milliseconds (mean ± 95% CI over days)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                mean_ci(&r.enki_time_ms, 3),
                mean_ci(&r.optimal_time_ms, 2),
                format!("{:.0}x", r.time_ratio()),
                format!("{}/{}", r.optimal_proven, r.enki_time_ms.count),
                format!("{:.1}%", 100.0 * r.optimal_gap.mean),
            ]
        })
        .collect();
    print_table(
        &["n", "Enki ms", "Optimal ms", "ratio", "proven optimal", "certified gap"],
        &table,
    );

    println!("\npaper's shape: Enki stays flat; Optimal blows up (≈600x at n ≥ 40 on CPLEX)");
    let path = write_json("fig6_time", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
