//! Reproduces Figure 5: cost to the neighborhood, Enki vs Optimal.
//!
//! Same §VI-A sweep as Figure 4; the metric is the quadratic wholesale
//! cost `κ`. Greedy tracks the optimum closely at every population size.

use enki_bench::{load_or_run_social_welfare, mean_ci, print_table, write_json, RunArgs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let rows = load_or_run_social_welfare(&args)?;

    println!("Figure 5 — neighborhood cost in dollars (mean ± 95% CI over days)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                mean_ci(&r.enki_cost, 1),
                mean_ci(&r.optimal_cost, 1),
                format!(
                    "{:+.2}%",
                    100.0 * (r.enki_cost.mean / r.optimal_cost.mean - 1.0)
                ),
            ]
        })
        .collect();
    print_table(&["n", "Enki cost", "Optimal cost", "Enki gap"], &table);

    println!("\npaper's shape: cost grows with n; the greedy/optimal difference is small");
    let path = write_json("fig5_cost", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
