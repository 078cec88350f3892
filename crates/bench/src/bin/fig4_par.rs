//! Reproduces Figure 4: peak-to-average ratio (PAR), Enki vs Optimal.
//!
//! §VI-A setting: populations 10–50, 10 days each, every household
//! truthfully reports its wide interval. Both schedulers' PARs are close —
//! the paper's point is that greedy loses almost nothing.

use enki_bench::{load_or_run_social_welfare, mean_ci, print_table, write_json, RunArgs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = RunArgs::from_env();
    let rows = load_or_run_social_welfare(&args)?;

    println!("Figure 4 — peak-to-average ratio (mean ± 95% CI over days)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                mean_ci(&r.enki_par, 3),
                mean_ci(&r.optimal_par, 3),
                format!("{:+.1}%", 100.0 * (r.enki_par.mean / r.optimal_par.mean - 1.0)),
            ]
        })
        .collect();
    print_table(&["n", "Enki PAR", "Optimal PAR", "Enki gap"], &table);

    println!("\npaper's shape: the two curves nearly coincide; both PARs stay modest");
    let worst_gap = rows
        .iter()
        .map(|r| r.enki_par.mean / r.optimal_par.mean)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("largest Enki/Optimal PAR ratio observed: {worst_gap:.3}");

    let path = write_json("fig4_par", &rows)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
