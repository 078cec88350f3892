//! # enki-bench
//!
//! Reproduction harness for every table and figure in the Enki paper. Each
//! binary regenerates one artifact (see DESIGN.md's experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_example3` | Fig. 2 — Example 3 allocations |
//! | `fig3_example4` | Fig. 3 — Example 4 defection payments |
//! | `fig4_par` | Fig. 4 — peak-to-average ratio, Enki vs Optimal |
//! | `fig5_cost` | Fig. 5 — neighborhood cost, Enki vs Optimal |
//! | `fig6_time` | Fig. 6 — scheduling time, Enki vs Optimal |
//! | `fig7_incentive` | Fig. 7 — utility of household 1 per report |
//! | `table2_defection` | Table II — defection rate per stage |
//! | `table3_utest` | Table III — Mann–Whitney tests vs random defection |
//! | `table4_treatments` | Table IV — defection rate per treatment |
//! | `fig8_true_interval` | Fig. 8 — true-interval selecting ratios |
//! | `fig9_flexibility` | Fig. 9 — flexibility trajectories |
//! | `theorem5_utilities` | Theorems 5–6 — utility vs the price-taking baseline |
//! | `ecc_learning` | ECC cold-start transient |
//! | `ablation_ordering` | greedy ordering policy |
//! | `ablation_pricing` | quadratic vs two-step pricing |
//! | `ablation_scaling` | ξ and k scaling factors |
//! | `ablation_coalition` | §VIII coalitions |
//! | `ablation_decentralized` | §VIII decentralized dynamics |
//! | `repro_all` | everything above, in sequence |
//!
//! Every binary accepts `--seed <u64>` and `--fast` (a reduced workload for
//! smoke runs), prints the paper's rows/series to stdout, and writes JSON
//! next to `target/experiments/` for downstream plotting. The Figures 4–6
//! binaries share one §VI-A sweep, cached on disk so the sweep runs once.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use enki_sim::prelude::{run_social_welfare, SocialWelfareConfig, SocialWelfareRow};
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Wall-time floor below which a speedup is reported as `null`: cells
/// this fast measure pool spin-up noise, not scaling.
pub const SPEEDUP_WALL_FLOOR_MS: f64 = 5.0;

/// `base_ms / wall_ms`, or `None` when either wall time is under
/// [`SPEEDUP_WALL_FLOOR_MS`].
#[must_use]
pub fn speedup(base_ms: f64, wall_ms: f64) -> Option<f64> {
    (base_ms >= SPEEDUP_WALL_FLOOR_MS && wall_ms >= SPEEDUP_WALL_FLOOR_MS)
        .then(|| base_ms / wall_ms)
}

/// Command-line options shared by every reproduction binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// Base RNG seed (`--seed`).
    pub seed: u64,
    /// Reduced workload for smoke runs (`--fast`).
    pub fast: bool,
    /// Ignore any cached sweep and recompute (`--fresh`).
    pub fresh: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            seed: 2017,
            fast: false,
            fresh: false,
        }
    }
}

impl RunArgs {
    /// Parses `--seed <u64>`, `--fast`, and `--fresh` from the process
    /// arguments; unknown arguments are ignored.
    #[must_use]
    pub fn from_env() -> Self {
        let mut args = Self::default();
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--fast" => args.fast = true,
                "--fresh" => args.fresh = true,
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        args.seed = v;
                    }
                }
                _ => {}
            }
        }
        args
    }
}

/// Directory where experiment JSON artifacts are written.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/experiments")
}

/// Serializes `value` to `target/experiments/<name>.json`.
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
#[must_use = "an unchecked write leaves a missing or stale benchmark artifact"]
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = experiments_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// Reads a previously written artifact, if present and parseable.
#[must_use]
pub fn read_json<T: DeserializeOwned>(name: &str) -> Option<T> {
    let path = experiments_dir().join(format!("{name}.json"));
    let data = fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

/// The §VI-A sweep configuration for the given CLI arguments.
#[must_use]
pub fn social_welfare_config(args: &RunArgs) -> SocialWelfareConfig {
    if args.fast {
        SocialWelfareConfig {
            populations: vec![10, 20, 30],
            days: 3,
            optimal_time_limit: Duration::from_millis(500),
            seed: args.seed,
            ..SocialWelfareConfig::default()
        }
    } else {
        SocialWelfareConfig {
            seed: args.seed,
            ..SocialWelfareConfig::default()
        }
    }
}

/// Runs (or loads from cache) the §VI-A social-welfare sweep shared by the
/// Figure 4, 5, and 6 binaries.
///
/// # Errors
///
/// Propagates simulation errors.
#[must_use = "dropping the rows discards the experiment and hides cache or run failures"]
pub fn load_or_run_social_welfare(
    args: &RunArgs,
) -> enki_core::Result<Vec<SocialWelfareRow>> {
    let config = social_welfare_config(args);
    let cache_key = format!(
        "social_welfare_seed{}_{}",
        config.seed,
        if args.fast { "fast" } else { "full" }
    );
    if !args.fresh {
        if let Some(rows) = read_json::<Vec<SocialWelfareRow>>(&cache_key) {
            eprintln!("(using cached sweep {cache_key}.json; pass --fresh to recompute)");
            return Ok(rows);
        }
    }
    eprintln!(
        "running the §VI-A sweep ({} populations × {} days; optimal cap {:?}) …",
        config.populations.len(),
        config.days,
        config.optimal_time_limit
    );
    let rows = run_social_welfare(&config)?;
    if let Err(e) = write_json(&cache_key, &rows) {
        eprintln!("(could not cache sweep: {e})");
    }
    Ok(rows)
}

/// Prints a fixed-width table: a header row followed by data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats `mean ± half-width` the way the paper's error bars read.
#[must_use]
pub fn mean_ci(summary: &enki_stats::descriptive::Summary, digits: usize) -> String {
    format!(
        "{:.d$} ± {:.d$}",
        summary.mean,
        summary.confidence_half_width(0.95),
        d = digits
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args_match_paper_seed() {
        let args = RunArgs::default();
        assert_eq!(args.seed, 2017);
        assert!(!args.fast);
    }

    #[test]
    fn fast_config_is_smaller() {
        let fast = social_welfare_config(&RunArgs {
            fast: true,
            ..RunArgs::default()
        });
        let full = social_welfare_config(&RunArgs::default());
        assert!(fast.populations.len() < full.populations.len());
        assert!(fast.days < full.days);
        assert_eq!(full.populations, vec![10, 20, 30, 40, 50]);
        assert_eq!(full.days, 10);
    }

    #[test]
    fn json_roundtrip() {
        let value = vec![1.5_f64, 2.5, 3.5];
        write_json("test_roundtrip", &value).unwrap();
        let back: Vec<f64> = read_json("test_roundtrip").unwrap();
        assert_eq!(value, back);
    }

    #[test]
    fn mean_ci_formats() {
        let s = enki_stats::descriptive::Summary::from_sample(&[1.0, 2.0, 3.0]);
        let text = mean_ci(&s, 2);
        assert!(text.starts_with("2.00 ±"));
    }
}
