//! Runs the entire reproduction suite in sequence: every table and figure
//! binary, the theorem quantification, all four ablations, and the
//! telemetry-instrumented allocation bench.
//!
//! `cargo run --release -p enki-bench --bin repro_all [-- --fast --seed N]`
//!
//! Each sibling binary is executed from the same target directory with the
//! same arguments; the run aborts on the first failure so a broken
//! artifact cannot be missed. A final telemetry table reports each
//! binary's wall time and (on Linux, via `/proc/<pid>/status`) its peak
//! resident set size.

use std::process::Command;
use std::time::Duration;

use enki_bench::print_table;
use enki_telemetry::{Clock, MonotonicClock};

/// Every reproduction binary, in presentation order.
const BINARIES: &[&str] = &[
    "fig2_example3",
    "fig3_example4",
    "fig4_par",
    "fig5_cost",
    "fig6_time",
    "fig7_incentive",
    "table2_defection",
    "table3_utest",
    "table4_treatments",
    "fig8_true_interval",
    "fig9_flexibility",
    "theorem5_utilities",
    "ecc_learning",
    "ablation_ordering",
    "ablation_pricing",
    "ablation_scaling",
    "ablation_coalition",
    "ablation_decentralized",
    "bench_telemetry",
];

/// Peak resident set size of a live process in kibibytes, from the
/// `VmHWM` line of `/proc/<pid>/status`. `None` off Linux or once the
/// process has exited.
fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = std::env::current_exe()?
        .parent()
        .expect("executable lives in a directory")
        .to_path_buf();

    let mut timings: Vec<(String, Duration, Option<u64>)> = Vec::new();
    for (i, name) in BINARIES.iter().enumerate() {
        println!(
            "\n━━━ [{}/{}] {} ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━",
            i + 1,
            BINARIES.len(),
            name
        );
        let clock = MonotonicClock::new();
        let started = clock.now();
        let mut child = Command::new(dir.join(name)).args(&args).spawn()?;
        // Sample the child's high-water mark while it runs; VmHWM is
        // monotone, so the last successful sample is the peak.
        let mut peak: Option<u64> = None;
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            peak = peak_rss_kib(child.id()).or(peak);
            std::thread::sleep(Duration::from_millis(20));
        };
        if !status.success() {
            return Err(format!("{name} failed with {status}").into());
        }
        timings.push(((*name).to_string(), clock.now().saturating_sub(started), peak));
    }

    println!(
        "\nall {} artifacts regenerated; JSON in target/experiments/",
        BINARIES.len()
    );
    println!("\ntelemetry summary\n");
    let rows: Vec<Vec<String>> = timings
        .iter()
        .map(|(name, elapsed, peak)| {
            vec![
                name.clone(),
                format!("{:.2}", elapsed.as_secs_f64()),
                peak.map_or_else(|| "-".to_string(), |kib| format!("{:.1}", {
                    #[expect(
                        clippy::cast_precision_loss,
                        reason = "a peak RSS in KiB stays far below 2^52, where f64 is exact"
                    )]
                    let mib = kib as f64 / 1024.0;
                    mib
                })),
            ]
        })
        .collect();
    print_table(&["binary", "wall s", "peak RSS MiB"], &rows);
    let total: Duration = timings.iter().map(|(_, d, _)| *d).sum();
    println!("\ntotal wall time: {:.2} s", total.as_secs_f64());
    Ok(())
}
