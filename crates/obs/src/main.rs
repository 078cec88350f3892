//! The `enki-obs` CLI: validate, explore, and diff telemetry traces and
//! benchmark artifacts.
//!
//! ```text
//! enki-obs validate  <trace.jsonl>...
//! enki-obs tree      <trace.jsonl>
//! enki-obs causal    <trace.jsonl> [<trace_id>]
//! enki-obs follow    <trace.jsonl> <seed> <day> <household>
//! enki-obs critical  <trace.jsonl>
//! enki-obs diff      <a.jsonl> <b.jsonl>
//! enki-obs bench-diff <baseline.json> <candidate.json> [--threshold 0.25]
//! ```
//!
//! Exit codes: 0 success, 1 findings (invalid trace, trace divergence,
//! bench regression), 2 usage error.

use std::process::ExitCode;

use enki_obs::{
    bench_diff, diff_traces, load_trace, render_bench, render_causal_tree, render_critical_path,
    render_diff, render_followed_report, render_structural_tree, causal_trace_ids, TraceFile,
};

const USAGE: &str = "usage: enki-obs <command> ...
  validate   <trace.jsonl>...            re-check schema invariants
  tree       <trace.jsonl>               structural span tree
  causal     <trace.jsonl> [<trace_id>]  causal trees from stamped ids
  follow     <trace.jsonl> <seed> <day> <household>
                                         follow one report edge-to-bill
  critical   <trace.jsonl>               structural critical path
  diff       <a.jsonl> <b.jsonl>         span census + counter diff
  bench-diff <old.json> <new.json> [--threshold 0.25]
                                         flag performance regressions
";

fn load(path: &str) -> Result<TraceFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    load_trace(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_u64(text: &str, what: &str) -> Result<u64, String> {
    // Accept both decimal and the 0x-prefixed form the renderers print.
    let parsed = if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("{what}: expected a number, got `{text}`"))
}

fn cmd_validate(paths: &[String]) -> Result<ExitCode, String> {
    let mut failed = false;
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        match enki_telemetry::validate_jsonl(&text) {
            Ok(s) => println!(
                "{path}: ok — {} spans ({} open, {} traced), {} counters, {} gauges, {} histograms",
                s.spans, s.open, s.traced, s.counters, s.gauges, s.histograms
            ),
            Err(e) => {
                println!("{path}: INVALID — {e}");
                failed = true;
            }
        }
    }
    Ok(if failed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

fn cmd_causal(path: &str, trace_id: Option<&str>) -> Result<ExitCode, String> {
    let trace = load(path)?;
    match trace_id {
        Some(id) => {
            let id = parse_u64(id, "trace_id")?;
            print!("{}", render_causal_tree(&trace, id));
        }
        None => {
            let ids = causal_trace_ids(&trace);
            println!("{} causal traces", ids.len());
            for (id, spans) in ids {
                println!("  {id:#x} — {spans} spans");
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_follow(path: &str, seed: &str, day: &str, household: &str) -> Result<ExitCode, String> {
    let trace = load(path)?;
    let seed = parse_u64(seed, "seed")?;
    let day = parse_u64(day, "day")?;
    let household = parse_u64(household, "household")?;
    let (rendered, witnessed) = render_followed_report(&trace, seed, day, household);
    print!("{rendered}");
    println!("{witnessed}/5 stages witnessed");
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(a: &str, b: &str) -> Result<ExitCode, String> {
    let ta = load(a)?;
    let tb = load(b)?;
    let d = diff_traces(&ta, &tb);
    print!("{}", render_diff(&d));
    Ok(if d.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn cmd_bench_diff(old: &str, new: &str, threshold: f64) -> Result<ExitCode, String> {
    let old_text = std::fs::read_to_string(old).map_err(|e| format!("{old}: {e}"))?;
    let new_text = std::fs::read_to_string(new).map_err(|e| format!("{new}: {e}"))?;
    let report = bench_diff(&old_text, &new_text, threshold)?;
    print!("{}", render_bench(&report, threshold));
    let clean = report.regressions.is_empty() && report.missing.is_empty();
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [cmd, rest @ ..] if cmd == "validate" && !rest.is_empty() => cmd_validate(rest),
        [cmd, path] if cmd == "tree" => {
            print!("{}", render_structural_tree(&load(path)?));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, path] if cmd == "causal" => cmd_causal(path, None),
        [cmd, path, id] if cmd == "causal" => cmd_causal(path, Some(id)),
        [cmd, path, seed, day, household] if cmd == "follow" => {
            cmd_follow(path, seed, day, household)
        }
        [cmd, path] if cmd == "critical" => {
            print!("{}", render_critical_path(&load(path)?));
            Ok(ExitCode::SUCCESS)
        }
        [cmd, a, b] if cmd == "diff" => cmd_diff(a, b),
        [cmd, old, new] if cmd == "bench-diff" => cmd_bench_diff(old, new, 0.25),
        [cmd, old, new, flag, value] if cmd == "bench-diff" && flag == "--threshold" => {
            let threshold: f64 = value
                .parse()
                .map_err(|_| format!("--threshold: expected a number, got `{value}`"))?;
            cmd_bench_diff(old, new, threshold)
        }
        _ => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("enki-obs: {message}");
            ExitCode::from(1)
        }
    }
}
