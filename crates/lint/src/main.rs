//! `enki-lint` CLI: the workspace invariant gate.
//!
//! ```text
//! enki-lint check [--root DIR] [--format text|json] [--output FILE]
//! enki-lint rules [--markdown]
//! ```
//!
//! Exit codes: `0` clean, `1` rule violations, `2` usage or
//! configuration errors (unreadable files or directories).

use std::path::PathBuf;
use std::process::ExitCode;

use enki_lint::engine::run_check;
use enki_lint::{report, ALL_RULES};

const USAGE: &str = "usage: enki-lint <check|rules> [options]\n\
  check --root DIR         workspace root (default: current directory)\n\
        --format FMT       text (default) or json\n\
        --output FILE      write the report there instead of stdout\n\
  rules [--markdown]       print the rule catalog (or the DESIGN.md table)\n\
exit codes: 0 clean, 1 rule violations, 2 usage/configuration errors";

fn fail(message: &str) -> ExitCode {
    eprintln!("enki-lint: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn print_rules(markdown: bool) {
    if markdown {
        print!("{}", enki_lint::rules::markdown_table());
        return;
    }
    println!("enki-lint rules:");
    for rule in ALL_RULES {
        let kind = if rule.is_workspace_rule() {
            " (workspace)"
        } else {
            ""
        };
        println!("  {:<3} {:<18} {}{kind}", rule.code(), rule.name(), rule.enforces());
        println!("      why: {}", rule.rationale());
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return fail("missing command");
    };
    match command.as_str() {
        "rules" => match args.get(1).map(String::as_str) {
            None => {
                print_rules(false);
                ExitCode::SUCCESS
            }
            Some("--markdown") => {
                print_rules(true);
                ExitCode::SUCCESS
            }
            Some(other) => fail(&format!("unknown option `{other}`")),
        },
        "check" => check(&args[1..]),
        other => fail(&format!("unknown command `{other}`")),
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut output: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !matches!(arg.as_str(), "--root" | "--format" | "--output") {
            return fail(&format!("unknown option `{arg}`"));
        }
        let Some(value) = it.next() else {
            return fail(&format!("{arg} requires a value"));
        };
        match (arg.as_str(), value.as_str()) {
            ("--root", _) => root = PathBuf::from(value),
            ("--format", "text") => json = false,
            ("--format", "json") => json = true,
            ("--format", other) => return fail(&format!("unknown format `{other}`")),
            _ => output = Some(PathBuf::from(value)),
        }
    }

    let checked = match run_check(&root) {
        Ok(report) => report,
        Err(message) => return fail(&message),
    };
    let rendered = if json {
        report::to_jsonl(&checked)
    } else {
        report::to_text(&checked)
    };
    match output {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                return fail(&format!("cannot write {}: {e}", path.display()));
            }
            // Keep the terminal summary visible even when the report
            // goes to a file.
            eprint!("{}", report::to_text(&checked));
        }
        None => print!("{rendered}"),
    }

    if checked.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
