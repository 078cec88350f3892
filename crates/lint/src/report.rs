//! Report rendering: human-readable text and machine-readable JSONL.
//!
//! The JSON output is line-oriented and reuses the `enki-telemetry/1`
//! header shape (`type`/`schema`/`run_id`/`label`/`seed`/`git_rev`/
//! `clock` on the first line) under its own schema tag `enki-lint/1`,
//! so the CI artifact tooling that already parses telemetry traces can
//! parse lint reports with the same reader:
//!
//! ```text
//! {"type":"run","schema":"enki-lint/1","run_id":"…","label":"enki-lint","seed":0,"git_rev":"…","clock":"none","files":96}
//! {"type":"violation","rule":"R3","name":"float-discipline","file":"…","line":12,"message":"…"}
//! {"type":"summary","files":96,"violations":0,"ok":true}
//! ```
//!
//! Everything is deterministic: the `run_id` is a content hash of the
//! findings, not a timestamp, so identical trees produce identical
//! reports byte-for-byte (the same discipline the clock ban enforces
//! on the code under analysis).

use std::fmt::Write as _;
use std::path::Path;

use crate::rules::Violation;

/// Schema tag stamped into every JSON report header.
pub const SCHEMA: &str = "enki-lint/1";

/// The full result of one `check` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Violations (any one fails the build).
    pub violations: Vec<Violation>,
    /// Git revision of the tree, or `"unknown"`.
    pub git_rev: String,
}

impl Report {
    /// Whether the tree is clean.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic content-hash id for this report (FNV-1a over the
    /// findings), in place of the timestamp a telemetry run would use.
    #[must_use]
    pub fn run_id(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.files as u64).to_le_bytes());
        for v in &self.violations {
            eat(v.rule.code().as_bytes());
            eat(v.path.as_bytes());
            eat(&v.line.to_le_bytes());
        }
        format!("lint-{hash:016x}")
    }
}

/// Reads the current git revision from `.git` without shelling out
/// (the linter must work in minimal CI containers).
#[must_use]
pub fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(root.join(".git").join(reference)) {
            return rev.trim().to_string();
        }
        // Packed refs fallback.
        if let Ok(packed) = std::fs::read_to_string(root.join(".git/packed-refs")) {
            for line in packed.lines() {
                if let Some(rev) = line.strip_suffix(reference) {
                    return rev.trim().to_string();
                }
            }
        }
        return "unknown".to_string();
    }
    head.to_string()
}

fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable JSONL report.
#[must_use]
pub fn to_jsonl(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"run\",\"schema\":\"{SCHEMA}\",\"run_id\":\"{}\",\"label\":\"enki-lint\",\
         \"seed\":0,\"git_rev\":\"{}\",\"clock\":\"none\",\"files\":{}}}",
        report.run_id(),
        escape_json(&report.git_rev),
        report.files
    );
    for v in &report.violations {
        let _ = writeln!(
            out,
            "{{\"type\":\"violation\",\"rule\":\"{}\",\"name\":\"{}\",\"file\":\"{}\",\
             \"line\":{},\"message\":\"{}\"}}",
            v.rule.code(),
            v.rule.name(),
            escape_json(&v.path),
            v.line,
            escape_json(&v.message)
        );
    }
    let _ = writeln!(
        out,
        "{{\"type\":\"summary\",\"files\":{},\"violations\":{},\"ok\":{}}}",
        report.files,
        report.violations.len(),
        report.ok()
    );
    out
}

/// Renders the human-readable report.
#[must_use]
pub fn to_text(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        let _ = writeln!(
            out,
            "{}:{}: {} [{}]: {}",
            v.path,
            v.line,
            v.rule.code(),
            v.rule.name(),
            v.message
        );
    }
    let _ = writeln!(
        out,
        "enki-lint: {} file(s), {} violation(s) — {}",
        report.files,
        report.violations.len(),
        if report.ok() { "ok" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn sample() -> Report {
        Report {
            files: 3,
            violations: vec![Violation {
                rule: RuleId::FloatDiscipline,
                path: "crates/core/src/x.rs".to_string(),
                line: 7,
                message: "a \"quoted\" message\nwith newline".to_string(),
            }],
            git_rev: "abc123".to_string(),
        }
    }

    #[test]
    fn jsonl_header_reuses_the_telemetry_shape() {
        let json = to_jsonl(&sample());
        let header = json.lines().next().expect("header");
        for key in ["\"type\":\"run\"", "\"schema\":\"enki-lint/1\"", "\"run_id\"", "\"label\"", "\"seed\"", "\"git_rev\"", "\"clock\""] {
            assert!(header.contains(key), "missing {key} in {header}");
        }
    }

    #[test]
    fn jsonl_escapes_quotes_and_newlines() {
        let json = to_jsonl(&sample());
        assert!(json.contains("a \\\"quoted\\\" message\\nwith newline"));
        assert!(!json.contains("message\nwith"));
    }

    #[test]
    fn run_id_is_a_deterministic_content_hash() {
        assert_eq!(sample().run_id(), sample().run_id());
        let mut other = sample();
        other.violations[0].line = 8;
        assert_ne!(sample().run_id(), other.run_id());
    }

    #[test]
    fn ok_tracks_violations() {
        let mut r = sample();
        assert!(!r.ok());
        r.violations.clear();
        assert!(r.ok());
    }

    #[test]
    fn text_report_names_file_line_and_rule() {
        let text = to_text(&sample());
        assert!(text.contains("crates/core/src/x.rs:7: R3 [float-discipline]"));
        assert!(text.contains("1 violation(s)"));
        assert!(text.contains("FAIL"));
    }
}
