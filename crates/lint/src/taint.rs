//! R10 determinism-taint: nondeterminism must not reach the bytes
//! that recovery replays or the ids that traces compare.
//!
//! Sources are the workspace's known nondeterminism producers:
//! `Instant::now()` / `SystemTime::now()` (the calls the `clippy.toml`
//! clock ban covers), `thread::current()` ids, `RandomState`, and
//! `{:p}` pointer formatting inside string literals (read from
//! [`Token::content`], since `text` strips the literal body).
//!
//! Two checks run over the whole workspace:
//!
//! 1. **Location rule** — the deterministic persistence zone
//!    (`crates/durable/src/**` and `crates/telemetry/src/trace.rs`)
//!    must contain *no* source token at all: everything there feeds
//!    checkpoint bytes or trace derivation directly.
//! 2. **Flow rule** — everywhere else (minus the bench/lint/obs crates,
//!    which legitimately time things and write reports), a source value
//!    must not flow into a sink call. Flow is tracked through simple
//!    `let` chains (`let t = Instant::now(); let n = t.elapsed();`
//!    taints `n`) and through one level of intra-crate calls (a call to
//!    a crate-local fn whose body reads a source taints the binding).
//!    Sinks are the WAL/checkpoint encoder and `TraceContext`
//!    derivation surface: `append`, `encode`, `compact`, `checkpoint`,
//!    `snapshot`, `day_root`, `child_salted`, `report_stage`.
//!
//! `crates/telemetry/src/clock.rs` is exempt end to end: it is the one
//! sanctioned wrapper around the OS clock, and values read through the
//! injected `Clock` trait are the *designed* deterministic boundary
//! (VirtualClock replays them), so calls into clock-defined fns do not
//! taint.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
use crate::parse::{matching_delim, parse};
use crate::rules::{RuleId, SourceFile, Violation};

/// The sanctioned OS-clock wrapper; fully exempt.
const CLOCK_WRAPPER: &str = "crates/telemetry/src/clock.rs";

/// Crates whose whole job is timing and report-writing; the flow rule
/// does not apply to them.
const FLOW_EXEMPT_CRATES: &[&str] = &["bench", "lint", "obs"];

/// Sink functions: WAL/checkpoint encoding and trace derivation.
const SINK_FNS: &[&str] = &[
    "append",
    "encode",
    "encode_into",
    "compact",
    "checkpoint",
    "snapshot",
    "day_root",
    "child_salted",
    "report_stage",
];

/// Paths whose bytes become durable state or trace ids: no source
/// token may appear here at all.
fn in_deterministic_zone(rel_path: &str) -> bool {
    rel_path.starts_with("crates/durable/src/") || rel_path == "crates/telemetry/src/trace.rs"
}

/// A nondeterminism source found in a token range.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Source {
    desc: &'static str,
    line: u32,
}

/// Scans `toks[range]` for the first source pattern, ignoring tokens
/// masked as test code.
fn find_source(file: &SourceFile, start: usize, end: usize) -> Option<Source> {
    let toks = &file.tokens;
    for i in start..end.min(toks.len()) {
        if file.ctx.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Str && t.content.contains("{:p}") {
            return Some(Source {
                desc: "`{:p}` pointer formatting",
                line: t.line,
            });
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let double_colon_next = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
        match t.text.as_str() {
            "Instant" if double_colon_next && toks.get(i + 2).is_some_and(|n| n.is_ident("now")) => {
                return Some(Source {
                    desc: "`Instant::now()`",
                    line: t.line,
                });
            }
            "SystemTime"
                if double_colon_next && toks.get(i + 2).is_some_and(|n| n.is_ident("now")) =>
            {
                return Some(Source {
                    desc: "`SystemTime::now()`",
                    line: t.line,
                });
            }
            "thread"
                if double_colon_next && toks.get(i + 2).is_some_and(|n| n.is_ident("current")) =>
            {
                return Some(Source {
                    desc: "`thread::current()`",
                    line: t.line,
                });
            }
            "RandomState" => {
                return Some(Source {
                    desc: "`RandomState`",
                    line: t.line,
                });
            }
            _ => {}
        }
    }
    None
}

/// Collects, per crate, the names of fns whose bodies read a source:
/// one level of call indirection for the flow rule. Fns defined in the
/// clock wrapper are the sanctioned boundary and excluded.
fn tainted_returning_fns(files: &[SourceFile]) -> BTreeMap<String, BTreeMap<String, &'static str>> {
    let mut out: BTreeMap<String, BTreeMap<String, &'static str>> = BTreeMap::new();
    for file in files {
        if file.is_test_target || file.rel_path == CLOCK_WRAPPER {
            continue;
        }
        let Some(dir) = file.crate_dir.clone() else {
            continue;
        };
        let parsed = parse(&file.tokens);
        for f in &parsed.fns {
            let Some((open, close)) = f.body else { continue };
            if file.ctx.test_mask.get(open).copied().unwrap_or(false) {
                continue;
            }
            if let Some(src) = find_source(file, open, close) {
                out.entry(dir.clone())
                    .or_default()
                    .entry(f.name.clone())
                    .or_insert(src.desc);
            }
        }
    }
    out
}

/// Where a tainted local binding got its taint.
#[derive(Debug, Clone)]
struct Taint {
    desc: String,
    line: u32,
}

/// Runs the determinism-taint pass over the whole workspace.
#[must_use]
pub fn determinism_taint(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let tainted_fns = tainted_returning_fns(files);

    for file in files {
        if file.is_test_target || file.rel_path == CLOCK_WRAPPER {
            continue;
        }

        // Location rule: the deterministic zone admits no source.
        if in_deterministic_zone(&file.rel_path) {
            if let Some(src) = find_source(file, 0, file.tokens.len()) {
                out.push(Violation {
                    rule: RuleId::DeterminismTaint,
                    path: file.rel_path.clone(),
                    line: src.line,
                    message: format!(
                        "{} inside the deterministic persistence zone: every byte \
                         here feeds checkpoint/WAL encoding or trace derivation, so \
                         nondeterminism sources are banned outright — take the value \
                         as a caller-supplied parameter instead",
                        src.desc,
                    ),
                });
            }
            continue;
        }

        let Some(dir) = file.crate_dir.as_deref() else {
            continue;
        };
        if FLOW_EXEMPT_CRATES.contains(&dir) {
            continue;
        }
        let crate_tainted_fns = tainted_fns.get(dir);

        let parsed = parse(&file.tokens);
        for f in &parsed.fns {
            let Some((open, close)) = f.body else { continue };
            if file.ctx.test_mask.get(open).copied().unwrap_or(false) {
                continue;
            }
            flow_check(file, open, close, crate_tainted_fns, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Is `toks[i]` a *call* to `name` (not its definition)?
fn is_call(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        && !(i > 0 && toks[i - 1].is_ident("fn"))
}

/// Scans one fn body: taints simple `let` bindings whose initializer
/// contains a source, a tainted name, or a call to a tainted-returning
/// crate-local fn; flags sink calls whose argument range carries taint.
fn flow_check(
    file: &SourceFile,
    open: usize,
    close: usize,
    crate_tainted_fns: Option<&BTreeMap<String, &'static str>>,
    out: &mut Vec<Violation>,
) {
    let toks = &file.tokens;
    let mut tainted: BTreeMap<String, Taint> = BTreeMap::new();

    // Returns taint provenance if `toks[start..end]` carries taint.
    let carries_taint = |tainted: &BTreeMap<String, Taint>, start: usize, end: usize| {
        if let Some(src) = find_source(file, start, end) {
            return Some(Taint {
                desc: src.desc.to_string(),
                line: src.line,
            });
        }
        for i in start..end.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            if let Some(origin) = tainted.get(&t.text) {
                return Some(Taint {
                    desc: format!("`{}` (tainted by {} at line {})", t.text, origin.desc, origin.line),
                    line: t.line,
                });
            }
            if is_call(toks, i) {
                if let Some(desc) = crate_tainted_fns.and_then(|m| m.get(&t.text)) {
                    return Some(Taint {
                        desc: format!("call to `{}()` which reads {desc}", t.text),
                        line: t.line,
                    });
                }
            }
        }
        None
    };

    let mut i = open + 1;
    while i < close.min(toks.len()) {
        let t = &toks[i];
        // `let [mut] name = <init>;` — taint the binding if the
        // initializer carries taint.
        if t.is_ident("let") {
            let mut n = i + 1;
            if toks.get(n).is_some_and(|x| x.is_ident("mut")) {
                n += 1;
            }
            let name = toks
                .get(n)
                .filter(|x| x.kind == TokenKind::Ident)
                .map(|x| x.text.clone());
            if let Some(name) = name {
                if toks.get(n + 1).is_some_and(|x| x.is_punct("=")) {
                    // Initializer runs to the statement's `;` at
                    // bracket depth zero.
                    let mut depth = 0i32;
                    let mut j = n + 2;
                    while j < close.min(toks.len()) {
                        match toks[j].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(origin) = carries_taint(&tainted, n + 2, j) {
                        tainted.insert(name, origin);
                    }
                    i = j + 1;
                    continue;
                }
            }
        }
        // Sink call with tainted arguments.
        if t.kind == TokenKind::Ident
            && SINK_FNS.contains(&t.text.as_str())
            && is_call(toks, i)
            && !file.ctx.test_mask.get(i).copied().unwrap_or(false)
        {
            let args_end = matching_delim(toks, i + 1).unwrap_or(i + 2);
            if let Some(origin) = carries_taint(&tainted, i + 2, args_end) {
                out.push(Violation {
                    rule: RuleId::DeterminismTaint,
                    path: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "nondeterministic value flows into sink `{}(…)`: argument \
                         carries {} — WAL/checkpoint bytes and trace ids must be \
                         derived only from deterministic inputs or recovery replay \
                         diverges from the original run",
                        t.text, origin.desc,
                    ),
                });
                i = args_end + 1;
                continue;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::classify;

    fn violations_for(sources: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| classify(path, src))
            .collect();
        determinism_taint(&files)
    }

    #[test]
    fn deterministic_zone_bans_sources_outright() {
        for (path, src) in [
            (
                "crates/durable/src/wal.rs",
                "fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/telemetry/src/trace.rs",
                "fn salt() -> u64 { let s = RandomState::new(); 0 }",
            ),
        ] {
            let v = violations_for(&[(path, src)]);
            assert_eq!(v.len(), 1, "{path}: {v:?}");
            assert_eq!(v[0].path, path);
            assert!(v[0].message.contains("deterministic persistence zone"));
        }
    }

    #[test]
    fn let_chain_into_wal_append_is_flagged() {
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn f(w: &mut Wal) {\n let t = Instant::now();\n let n = t.elapsed().as_nanos();\n \
             w.append(Kind::Report, n);\n}",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        let msg = &v[0].message;
        assert!(msg.contains("sink `append(…)`"), "{msg}");
        assert!(msg.contains("Instant::now()"), "{msg}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn direct_source_in_sink_args_is_flagged() {
        let v = violations_for(&[(
            "crates/agents/src/runtime.rs",
            "fn f(ctx: &TraceContext) { ctx.child_salted(\"span\", thread::current().id().as_u64()); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("thread::current()"), "{}", v[0].message);
    }

    #[test]
    fn pointer_formatting_taints_through_let() {
        let v = violations_for(&[(
            "crates/agents/src/runtime.rs",
            "fn f(ctx: &TraceContext, x: &X) { let id = format!(\"{:p}\", x);\n \
             ctx.report_stage(seed, day, id.len() as u64, 1); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("{:p}` pointer formatting"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn one_level_call_indirection_taints_the_binding() {
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn now_us() -> u64 { Instant::now().elapsed().as_micros() as u64 }\n\
             fn g(w: &mut Wal) { let t = now_us(); w.append(Kind::X, t); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("call to `now_us()` which reads `Instant::now()`"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn untainted_sink_calls_and_sourceless_files_pass() {
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn f(w: &mut Wal, payload: &[u8]) { let n = payload.len(); w.append(Kind::X, n); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
        // A source that never reaches a sink is the clock ban's business,
        // not R10's.
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn f() { let t = Instant::now(); log(t); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_wrapper_bench_obs_and_test_code_are_exempt() {
        let v = violations_for(&[
            (
                "crates/telemetry/src/clock.rs",
                "fn now(&self) -> u64 { let t = Instant::now(); self.encode(t) }",
            ),
            (
                "crates/bench/src/bin/bench_all.rs",
                "fn f(w: &mut Wal) { let t = Instant::now(); w.append(K, t); }",
            ),
            (
                "crates/obs/src/report.rs",
                "fn f(w: &mut Wal) { let t = SystemTime::now(); w.append(K, t); }",
            ),
            (
                "crates/serve/src/queue.rs",
                "#[cfg(test)]\nmod tests {\n fn f(w: &mut Wal) { let t = Instant::now(); \
                 w.append(K, t); }\n}",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn clock_defined_fns_do_not_enter_the_tainted_table() {
        // `monotonic_now` lives in the sanctioned wrapper: calling it
        // elsewhere is the designed boundary, not a taint source.
        let v = violations_for(&[
            (
                "crates/telemetry/src/clock.rs",
                "pub fn monotonic_now() -> u64 { Instant::now().elapsed().as_nanos() as u64 }",
            ),
            (
                "crates/telemetry/src/recorder.rs",
                "fn f(w: &mut Sink) { let t = monotonic_now(); w.append(t); }",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
