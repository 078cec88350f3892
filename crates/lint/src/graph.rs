//! Workspace-graph analyses: lock-order (R9) and layering (R11).
//!
//! Unlike the per-file rules in [`crate::rules`], these passes see the
//! whole workspace at once. [`lock_order`] extracts a static
//! lock-acquisition graph — an edge `A → B` whenever some code path
//! acquires lock class `B` while a guard on class `A` is live,
//! including acquisitions reachable through one level of intra-crate
//! calls — and fails on any cycle, printing the full witness path.
//! [`layering`] checks the declarative crate DAG ([`ALLOWED_DEPS`])
//! against both `Cargo.toml` dependency sections and `enki_*::` paths
//! in source, bans the nondeterministic modules
//! (`enki_serve::edge`, `enki_durable::file`) from every layered crate
//! that does not own them, and fails any package manifest that does
//! not inherit the workspace lint table (`forbid(unsafe_code)` and the
//! clippy levels reach a crate only through `[lints] workspace = true`).
//!
//! ## Guard-liveness model
//!
//! The scanner mirrors Rust's temporary-scope rules closely enough to
//! be sound for this workspace's lock idioms:
//!
//! * `let g = x.lock();` — the guard is *bound*: it lives to the end
//!   of the enclosing block, or until `drop(g)`.
//! * any other `x.lock()` (method chain, match scrutinee, closure
//!   argument) — the guard is a *temporary*: it lives to the end of
//!   the enclosing statement. This is exactly the rule that makes
//!   `q[me].lock().pop().or_else(|| q[v].lock().pop())` hold the first
//!   guard across the second acquisition.
//!
//! A lock *class* is the receiver identifier of the `.lock()` call
//! (`queues[victim].lock()` → `queues`, `self.sink.metrics.lock()` →
//! `metrics`): instances of one field across threads share an order,
//! which is what deadlock freedom needs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Token, TokenKind};
use crate::parse::{matching_delim, parse};
use crate::rules::{RuleId, SourceFile, Violation};

/// One package manifest, reduced to what layering needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Workspace-relative path (`crates/core/Cargo.toml`).
    pub rel_path: String,
    /// Package name from `[package]` (`enki-core`); empty for a virtual
    /// workspace manifest.
    pub package: String,
    /// 1-based line of the `[package]` header (0 when absent).
    pub package_line: u32,
    /// Whether a `[lints]` table sets `workspace = true`.
    pub inherits_lints: bool,
    /// Internal (`enki-*`) entries of `[dependencies]` with their
    /// 1-based lines. `[dev-dependencies]` are deliberately excluded:
    /// test-only edges do not constrain the runtime architecture.
    pub deps: Vec<(String, u32)>,
}

/// Parses the minimal TOML subset the workspace manifests use:
/// `[section]` headers, `key = …` entries, and `[dependencies.name]`
/// sub-tables. Lint inheritance is recognised in the `[lints]` table
/// form only, the one the workspace uses.
#[must_use]
pub fn parse_manifest(rel_path: &str, text: &str) -> Manifest {
    let mut package = String::new();
    let mut package_line = 0;
    let mut inherits_lints = false;
    let mut deps = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            if section == "package" {
                package_line = lineno;
            }
            if let Some(name) = section.strip_prefix("dependencies.") {
                if name.starts_with("enki") {
                    deps.push((name.to_string(), lineno));
                }
            }
            continue;
        }
        if section == "package" {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    package = value.trim().trim_matches('"').to_string();
                }
            }
        }
        if section == "lints" && line.replace(' ', "") == "workspace=true" {
            inherits_lints = true;
        }
        if section == "dependencies" {
            let key = line
                .split(['=', '.', ' ', '\t'])
                .next()
                .unwrap_or_default()
                .trim();
            if key.starts_with("enki") {
                deps.push((key.to_string(), lineno));
            }
        }
    }
    Manifest {
        rel_path: rel_path.to_string(),
        package,
        package_line,
        inherits_lints,
        deps,
    }
}

// ---------------------------------------------------------------------------
// R11 layering
// ---------------------------------------------------------------------------

/// The declarative crate DAG: every layered package and the internal
/// packages it may depend on. Packages absent from this table
/// (`enki-bench`, `enki-lint`, the root facade) are unconstrained
/// leaves — they may depend on anything, but since no layered crate is
/// allowed to name them, nothing inside the mechanism can depend on
/// *them*.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("enki-core", &[]),
    ("enki-stats", &[]),
    ("enki-durable", &[]),
    ("enki-telemetry", &[]),
    ("enki-solver", &["enki-core", "enki-telemetry"]),
    ("enki-serve", &["enki-core", "enki-telemetry"]),
    ("enki-study", &["enki-core", "enki-stats"]),
    (
        "enki-sim",
        &["enki-core", "enki-solver", "enki-stats", "enki-telemetry"],
    ),
    ("enki-obs", &["enki-telemetry"]),
    (
        "enki-agents",
        &[
            "enki-core",
            "enki-durable",
            "enki-serve",
            "enki-sim",
            "enki-solver",
            "enki-telemetry",
        ],
    ),
];

/// Modules banned from every layered crate except their owner: the
/// nondeterministic serve edge and the real-filesystem storage backend
/// must be reached only through their crates' deterministic facades.
const BANNED_MODULES: &[(&str, &str, &str)] = &[
    ("enki_serve", "edge", "enki-serve"),
    ("enki_durable", "file", "enki-durable"),
];

fn allowed_for(package: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(p, _)| *p == package)
        .map(|(_, deps)| *deps)
}

/// Maps a source path segment (`enki_core`) to its package name
/// (`enki-core`).
fn path_to_package(ident: &str) -> String {
    ident.replace('_', "-")
}

/// Checks the crate DAG: manifest edges and `enki_*::` source paths.
#[must_use]
pub fn layering(files: &[SourceFile], manifests: &[Manifest]) -> Vec<Violation> {
    let mut out = Vec::new();

    // Lint inheritance: every package, layered or not.
    for m in manifests {
        if !m.package.is_empty() && !m.inherits_lints {
            out.push(Violation {
                rule: RuleId::Layering,
                path: m.rel_path.clone(),
                line: m.package_line,
                message: format!(
                    "`{}` does not inherit the workspace lint table: add `[lints]` \
                     with `workspace = true`, or it skips `forbid(unsafe_code)` and \
                     every clippy ban",
                    m.package,
                ),
            });
        }
    }

    // Manifest edges.
    for m in manifests {
        let Some(allowed) = allowed_for(&m.package) else {
            continue;
        };
        for (dep, line) in &m.deps {
            if !allowed.contains(&dep.as_str()) {
                out.push(Violation {
                    rule: RuleId::Layering,
                    path: m.rel_path.clone(),
                    line: *line,
                    message: format!(
                        "`{}` must not depend on `{dep}`: the crate DAG allows only \
                         [{}] — a new edge here needs a DESIGN.md architecture change, \
                         not a Cargo.toml line",
                        m.package,
                        allowed.join(", "),
                    ),
                });
            }
        }
    }

    // Package lookup for source files: crate dir -> package name, from
    // the manifests when present, `enki-<dir>` otherwise.
    let dir_package: BTreeMap<String, String> = manifests
        .iter()
        .filter_map(|m| {
            m.rel_path
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .map(|dir| (dir.to_string(), m.package.clone()))
        })
        .collect();

    // Source path references. One violation per distinct (path, line,
    // target) so a grouped `use` and an inline path cannot double-count.
    let mut seen: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for file in files {
        if file.is_test_target {
            continue;
        }
        let Some(dir) = file.crate_dir.as_deref() else {
            continue;
        };
        let package = dir_package
            .get(dir)
            .cloned()
            .unwrap_or_else(|| format!("enki-{dir}"));
        let Some(allowed) = allowed_for(&package) else {
            continue;
        };

        // References via flattened `use` trees and via inline paths:
        // (first segment, second segment if any, line).
        let parsed = parse(&file.tokens);
        let mut refs: Vec<(String, Option<String>, u32)> = Vec::new();
        for u in &parsed.uses {
            if file.ctx.test_mask.get(u.token).copied().unwrap_or(false) {
                continue;
            }
            let mut segments = u.path.split("::");
            let Some(first) = segments.next() else { continue };
            if first.starts_with("enki_") {
                refs.push((first.to_string(), segments.next().map(str::to_string), u.line));
            }
        }
        for (i, t) in file.tokens.iter().enumerate() {
            if file.ctx.test_mask[i]
                || t.kind != TokenKind::Ident
                || !t.text.starts_with("enki_")
                || !file.tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            {
                continue;
            }
            let second = file
                .tokens
                .get(i + 2)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| n.text.clone());
            refs.push((t.text.clone(), second, t.line));
        }

        for (first, second, line) in refs {
            let target = path_to_package(&first);
            if target == package {
                continue;
            }
            if !allowed.contains(&target.as_str()) {
                if seen.insert((file.rel_path.clone(), line, target.clone())) {
                    out.push(Violation {
                        rule: RuleId::Layering,
                        path: file.rel_path.clone(),
                        line,
                        message: format!(
                            "`{package}` must not reference `{target}`: the crate DAG \
                             allows only [{}]",
                            allowed.join(", "),
                        ),
                    });
                }
                continue;
            }
            // Allowed crate, but possibly a banned module within it.
            for (crate_path, module, owner) in BANNED_MODULES {
                if package != *owner
                    && first == *crate_path
                    && second.as_deref() == Some(*module)
                    && seen.insert((
                        file.rel_path.clone(),
                        line,
                        format!("{crate_path}::{module}"),
                    ))
                {
                    out.push(Violation {
                        rule: RuleId::Layering,
                        path: file.rel_path.clone(),
                        line,
                        message: format!(
                            "`{package}` reaches into `{crate_path}::{module}`: that \
                             module is the nondeterministic boundary of `{owner}` and \
                             may only be touched by its own crate — go through the \
                             deterministic facade instead",
                        ),
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R9 lock-order
// ---------------------------------------------------------------------------

/// A source location of one lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
}

/// One edge of the lock-acquisition graph: while a guard on `from` was
/// live, `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Held lock class.
    pub from: String,
    /// Where the held guard was acquired.
    pub from_site: Site,
    /// Acquired lock class.
    pub to: String,
    /// Where the nested acquisition happens.
    pub to_site: Site,
    /// `Some((callee, call_line))` when the nested acquisition is
    /// reached through one level of intra-crate call rather than
    /// directly in the holding function.
    pub via: Option<(String, u32)>,
}

#[derive(Debug)]
struct Guard {
    class: String,
    site: Site,
    depth: usize,
    stmt_scoped: bool,
    name: Option<String>,
}

#[derive(Debug, Default)]
struct FnFacts {
    acquires: Vec<(String, Site)>,
    edges: Vec<LockEdge>,
    calls: Vec<CallWhileHeld>,
}

#[derive(Debug)]
struct CallWhileHeld {
    callee: String,
    held: Vec<(String, Site)>,
    line: u32,
}

/// Finds the opening delimiter matching the closer at `close`, scanning
/// backwards and counting only that delimiter kind.
fn back_match(tokens: &[Token], close: usize) -> Option<usize> {
    let (open_text, close_text) = match tokens.get(close).map(|t| t.text.as_str()) {
        Some(")") => ("(", ")"),
        Some("]") => ("[", "]"),
        Some("}") => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        if tokens[j].kind == TokenKind::Punct {
            if tokens[j].text == close_text {
                depth += 1;
            } else if tokens[j].text == open_text {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// The lock class of the receiver ending at the `.` token at `dot`:
/// the last identifier of the receiver chain, with any trailing index
/// or call groups skipped (`queues[victim]` → `queues`,
/// `self.sink.metrics` → `metrics`, `get_lock()` → `get_lock`).
fn receiver_class(tokens: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    while matches!(tokens.get(j).map(|t| t.text.as_str()), Some(")" | "]")) {
        j = back_match(tokens, j)?.checked_sub(1)?;
    }
    let t = tokens.get(j)?;
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

/// Keywords that look like calls when followed by `(` but are not.
fn is_non_call_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "let"
            | "move"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "fn"
            | "await"
    )
}

/// Scans one function body (`open`/`close` are the brace token indices)
/// for lock acquisitions, held-across edges, and calls made while a
/// guard is live.
fn scan_fn_body(file: &SourceFile, open: usize, close: usize) -> FnFacts {
    let toks = &file.tokens;
    let mut facts = FnFacts::default();
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Index of the first token of the current statement, one slot per
    // open block.
    let mut stmt_first: Vec<usize> = vec![open + 1];

    let mut i = open + 1;
    while i < close.min(toks.len()) {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
            stmt_first.push(i + 1);
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            // Guards acquired inside the closing block die with it.
            held.retain(|g| g.depth < depth);
            depth = depth.saturating_sub(1);
            stmt_first.pop();
            if let Some(s) = stmt_first.last_mut() {
                *s = i + 1;
            }
            i += 1;
            continue;
        }
        if t.is_punct(";") {
            held.retain(|g| !(g.stmt_scoped && g.depth == depth));
            if let Some(s) = stmt_first.last_mut() {
                *s = i + 1;
            }
            i += 1;
            continue;
        }
        // `drop(name)` releases a bound guard early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let name = toks[i + 2].text.as_str();
            held.retain(|g| g.name.as_deref() != Some(name));
            i += 4;
            continue;
        }
        // `.lock()` — an acquisition.
        if t.is_ident("lock")
            && i > open
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let class = receiver_class(toks, i - 1).unwrap_or_else(|| "<expr>".to_string());
            let site = Site {
                path: file.rel_path.clone(),
                line: t.line,
            };
            for g in &held {
                facts.edges.push(LockEdge {
                    from: g.class.clone(),
                    from_site: g.site.clone(),
                    to: class.clone(),
                    to_site: site.clone(),
                    via: None,
                });
            }
            facts.acquires.push((class.clone(), site.clone()));

            // Scope of the new guard: `let name = x.lock();` (with an
            // optional `.unwrap()`/`.expect(…)` adapter) binds it to
            // the block; anything else is a statement temporary.
            let lock_close = matching_delim(toks, i + 1).unwrap_or(i + 2);
            let mut after = lock_close + 1;
            while toks.get(after).is_some_and(|n| n.is_punct("."))
                && toks
                    .get(after + 1)
                    .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                && toks.get(after + 2).is_some_and(|n| n.is_punct("("))
            {
                after = matching_delim(toks, after + 2).map_or(after + 3, |c| c + 1);
            }
            let stmt_start = stmt_first.last().copied().unwrap_or(open + 1);
            let is_let = toks.get(stmt_start).is_some_and(|s| s.is_ident("let"));
            let ends_stmt = toks.get(after).is_some_and(|n| n.is_punct(";"));
            let (stmt_scoped, name) = if is_let && ends_stmt {
                let mut n = stmt_start + 1;
                if toks.get(n).is_some_and(|x| x.is_ident("mut")) {
                    n += 1;
                }
                let bound = toks
                    .get(n)
                    .filter(|x| x.kind == TokenKind::Ident)
                    .map(|x| x.text.clone());
                (false, bound)
            } else {
                (true, None)
            };
            held.push(Guard {
                class,
                site,
                depth,
                stmt_scoped,
                name,
            });
            i += 2;
            continue;
        }
        // A free-function call made while holding: candidate for
        // one-level expansion. Method and path calls (`.len()`,
        // `Vec::new()`) are excluded — bare-name resolution cannot see
        // the receiver's type, and `guard.len()` colliding with a
        // crate-local `fn len` would fabricate self-deadlocks.
        if t.kind == TokenKind::Ident
            && !held.is_empty()
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !is_non_call_keyword(&t.text)
            && !(i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")))
        {
            facts.calls.push(CallWhileHeld {
                callee: t.text.clone(),
                held: held
                    .iter()
                    .map(|g| (g.class.clone(), g.site.clone()))
                    .collect(),
                line: t.line,
            });
        }
        i += 1;
    }
    facts
}

/// Builds the workspace lock-acquisition graph and reports every cycle
/// as an R9 violation with its full witness path.
#[must_use]
pub fn lock_order(files: &[SourceFile]) -> Vec<Violation> {
    let mut edges: Vec<LockEdge> = Vec::new();
    // crate dir -> fn name -> every acquisition in fns of that name.
    let mut crate_fns: BTreeMap<String, BTreeMap<String, Vec<(String, Site)>>> = BTreeMap::new();
    let mut crate_calls: BTreeMap<String, Vec<CallWhileHeld>> = BTreeMap::new();

    for file in files {
        if file.is_test_target {
            continue;
        }
        let crate_key = file.crate_dir.clone().unwrap_or_default();
        let parsed = parse(&file.tokens);
        for f in &parsed.fns {
            let Some((open, close)) = f.body else { continue };
            if file.ctx.test_mask.get(open).copied().unwrap_or(false) {
                continue;
            }
            let facts = scan_fn_body(file, open, close);
            edges.extend(facts.edges);
            if !facts.acquires.is_empty() {
                crate_fns
                    .entry(crate_key.clone())
                    .or_default()
                    .entry(f.name.clone())
                    .or_default()
                    .extend(facts.acquires);
            }
            crate_calls
                .entry(crate_key.clone())
                .or_default()
                .extend(facts.calls);
        }
    }

    // One level of intra-crate call expansion: holding X and calling a
    // crate-local fn that acquires Y adds X → Y.
    for (crate_key, calls) in &crate_calls {
        let Some(fns) = crate_fns.get(crate_key) else {
            continue;
        };
        for call in calls {
            let Some(acquires) = fns.get(&call.callee) else {
                continue;
            };
            for (held_class, held_site) in &call.held {
                for (to_class, to_site) in acquires {
                    edges.push(LockEdge {
                        from: held_class.clone(),
                        from_site: held_site.clone(),
                        to: to_class.clone(),
                        to_site: to_site.clone(),
                        via: Some((call.callee.clone(), call.line)),
                    });
                }
            }
        }
    }

    // Deterministic adjacency: one witness edge per (from, to), direct
    // edges preferred over call-expanded ones, then source order.
    edges.sort_by(|a, b| {
        (&a.from, &a.to, a.via.is_some(), &a.from_site, &a.to_site).cmp(&(
            &b.from,
            &b.to,
            b.via.is_some(),
            &b.from_site,
            &b.to_site,
        ))
    });
    let mut adj: BTreeMap<&str, BTreeMap<&str, &LockEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().entry(&e.to).or_insert(e);
    }

    // Every cycle once: BFS the shortest cycle through each start node,
    // restricted to nodes ≥ start so each cycle is reported from its
    // lexicographically smallest class only.
    let mut out = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        let Some(cycle) = shortest_cycle(start, &adj) else {
            continue;
        };
        let classes: Vec<&str> = cycle
            .iter()
            .map(|e| e.from.as_str())
            .chain(std::iter::once(cycle[0].from.as_str()))
            .collect();
        let hops: Vec<String> = cycle
            .iter()
            .map(|e| {
                let via = e.via.as_ref().map_or(String::new(), |(callee, line)| {
                    format!(" via `{callee}()` called at line {line}")
                });
                format!(
                    "holding `{}` ({}:{}) acquires `{}` ({}:{}{via})",
                    e.from, e.from_site.path, e.from_site.line, e.to, e.to_site.path,
                    e.to_site.line,
                )
            })
            .collect();
        let anchor = &cycle[0];
        out.push(Violation {
            rule: RuleId::LockOrder,
            path: anchor.to_site.path.clone(),
            line: anchor.to_site.line,
            message: format!(
                "lock-order cycle {}: {} — two threads in opposite phases deadlock; \
                 acquire classes in one global order or drop the held guard first",
                classes.join(" → "),
                hops.join("; "),
            ),
        });
    }
    out
}

/// Shortest edge path `start → … → start` using only intermediate
/// nodes ≥ `start`; `None` when no cycle passes through `start`.
fn shortest_cycle<'a>(
    start: &'a str,
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a LockEdge>>,
) -> Option<Vec<&'a LockEdge>> {
    let mut parent: BTreeMap<&str, (&str, &'a LockEdge)> = BTreeMap::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        let Some(succs) = adj.get(node) else { continue };
        for (&next, &edge) in succs {
            if next == start {
                // Reconstruct start → … → node, then close the loop.
                let mut path = vec![edge];
                let mut cursor = node;
                while cursor != start {
                    let (prev, e) = parent.get(cursor)?;
                    path.push(e);
                    cursor = prev;
                }
                path.reverse();
                return Some(path);
            }
            if next < start || parent.contains_key(next) {
                continue;
            }
            parent.insert(next, (node, edge));
            queue.push_back(next);
        }
    }
    None
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
        lock_order(&files)
    }

    #[test]
    fn manifest_parser_reads_package_and_internal_deps_only() {
        let m = parse_manifest(
            "crates/solver/Cargo.toml",
            "[package]\nname = \"enki-solver\"\nversion = \"0.1.0\"\n\n\
             [dependencies]\nenki-core.workspace = true\nenki-telemetry = { path = \"x\" }\n\
             parking_lot.workspace = true\n\n\
             [dev-dependencies]\nenki-obs.workspace = true\nproptest.workspace = true\n\n\
             [lints]\nworkspace = true\n",
        );
        assert_eq!(m.package, "enki-solver");
        assert_eq!(m.package_line, 1);
        assert!(m.inherits_lints);
        let deps: Vec<&str> = m.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(deps, vec!["enki-core", "enki-telemetry"]);
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let v = violations_for(&[(
            "crates/solver/src/par.rs",
            "fn a() { let g = queues.lock(); let h = slots.lock(); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn opposite_orders_across_files_form_a_cycle_with_witness() {
        let v = violations_for(&[
            (
                "crates/solver/src/par.rs",
                "fn a() { let g = queues.lock(); slots.lock().push(1); }",
            ),
            (
                "crates/serve/src/edge.rs",
                "fn b() { let g = slots.lock(); queues.lock().push(1); }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        let msg = &v[0].message;
        assert!(msg.contains("queues → slots → queues"), "{msg}");
        assert!(msg.contains("crates/solver/src/par.rs:1"), "{msg}");
        assert!(msg.contains("crates/serve/src/edge.rs:1"), "{msg}");
    }

    #[test]
    fn statement_temporary_held_across_nested_acquire_is_a_self_cycle() {
        // The exact shape of a symmetric work-steal deadlock: the own-
        // queue guard is a temporary that lives to the end of the
        // statement, across the victim-queue acquisition.
        let v = violations_for(&[(
            "crates/solver/src/par.rs",
            "fn steal(me: usize, v: usize) {\n\
             let popped = queues[me].lock().pop_front().or_else(|| {\n\
             queues[v].lock().pop_back() });\n}",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("queues → queues"), "{}", v[0].message);
    }

    #[test]
    fn rebinding_to_its_own_statement_breaks_the_hold() {
        let v = violations_for(&[(
            "crates/solver/src/par.rs",
            "fn steal(me: usize, v: usize) {\n\
             let own = queues[me].lock().pop_front();\n\
             let popped = own.or_else(|| queues[v].lock().pop_back());\n}",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bound_guard_lives_to_block_end_and_drop_releases_it() {
        // Bound guard held across the nested acquire in the next
        // statement: cycle with the reverse order elsewhere.
        let v = violations_for(&[(
            "crates/agents/src/threaded.rs",
            "fn a() { let g = alpha.lock(); beta.lock().push(1); }\n\
             fn b() { let g = beta.lock(); alpha.lock().push(1); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        // drop() before the nested acquire breaks the edge.
        let v = violations_for(&[(
            "crates/agents/src/threaded.rs",
            "fn a() { let g = alpha.lock(); drop(g); beta.lock().push(1); }\n\
             fn b() { let g = beta.lock(); drop(g); alpha.lock().push(1); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn one_level_call_expansion_finds_indirect_cycles() {
        let v = violations_for(&[(
            "crates/telemetry/src/recorder.rs",
            "fn flush() { let g = spans.lock(); emit(); }\n\
             fn emit() { metrics.lock().push(1); }\n\
             fn other() { let m = metrics.lock(); grab(); }\n\
             fn grab() { spans.lock().clear(); }",
        )]);
        // spans→metrics (via emit) and metrics→spans (via grab): a
        // 2-cycle found purely through one-level call expansion.
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].message.contains("via `emit()`") && v[0].message.contains("via `grab()`"),
            "expansion witness missing: {}",
            v[0].message
        );
    }

    #[test]
    fn method_calls_do_not_expand_by_bare_name() {
        // `.len()` on the locked Vec is std's method, not the
        // crate-local `fn len` that acquires the same class: bare-name
        // expansion must not fabricate a self-deadlock here.
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn len(&self) -> usize { self.frames.lock().len() }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn guards_in_separate_statements_do_not_edge() {
        let v = violations_for(&[(
            "crates/serve/src/edge.rs",
            "fn a() { alpha.lock().push(1); beta.lock().push(1); }\n\
             fn b() { beta.lock().push(1); alpha.lock().push(1); }",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn match_scrutinee_guard_is_held_across_arms() {
        let v = violations_for(&[(
            "crates/telemetry/src/recorder.rs",
            "fn a() { match metrics.lock().get(k) { Some(_) => { spans.lock().push(1); } None => {} } }\n\
             fn b() { let g = spans.lock(); metrics.lock().push(1); }",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_code_is_exempt_from_lock_order() {
        let v = violations_for(&[(
            "crates/solver/src/par.rs",
            "#[cfg(test)]\nmod tests {\n\
             fn a() { let g = alpha.lock(); beta.lock().push(1); }\n\
             fn b() { let g = beta.lock(); alpha.lock().push(1); }\n}",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn layering_flags_disallowed_manifest_edge_and_source_path() {
        let files = vec![
            classify(
                "crates/core/src/config.rs",
                "use enki_obs::report::Summary;\nfn f() { let x = enki_solver::exact::solve(); }",
            ),
            classify(
                "crates/agents/src/runtime.rs",
                "use enki_serve::edge::EdgeMailbox;\nfn g() {}",
            ),
            classify(
                "crates/agents/src/durable.rs",
                "use enki_durable::Storage;\nfn h() {}",
            ),
        ];
        let manifests = vec![
            parse_manifest(
                "crates/core/Cargo.toml",
                "[package]\nname = \"enki-core\"\n[lints]\nworkspace = true\n\
                 [dependencies]\nenki-obs.workspace = true\n",
            ),
            parse_manifest(
                "crates/agents/Cargo.toml",
                "[package]\nname = \"enki-agents\"\n[lints]\nworkspace = true\n\
                 [dependencies]\nenki-serve.workspace = true\nenki-durable.workspace = true\n",
            ),
        ];
        let v = layering(&files, &manifests);
        let paths: Vec<&str> = v.iter().map(|x| x.path.as_str()).collect();
        // core: manifest edge + two source refs; agents: the edge module ban.
        assert!(paths.contains(&"crates/core/Cargo.toml"), "{v:?}");
        assert_eq!(
            v.iter()
                .filter(|x| x.path == "crates/core/src/config.rs")
                .count(),
            2,
            "{v:?}"
        );
        let ban: Vec<_> = v
            .iter()
            .filter(|x| x.path == "crates/agents/src/runtime.rs")
            .collect();
        assert_eq!(ban.len(), 1, "{v:?}");
        assert!(ban[0].message.contains("enki_serve::edge"), "{v:?}");
        // The plain durable facade import is fine.
        assert!(!paths.contains(&"crates/agents/src/durable.rs"), "{v:?}");
    }

    #[test]
    fn layering_ignores_test_code_and_unconstrained_crates() {
        let files = vec![
            classify(
                "crates/core/src/config.rs",
                "#[cfg(test)]\nmod tests { use enki_obs::x; }\nfn f() {}",
            ),
            classify("crates/core/tests/t.rs", "use enki_obs::x;\nfn f() {}"),
            classify(
                "crates/bench/src/bin/bench_all.rs",
                "use enki_serve::edge::EdgeMailbox;\nuse enki_obs::x;\nfn f() {}",
            ),
        ];
        assert!(layering(&files, &[]).is_empty());
    }

    #[test]
    fn layering_flags_every_package_that_skips_the_workspace_lints() {
        let manifests = vec![
            parse_manifest(
                "Cargo.toml",
                "[workspace]\nmembers = []\n\n[package]\nname = \"enki\"\n",
            ),
            parse_manifest(
                "crates/bench/Cargo.toml",
                "[package]\nname = \"enki-bench\"\n",
            ),
            parse_manifest(
                "crates/core/Cargo.toml",
                "[package]\nname = \"enki-core\"\n\n[lints]\nworkspace = true\n",
            ),
            // A virtual workspace root has no package to lint.
            parse_manifest("virtual/Cargo.toml", "[workspace]\nmembers = []\n"),
        ];
        let v = layering(&[], &manifests);
        let sites: Vec<(&str, u32)> = v.iter().map(|x| (x.path.as_str(), x.line)).collect();
        assert_eq!(
            sites,
            vec![("Cargo.toml", 4), ("crates/bench/Cargo.toml", 1)],
            "{v:?}"
        );
        assert!(
            v[0].message.contains("`enki` does not inherit"),
            "{}",
            v[0].message
        );
    }
}
