//! Item-level parsing layered on the token scanner.
//!
//! The cross-file rules (R9–R11) need more shape than a flat token
//! stream: which `fn` owns a lock acquisition, what a `use` declaration
//! actually imports once its braces are flattened, where a function
//! body starts and ends. This module recovers exactly that much
//! structure — items, flattened use trees, function body ranges — and
//! nothing more. It is not a grammar: anything it cannot classify is
//! skipped as an *opaque item* rather than guessed at, so adversarial
//! input (raw strings full of keywords, `r#`-escaped identifiers,
//! macro bodies) degrades to "no structure here" instead of a
//! misparse. The parser always terminates and never panics: every loop
//! makes forward progress and every index is bounds-checked.

use crate::lexer::{Token, TokenKind};

/// One flattened `use` path, e.g. `enki_serve::edge::EdgeMailbox`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// Full path with `::` separators; globs end in `*`, `self`
    /// imports end in `::self`.
    pub path: String,
    /// 1-based line of the first path segment.
    pub line: u32,
    /// Token index of the first path segment, so callers can consult
    /// the test mask for this import.
    pub token: usize,
}

/// A function item and the token range of its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token indices of the body's `{` and matching `}`, inclusive;
    /// `None` for bodyless declarations (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
}

/// The item-level view of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function item, including methods inside `impl`/`trait`
    /// blocks and functions in nested `mod` blocks.
    pub fns: Vec<FnItem>,
    /// Every flattened `use` path.
    pub uses: Vec<UsePath>,
    /// Items the parser declined to classify (macro invocations,
    /// unrecognized constructs). A nonzero count is not an error —
    /// it is the sanctioned degradation mode.
    pub opaque_items: usize,
}

/// Returns the index of the delimiter matching the opener at `open`
/// (`(`, `[`, or `{`), counting only that delimiter kind — string and
/// comment contents are already stripped by the lexer, so same-kind
/// counting cannot be fooled. `None` when unbalanced (malformed input);
/// callers must treat that as "rest of file".
#[must_use]
pub fn matching_delim(tokens: &[Token], open: usize) -> Option<usize> {
    let (open_text, close_text) = match tokens.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            if t.text == open_text {
                depth += 1;
            } else if t.text == close_text {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// Parses a token stream into its item-level view.
#[must_use]
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    parse_items(tokens, 0, tokens.len(), &mut out);
    out
}

/// Item keywords whose bodies contain further items to recurse into.
fn is_container_keyword(text: &str) -> bool {
    matches!(text, "mod" | "impl" | "trait")
}

/// Item keywords recognized and skipped without recursion.
fn is_plain_item_keyword(text: &str) -> bool {
    matches!(
        text,
        "struct" | "enum" | "union" | "type" | "static" | "const" | "macro_rules" | "macro"
    )
}

fn parse_items(tokens: &[Token], start: usize, end: usize, out: &mut ParsedFile) {
    let end = end.min(tokens.len());
    let mut i = start;
    while i < end {
        let before = i;

        // Attribute groups: `#[ … ]` / `#![ … ]`.
        if tokens[i].is_punct("#") {
            let open = i + 1 + usize::from(tokens.get(i + 1).is_some_and(|t| t.is_punct("!")));
            if tokens.get(open).is_some_and(|t| t.is_punct("[")) {
                i = matching_delim(tokens, open).map_or(end, |c| c + 1);
                continue;
            }
            i += 1;
            continue;
        }

        // Visibility: `pub`, `pub(crate)`, `pub(in path)`.
        if tokens[i].is_ident("pub") {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct("(")) {
                i = matching_delim(tokens, i).map_or(end, |c| c + 1);
            }
            continue;
        }

        // Qualifiers that may precede `fn`/`mod`/`trait`.
        if matches!(tokens[i].text.as_str(), "const" | "async" | "unsafe" | "extern" | "default")
            && tokens.get(i + 1).is_some_and(|t| {
                t.is_ident("fn")
                    || t.kind == TokenKind::Str
                    || matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
            })
        {
            i += 1;
            continue;
        }

        match tokens[i].text.as_str() {
            "use" => {
                let semi = next_semi(tokens, i + 1, end);
                flatten_use(tokens, i + 1, semi, String::new(), &mut out.uses);
                i = semi + 1;
            }
            "fn" => {
                i = parse_fn(tokens, i, end, out);
            }
            kw if is_container_keyword(kw) => {
                // `mod name { … }`, `impl … { … }`, `trait … { … }`:
                // recurse into the braces for nested fns.
                match body_open(tokens, i + 1, end) {
                    Some(open) => {
                        let close = matching_delim(tokens, open).unwrap_or(end);
                        parse_items(tokens, open + 1, close, out);
                        i = close + 1;
                    }
                    // `mod name;` or unbalanced input.
                    None => i = next_semi(tokens, i + 1, end) + 1,
                }
            }
            kw if is_plain_item_keyword(kw) => {
                // Recognized item without interior items we care about:
                // skip to its terminating `;` or past its braced body.
                match body_open(tokens, i + 1, end) {
                    Some(open) => i = matching_delim(tokens, open).map_or(end, |c| c + 1),
                    None => i = next_semi(tokens, i + 1, end) + 1,
                }
            }
            _ if tokens[i].kind == TokenKind::Ident
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("!")) =>
            {
                // Item-level macro invocation: skip its delimited body
                // wholesale. The body may contain token soup
                // (`use`-lookalikes, unbalanced-looking fragments) that
                // must not be parsed as items.
                out.opaque_items += 1;
                let mut j = i + 2;
                // Optional macro name: `macro_rules! name { … }`-style.
                if tokens.get(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                    j += 1;
                }
                match tokens.get(j).map(|t| t.text.as_str()) {
                    Some("(" | "[" | "{") => {
                        i = matching_delim(tokens, j).map_or(end, |c| c + 1);
                        // Paren/bracket invocations end with `;`.
                        if tokens.get(i).is_some_and(|t| t.is_punct(";")) {
                            i += 1;
                        }
                    }
                    _ => i = next_semi(tokens, j, end) + 1,
                }
            }
            _ => {
                // Unrecognized construct: opaque item. Skip to the next
                // `;` or past the next braced group, whichever closes it
                // first, and never re-inspect the skipped tokens.
                out.opaque_items += 1;
                let mut j = i + 1;
                while j < end {
                    if tokens[j].is_punct(";") {
                        j += 1;
                        break;
                    }
                    if tokens[j].is_punct("{") {
                        j = matching_delim(tokens, j).map_or(end, |c| c + 1);
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
        }

        // Forward-progress backstop: malformed input must never loop.
        if i <= before {
            i = before + 1;
        }
    }
}

/// Parses one `fn` item starting at the `fn` keyword; returns the index
/// just past the item.
fn parse_fn(tokens: &[Token], at: usize, end: usize, out: &mut ParsedFile) -> usize {
    let Some(name_tok) = tokens.get(at + 1).filter(|t| t.kind == TokenKind::Ident) else {
        out.opaque_items += 1;
        return at + 1;
    };
    let name = name_tok.text.clone();
    let line = name_tok.line;

    // Scan for the body `{` or declaration `;` at zero paren/bracket
    // nesting. Angle brackets are not tracked: `{` cannot appear inside
    // a type except in const-generic braces, which this workspace does
    // not use — and if one ever slips through, the body range is merely
    // shorter than real, never out of bounds.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut k = at + 2;
    while k < end {
        let t = &tokens[k];
        match t.text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            "{" if paren == 0 && bracket == 0 => {
                let close = matching_delim(tokens, k).unwrap_or(end.saturating_sub(1));
                out.fns.push(FnItem {
                    name,
                    line,
                    body: Some((k, close)),
                });
                return close + 1;
            }
            ";" if paren == 0 && bracket == 0 => {
                out.fns.push(FnItem { name, line, body: None });
                return k + 1;
            }
            _ => {}
        }
        k += 1;
    }
    // Ran off the end mid-signature: record the declaration, consume all.
    out.fns.push(FnItem { name, line, body: None });
    end
}

/// Index of the next `;` at zero delimiter nesting, or `end`.
fn next_semi(tokens: &[Token], from: usize, end: usize) -> usize {
    let mut j = from;
    while j < end {
        match tokens[j].text.as_str() {
            ";" => return j,
            "(" | "[" | "{" => {
                j = matching_delim(tokens, j).map_or(end, |c| c + 1);
            }
            _ => j += 1,
        }
    }
    end
}

/// Index of the first `{` before the next `;`, scanning from `from` —
/// the opening brace of an item body, if the item has one.
fn body_open(tokens: &[Token], from: usize, end: usize) -> Option<usize> {
    let mut j = from;
    while j < end {
        match tokens[j].text.as_str() {
            "{" => return Some(j),
            ";" => return None,
            "(" | "[" => j = matching_delim(tokens, j).map_or(end, |c| c + 1),
            _ => j += 1,
        }
    }
    None
}

/// Flattens one use-tree element starting at `i` (tokens run to `stop`,
/// exclusive), appending full paths to `out`; returns the index after
/// the element (at a `,`, the group's `}`, or `stop`).
fn flatten_use(
    tokens: &[Token],
    mut i: usize,
    stop: usize,
    prefix: String,
    out: &mut Vec<UsePath>,
) -> usize {
    let mut path = prefix.clone();
    let mut line = 0u32;
    let mut first_token = i;
    while i < stop {
        let t = &tokens[i];
        if line == 0 {
            line = t.line;
            first_token = i;
        }
        if t.is_ident("as") {
            // Alias: `x as y` — the alias does not change what is
            // imported, so skip it.
            i += 2;
            continue;
        }
        if t.kind == TokenKind::Ident || t.is_punct("*") {
            path.push_str(&t.text);
            i += 1;
            continue;
        }
        if t.is_punct("::") {
            path.push_str("::");
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            // Group: recurse once per comma-separated subtree, each
            // inheriting the accumulated prefix.
            let close = matching_delim(tokens, i).unwrap_or(stop);
            let mut j = i + 1;
            while j < close {
                j = flatten_use(tokens, j, close, path.clone(), out);
                if tokens.get(j).is_some_and(|t| t.is_punct(",")) {
                    j += 1;
                }
            }
            return close.saturating_add(1).min(stop);
        }
        if t.is_punct(",") || t.is_punct("}") {
            break;
        }
        // Unexpected token (attribute inside a use tree, stray punct):
        // tolerate and move on.
        i += 1;
    }
    if path.len() > prefix.len() {
        out.push(UsePath {
            path,
            line,
            token: first_token,
        });
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn paths(src: &str) -> Vec<String> {
        parse(&tokenize(src)).uses.into_iter().map(|u| u.path).collect()
    }

    #[test]
    fn simple_and_grouped_use_trees_flatten() {
        assert_eq!(paths("use std::fmt;"), vec!["std::fmt"]);
        assert_eq!(
            paths("use enki_serve::{codec::Frame, edge::EdgeMailbox, queue};"),
            vec![
                "enki_serve::codec::Frame",
                "enki_serve::edge::EdgeMailbox",
                "enki_serve::queue"
            ]
        );
    }

    #[test]
    fn nested_groups_globs_self_and_aliases() {
        assert_eq!(
            paths("use a::{b::{c, d::*}, self, e as f};"),
            vec!["a::b::c", "a::b::d::*", "a::self", "a::e"]
        );
    }

    #[test]
    fn fns_are_found_with_body_ranges_including_impl_methods() {
        let toks = tokenize(
            "fn top(x: u32) -> u32 { x + 1 }\n\
             impl Foo { pub fn method(&self) { self.go(); } }\n\
             mod inner { fn nested() {} }\n\
             trait T { fn decl(&self); fn defaulted(&self) {} }",
        );
        let parsed = parse(&toks);
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["top", "method", "nested", "decl", "defaulted"]);
        assert!(parsed.fns[0].body.is_some());
        assert!(parsed.fns[3].body.is_none(), "trait decl has no body");
        // Body range really brackets the body tokens.
        let (open, close) = parsed.fns[1].body.expect("method body");
        assert!(toks[open].is_punct("{") && toks[close].is_punct("}"));
        assert!(toks[open..=close].iter().any(|t| t.is_ident("go")));
    }

    #[test]
    fn fn_with_complex_signature_finds_its_body() {
        let toks = tokenize(
            "pub fn generic<T: Fn(u32) -> Vec<Vec<u8>>>(f: T, v: Vec<Vec<u8>>) -> impl Iterator<Item = u8> \
             where T: Clone { v.into_iter().flatten() }",
        );
        let parsed = parse(&toks);
        assert_eq!(parsed.fns.len(), 1);
        assert!(parsed.fns[0].body.is_some());
    }

    #[test]
    fn macro_invocations_and_unknown_items_become_opaque() {
        let toks = tokenize(
            "thread_local! { static X: u32 = 0; }\n\
             lazy_init!(a, b);\n\
             fn real() {}\n",
        );
        let parsed = parse(&toks);
        assert_eq!(parsed.opaque_items, 2);
        assert_eq!(parsed.fns.len(), 1);
        assert_eq!(parsed.fns[0].name, "real");
    }

    #[test]
    fn keywords_inside_raw_strings_do_not_create_items() {
        let toks = tokenize(
            "const DOC: &str = r#\"use fake::path; fn ghost() { unsafe {} }\"#;\nfn real() {}",
        );
        let parsed = parse(&toks);
        assert!(parsed.uses.is_empty());
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn raw_identifier_keywords_do_not_open_items() {
        // `r#use` / `r#fn` are identifiers, not keywords; the parser
        // must treat the statement as opaque rather than as a use/fn.
        let toks = tokenize("static r#use: u32 = 1; fn ok() { let r#fn = 2; }");
        let parsed = parse(&toks);
        assert!(parsed.uses.is_empty());
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["ok"]);
    }

    #[test]
    fn unbalanced_input_terminates() {
        for src in ["fn f() {", "use a::{b", "impl X {{{", "mod m { fn g( }"] {
            let _ = parse(&tokenize(src));
        }
    }
}
