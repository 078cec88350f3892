//! Per-file token context: which tokens live in test-only code.
//!
//! Rules must not fire on `#[cfg(test)]` modules or `#[test]` functions
//! — `unwrap()` in a unit test is idiomatic, not a violation. This pass
//! walks the token stream once, tracking brace nesting and attribute
//! groups, and produces a boolean mask: `mask[i]` is true when token
//! `i` belongs to a test-only region.
//!
//! Detection is structural, not semantic: an attribute group whose
//! head is `test`, `should_panic`, or `bench`, or a `cfg(...)` group
//! mentioning `test`, marks the *next* braced item (fn body, mod body,
//! impl body) as a test region. A `;` at top nesting cancels a pending
//! marker (e.g. `#[cfg(test)] use …;`). Regions nest: everything under
//! a `#[cfg(test)] mod tests { … }` is masked regardless of inner
//! attributes.

use crate::lexer::{Token, TokenKind};

/// The analyzed context for one file's token stream.
#[derive(Debug)]
pub struct FileContext {
    /// `mask[i]` — token `i` is inside test-only code.
    pub test_mask: Vec<bool>,
}

/// Whether one attribute group (`#[ … ]`, delimiters included) marks
/// the next item as test-only.
fn attr_marks_test(body: &[Token]) -> bool {
    let idents: Vec<&str> = body
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    match idents.first() {
        Some(&"test" | &"should_panic" | &"bench") => true,
        Some(&"cfg" | &"cfg_attr") => idents.contains(&"test"),
        _ => false,
    }
}

/// Analyzes a token stream into its test-region mask.
#[must_use]
pub fn analyze(tokens: &[Token]) -> FileContext {
    let mut test_mask = vec![false; tokens.len()];

    // Stack of booleans, one per open brace: is the region test-only?
    let mut braces: Vec<bool> = Vec::new();
    // An attribute marked the next braced item as test-only.
    let mut pending_test = false;
    // Depth of `(`/`[` groups, to ignore `;`/`{` inside e.g. arrays.
    let mut delim_depth = 0usize;

    let mut i = 0usize;
    while i < tokens.len() {
        let in_test = braces.last().copied().unwrap_or(false);

        // Attribute group?
        if tokens[i].is_punct("#") {
            let inner = tokens.get(i + 1).is_some_and(|t| t.is_punct("!"));
            let open = i + 1 + usize::from(inner);
            if tokens.get(open).is_some_and(|t| t.is_punct("[")) {
                // Find the matching `]`, tracking bracket nesting.
                let mut depth = 0usize;
                let mut j = open;
                let mut end = None;
                while j < tokens.len() {
                    if tokens[j].is_punct("[") {
                        depth += 1;
                    } else if tokens[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(j);
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(end) = end {
                    if !inner && attr_marks_test(&tokens[i..=end]) {
                        pending_test = true;
                    }
                    for m in &mut test_mask[i..=end] {
                        *m = in_test;
                    }
                    i = end + 1;
                    continue;
                }
            }
        }

        match &tokens[i] {
            t if t.is_punct("{") => {
                braces.push(in_test || pending_test);
                pending_test = false;
                test_mask[i] = in_test;
            }
            t if t.is_punct("}") => {
                test_mask[i] = in_test;
                braces.pop();
            }
            t if t.is_punct("(") || t.is_punct("[") => {
                delim_depth += 1;
                test_mask[i] = in_test;
            }
            t if t.is_punct(")") || t.is_punct("]") => {
                delim_depth = delim_depth.saturating_sub(1);
                test_mask[i] = in_test;
            }
            t if t.is_punct(";") && delim_depth == 0 => {
                // `#[cfg(test)] use super::*;` — no braced item follows.
                pending_test = false;
                test_mask[i] = in_test;
            }
            _ => test_mask[i] = in_test,
        }
        i += 1;
    }

    FileContext { test_mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn mask_for(src: &str) -> (Vec<Token>, FileContext) {
        let toks = tokenize(src);
        let ctx = analyze(&toks);
        (toks, ctx)
    }

    fn ident_masked(toks: &[Token], ctx: &FileContext, name: &str) -> bool {
        let idx = toks
            .iter()
            .position(|t| t.is_ident(name))
            .unwrap_or_else(|| panic!("ident {name} not found"));
        ctx.test_mask[idx]
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let (toks, ctx) = mask_for(
            "fn prod() { work(); }\n#[cfg(test)]\nmod tests { fn helper() { probe(); } }",
        );
        assert!(!ident_masked(&toks, &ctx, "work"));
        assert!(ident_masked(&toks, &ctx, "probe"));
    }

    #[test]
    fn test_fn_is_masked_but_sibling_is_not() {
        let (toks, ctx) = mask_for(
            "#[test]\nfn check() { probe(); }\nfn prod() { work(); }",
        );
        assert!(ident_masked(&toks, &ctx, "probe"));
        assert!(!ident_masked(&toks, &ctx, "work"));
    }

    #[test]
    fn cfg_test_use_does_not_leak_onto_next_item() {
        let (toks, ctx) = mask_for("#[cfg(test)]\nuse std::fmt;\nfn prod() { work(); }");
        assert!(!ident_masked(&toks, &ctx, "work"));
    }

    #[test]
    fn stacked_attributes_keep_the_marker() {
        let (toks, ctx) = mask_for("#[test]\n#[ignore]\nfn check() { probe(); }");
        assert!(ident_masked(&toks, &ctx, "probe"));
    }

    #[test]
    fn cfg_any_test_is_masked() {
        let (toks, ctx) =
            mask_for("#[cfg(any(test, feature = \"x\"))]\nmod helpers { fn h() { probe(); } }");
        assert!(ident_masked(&toks, &ctx, "probe"));
    }

    #[test]
    fn non_test_cfg_is_not_masked() {
        let (toks, ctx) = mask_for("#[cfg(unix)]\nfn prod() { work(); }");
        assert!(!ident_masked(&toks, &ctx, "work"));
    }
}
