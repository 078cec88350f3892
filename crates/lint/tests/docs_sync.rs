//! Keeps the prose honest: the DESIGN.md rule table, the lib.rs doc
//! catalog, and the CLI usage text must all agree with the rule
//! registry in `rules.rs`. The registry is the single source of truth;
//! these tests fail the moment a doc surface drifts from it.

use enki_lint::rules::{markdown_table, ALL_RULES};

fn repo_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// DESIGN.md embeds the generated table verbatim, so `rules --markdown`
/// is always copy-paste-current and a registry edit without a doc edit
/// fails CI.
#[test]
fn design_md_contains_the_generated_rule_table_verbatim() {
    let design = repo_file("DESIGN.md");
    let table = markdown_table();
    assert!(
        design.contains(&table),
        "DESIGN.md rule table has drifted from the registry; \
         re-paste the output of `cargo run -p enki-lint -- rules --markdown`.\n\
         Expected block:\n{table}"
    );
}

/// The lib.rs doc header names every rule as `R<n> **<name>**`, so the
/// rustdoc landing page can never silently omit a rule.
#[test]
fn lib_rs_doc_header_names_every_rule() {
    let lib = include_str!("../src/lib.rs");
    for rule in ALL_RULES {
        let entry = format!("{} **{}**", rule.code(), rule.name());
        assert!(
            lib.contains(&entry),
            "lib.rs doc header is missing `{entry}`; update the catalog section"
        );
    }
}

/// DESIGN.md documents the workspace-graph passes and the clippy
/// configuration that replaced the per-file rules, so a reader of the
/// design doc learns where each ban is enforced.
#[test]
fn design_md_documents_the_v2_surface() {
    let design = repo_file("DESIGN.md");
    for needle in [
        "Workspace-graph passes",
        "lock-order cycle",
        "rules --markdown",
        "clippy.toml",
        "#[expect(",
    ] {
        assert!(design.contains(needle), "DESIGN.md is missing `{needle}`");
    }
}
