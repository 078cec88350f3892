#!/bin/sh
# Proves the workspace's clippy configuration still carries enki-lint's
# retired per-file rules. Every `src/bin/*_bad.rs` fixture must fail
# `cargo clippy -- -D warnings` with each lint its `// expect:` line
# names; every `*_good.rs` twin must pass, in its test build too.
#
#   sh crates/lint/tests/fixtures/clippy/check.sh
set -u
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../../../.." && pwd)
manifest="$here/Cargo.toml"
target="$root/target/clippy-fixtures"
status=0

# The fixtures must be linted at the workspace's own levels.
lint_tables() { sed -n '/^\[workspace\.lints\./,/^$/p' "$1"; }
if [ "$(lint_tables "$root/Cargo.toml")" != "$(lint_tables "$manifest")" ]; then
    echo "FAIL: [workspace.lints] in $manifest differs from the root Cargo.toml" >&2
    status=1
fi

clippy() {
    cargo clippy --quiet --offline --manifest-path "$manifest" --target-dir "$target" \
        --message-format=json "$@" -- -D warnings
}

for src in "$here"/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    case "$bin" in
    *_bad)
        if out=$(clippy --bin "$bin" 2>/dev/null); then
            echo "FAIL $bin: passed clippy" >&2
            status=1
            continue
        fi
        expected=$(sed -n 's|^// expect: ||p' "$src")
        missing=""
        for lint in $expected; do
            printf '%s\n' "$out" | grep -q "\"code\":{\"code\":\"$lint\"" ||
                missing="$missing $lint"
        done
        if [ -n "$missing" ]; then
            echo "FAIL $bin: not rejected by$missing" >&2
            status=1
        else
            echo "ok   $bin rejected by: $expected"
        fi
        ;;
    *_good)
        if clippy --bin "$bin" >/dev/null 2>&1 &&
            clippy --bin "$bin" --profile test >/dev/null 2>&1; then
            echo "ok   $bin passes"
        else
            echo "FAIL $bin: rejected by clippy" >&2
            status=1
        fi
        ;;
    esac
done
exit $status
