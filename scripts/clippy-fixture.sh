#!/usr/bin/env sh
# Gate for the rules rustc and clippy enforce in the workspace: clippy
# must report each lint that a `//~` comment in the fixture crate names,
# at the comment's line, and nothing else. A dropped clippy.toml entry, a dropped
# deny attribute in the fixture or a lint that stops firing fails here.
# nga-lint's selftest keeps the fixture's lint tables and deny list equal
# to the workspace's. Usage: scripts/clippy-fixture.sh
set -eu
cd "$(dirname "$0")/.."
fixture=tools/nga-lint/tests/fixtures/clippy
out=target/clippy-fixture
mkdir -p "$out"

# Expected: "src/lib.rs:LINE LINT", one line per marked lint.
grep -n '//~ ' "$fixture/src/lib.rs" |
    sed 's|^\([0-9]*\):.*//~ \(.*\)$|src/lib.rs:\1 \2|' |
    awk '{ for (i = 2; i <= NF; i++) print $1, $i }' |
    sort -u >"$out/expected.txt"

# Reported: the primary location and lint code of each diagnostic, from
# clippy's JSON messages. Clippy fails on the seeded errors by design.
cargo clippy --offline -q --manifest-path "$fixture/Cargo.toml" \
    --target-dir "$out" --all-targets --message-format=json \
    -- -D warnings >"$out/messages.json" 2>/dev/null || true
grep '"reason":"compiler-message"' "$out/messages.json" |
    grep '"code":{"code":"' |
    while IFS= read -r msg; do
        at=$(printf '%s\n' "$msg" | grep -o -- '--> [^:]*:[0-9]*' | head -n 1)
        lint=$(printf '%s\n' "$msg" | sed 's/.*"code":{"code":"\([^"]*\)".*/\1/')
        echo "${at#--> } $lint"
    done |
    sort -u >"$out/reported.txt"

diff "$out/expected.txt" "$out/reported.txt" || {
    echo "clippy fixture: reported lints differ from the //~ markers" \
        "(< expected only, > reported only)" >&2
    exit 1
}
