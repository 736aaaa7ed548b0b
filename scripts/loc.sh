#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
# A line counts when it is not blank, is not a `//` comment (doc comments
# included) and lies outside every `#[cfg(test)] mod ... { ... }` block.
# Counted trees: crates/*/src, src (the facade) and examples. Benches,
# integration tests and perfbench/ are not counted.
#
# Usage: scripts/loc.sh
set -euo pipefail
shopt -s globstar nullglob
cd "$(dirname "$0")/.."

# Counts the lines of every .rs file under one directory. A test module
# ends at the first `}` line indented like its `mod` line, which is how
# rustfmt closes it.
count() {
    local files=("$1"/**/*.rs)
    awk '
        FNR == 1 { in_test = 0; held = 0 }
        in_test { if ($0 == close_line) in_test = 0; next }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            sub(/[ \t]+$/, "", line)
        }
        line == "" || line ~ /^\/\// { next }
        held {
            held = 0
            if (line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/) {
                match($0, /^[ \t]*/)
                close_line = substr($0, 1, RLENGTH) "}"
                in_test = 1
                next
            }
            n++
        }
        line == "#[cfg(test)]" { held = 1; next }
        { n++ }
        END { print n + 0 }
    ' "${files[@]}" /dev/null
}

total=0
row() {
    printf '%-16s %6d\n' "$1" "$2"
    total=$((total + $2))
}
for dir in crates/*/src; do
    name=$(awk -F'"' '/^name *=/ { print $2; exit }' "${dir%/src}/Cargo.toml")
    row "$name" "$(count "$dir")"
done
row "timing-predict" "$(count src)"
row "examples" "$(count examples)"
printf '%-16s %6d\n' "total" "$total"
