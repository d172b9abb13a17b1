#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under a crate's src/, the
# lines down to the `#[cfg(test)]` that opens its `mod tests` (that line
# counted, the whole file when it has none). A `#[cfg(test)]` on anything
# else — a test-only field, counter or helper — is counted like the code
# around it. This is the count the line targets in ROADMAP.md use.
#
# Usage: scripts/nontest-lines.sh [crate-dir …]   (default: crates/*)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    # `mark` is the count at the last `#[cfg(test)]` line while only blank
    # lines and attributes follow it; `mod tests` there rolls back to it.
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { done = 0; mark = -1 }
        done { next }
        { n++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { mark = n; next }
        mark >= 0 && /^[[:space:]]*(#\[.*)?$/ { next }
        mark >= 0 && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+tests([^[:alnum:]_]|$)/ {
            n = mark; done = 1; next
        }
        { mark = -1 }
        END { print n + 0 }'
}

[ $# -gt 0 ] || set -- crates/*
total=0
for crate in "$@"; do
    [ -d "$crate/src" ] || continue
    n=$(count "$crate")
    printf '%-24s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
