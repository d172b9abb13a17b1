#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under a crate's src/, the
# lines down to its first `#[cfg(test)]` (that line counted, the whole file
# when it has none). This is the count the line targets in ROADMAP.md use.
#
# Usage: scripts/nontest-lines.sh [crate-dir …]   (default: crates/*)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { done = 0 }
        !done { n++ }
        /#\[cfg\(test\)\]/ { done = 1 }
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
