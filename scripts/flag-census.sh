#!/usr/bin/env bash
# Flag census: every flag `bgpscope` parses — each "--flag" string literal
# in crates/core/src/bin/bgpscope.rs — must be passed as a quoted argument
# ("--flag") somewhere in tests/cli.rs. The usage text does not count: its
# flags sit inside longer string literals. Whether the test that passes a
# flag also fails when the flag is ignored is checked by hand (DESIGN.md's
# flag and knob census names each test).
#
# Usage: scripts/flag-census.sh   (exits 1 and names the untested flags)
set -euo pipefail
cd "$(dirname "$0")/.."

cli=crates/core/src/bin/bgpscope.rs
tests=tests/cli.rs
flags=$(grep -o '"--[a-z][a-z-]*"' "$cli" | sort -u)
[ -n "$flags" ] || { echo "flag-census: no flags found in $cli" >&2; exit 1; }

missing=0
for flag in $flags; do
    if ! grep -qF -- "$flag" "$tests"; then
        echo "flag-census: $flag is parsed in $cli but passed by no test in $tests" >&2
        missing=1
    fi
done
[ "$missing" -eq 0 ] || exit 1
echo "flag-census: all $(echo "$flags" | wc -l) flags are passed in $tests"
