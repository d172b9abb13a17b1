#!/usr/bin/env bash
# Every workload and its traced run at 1/20 size, one rep each, with the
# same output checks as a measured run. Well under 30 s once built. The
# numbers it prints mean nothing; the exit code does.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --smoke
