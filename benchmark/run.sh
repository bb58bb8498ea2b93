#!/usr/bin/env bash
# One command for the whole benchmark: build the nested package, then
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one result object on the last line (BENCHMARK.json)
#   run.sh [--seed <n>] [--reps <n>] [--smoke]
#       every workload, traced and control passes, microbenches, checks;
#       writes results/latest.json
#   run.sh compare <parent.json> <change.json>
#   run.sh --check
#       cargo fmt --check and clippy -D warnings on this package, which the
#       root workspace's CI does not see
#
# Children run strictly one after another on one thread; run nothing else
# beside them.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [ "${1:-}" = "--check" ]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
    exit 0
fi

# Cargo reports on stderr; stdout stays the benchmark's own.
cargo build --manifest-path "$manifest" --release --offline --quiet
exec "${CARGO_TARGET_DIR:-$here/target}/release/hpbd-benchmark" "$@"
