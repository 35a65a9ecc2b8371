#!/usr/bin/env bash
# Builds the `simap` binary and the benchmark harness from source, then
# runs one workload:
#
#   bash flowbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the result object. Without the repository sources
# next to this directory the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin simap >&2
cargo build --release --quiet --manifest-path flowbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/flowbench" --simap "$CARGO_TARGET_DIR/release/simap" "$@"
