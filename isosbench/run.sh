#!/usr/bin/env bash
# Builds the binaries under test and the benchmark harness, then runs the
# harness with the given arguments:
#
#   bash isosbench/run.sh --workload stream-batch --seed 1 --seconds 30 --trace 0
#
# `serve` and `dse` are built by the repository's own workspace, with its
# release profile and features, exactly as `cargo build --release` there
# builds them. The harness is a package of its own; it shares the target
# directory, finds the two binaries next to itself, and never rebuilds
# them. Cargo writes to stderr, so stdout carries only the harness's
# output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p isos-serve -p isos-explore --bin serve --bin dse
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin isosbench
exec "$CARGO_TARGET_DIR/release/isosbench" "$@"
