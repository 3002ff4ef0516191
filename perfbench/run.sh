#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload mlp_sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root, so that the root's `.cargo/config.toml`
# (target-cpu=native) applies to the build exactly as it does to the
# repository's own builds. The build lands in $CARGO_TARGET_DIR when set.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/relock-perfbench" "$@"
