#!/usr/bin/env bash
# The repo's verification gate — identical locally and in CI.
#
# The workspace has no registry dependencies, so every step below works
# fully offline.
#
# Each step is tagged `# ci-job: <job-id>` with the ci.yml job that runs
# the same ground in CI; scripts/verify_parity.sh asserts the two sets
# stay in lockstep (every job mirrored here, every tag a real job).
set -euo pipefail
cd "$(dirname "$0")/.."

# ci-job: check
echo "==> cargo build --release"
cargo build --release

# ci-job: check
echo "==> cargo test -q"
cargo test --workspace -q

# Tidiness: scratch dirs must not creep back into the tree.
# ci-job: check
echo "==> tidiness (no stray scratch dirs)"
test ! -e examples_tmp

# Rustdoc with warnings as errors: a doc link to a private or deleted
# item fails the gate.
# ci-job: check
echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# CI ↔ local parity: every ci.yml job mirrored by a tagged step here.
# ci-job: check
echo "==> verify-parity (CI jobs <-> verify.sh steps)"
scripts/verify_parity.sh

# Thread matrix: AttackConfig::default() honours RELOCK_THREADS, so the
# same suites re-run with the sharded engine on 4 threads — bit-identical
# by contract — both under the harness's own test parallelism and
# serially (the serial pass isolates any cross-test interference).
# ci-job: test-matrix
echo "==> cargo test -q (RELOCK_THREADS=4)"
RELOCK_THREADS=4 cargo test --workspace -q

# ci-job: test-matrix
echo "==> cargo test -q (RELOCK_THREADS=4, --test-threads=1)"
RELOCK_THREADS=4 cargo test --workspace -q -- --test-threads=1

# ci-job: test-matrix
echo "==> cargo fmt --check"
cargo fmt --all -- --check

# ci-job: test-matrix
echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Kill-and-resume soak and checkpoint fallback properties, release-built:
# the attack is crashed at scheduled chaos points and must resume to a
# bit-identical key, and every damaged or misfitting frame must fall back
# to a fresh run. (`report`'s `soak_mlp12_resume` entry, run by the
# perf-report step below, kills a release MLP-12 attack three times.)
# ci-job: chaos-soak
echo "==> chaos soak suites (release)"
cargo test --release -q -p relock-attack --test chaos_soak --test checkpoint_props

# Multi-tenant campaign soak: 8 concurrent campaigns on one hub sharing
# a 256 KiB LRU cache (evictions expected), fair-share scheduling across
# two tenants, latency chaos on every oracle, and one pause →
# daemon-restart → resume migration mid-flight. Every recovered key must
# be bit-identical to its one-shot sequential reference.
# ci-job: campaign-soak
echo "==> campaign soak (multi-tenant daemon bench)"
cargo run -p relock-bench --release --bin campaign_soak -- 8 4 256

# The same soak on one slot: twins wait on each other's in-flight rows,
# each giving the only slot back before it waits.
# ci-job: campaign-soak
echo "==> campaign soak on one slot"
cargo run -p relock-bench --release --bin campaign_soak -- 8 1 256

# The benchmark (perfbench/, a workspace of its own) implements
# PhaseExecutor and wraps LocalExecutor through the public attack API;
# build it and run its tests so an API change cannot strand it.
# ci-job: perfbench
echo "==> perfbench tests (release)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Lock-variant × attack matrix: the differential conformance suite
# (decrypt cells across thread counts, sampling/oracle-less cells under
# seed replay, trigger property sweep) plus the measured 4×3 grid. The
# grid's key_acc medians and query counts are diffed exactly by the
# report step below.
# ci-job: variant-matrix
echo "==> variant matrix (locks × attacks conformance)"
cargo test -q -p relock-attack --test variant_matrix
RELOCK_THREADS=4 cargo test -q -p relock-attack --test variant_matrix
cargo test -q -p relock-locking --test trigger_props
cargo run -p relock-bench --release --bin matrix

# Trace-driven analysis gate: capture a seeded attack at 1 and 2 threads
# with the flight recorder, mine each capture with `report --analyze`, and
# demand the trace-side books reconcile *exactly* against the broker's own
# QueryStatsSnapshot — any accounting or schema drift, or a timestamp out
# of arrival order, fails. The trained LeNet-16 victim runs §3.8 error
# correction, so the gate covers it.
# ci-job: analyze
echo "==> analyze (flight-recorder accounting gate)"
analyze_dir=$(mktemp -d /tmp/relock-analyze.XXXXXX)
trap 'rm -rf "$analyze_dir"' EXIT
./target/release/relock lock --arch lenet --bits 16 \
  --out "$analyze_dir/victim.rlk" --seed 1
for threads in 1 2; do
  ./target/release/relock attack "$analyze_dir/victim.rlk" --fast --seed 1 \
    --threads "$threads" \
    --trace "$analyze_dir/trace-t$threads.jsonl" \
    --stats-json "$analyze_dir/stats-t$threads.json"
  cargo run -p relock-bench --release --bin report -q -- \
    --analyze "$analyze_dir/trace-t$threads.jsonl" \
    --stats "$analyze_dir/stats-t$threads.json" \
    --out "$analyze_dir/ANALYZE-t$threads.json"
done

# Unified bench report + benchdiff: fails on any query-count drift vs
# the committed baseline (deterministic); local timing only warns, like
# CI — gate on queries, not on this machine's clock.
# ci-job: perf-report
echo "==> bench report + benchdiff"
cargo run -p relock-bench --release --bin report -q -- \
  --out /tmp/relock-BENCH.json --repeats 1 \
  --diff BENCH_baseline.json --time-warn-only

echo "==> verify OK"
