#!/usr/bin/env bash
# Workspace CI: build, test, lint, format. Mirrors what the tier-1 driver
# runs (build + root-package tests) and extends it to every crate.
set -euo pipefail
cd "$(dirname "$0")"

# No CI step or test may write committed results: every bin run below
# sends its output to a scratch dir. Snapshot results/ now (content hash
# of every tracked file, plus the untracked non-ignored files) and
# compare at the end.
results_state() {
    git ls-files -z -- results | xargs -0 -r sha256sum 2>&1 || true
    echo "-- untracked --"
    git ls-files --others --exclude-standard -- results
}
RESULTS_BEFORE="$(results_state)"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace, trace-dump-on-failure armed)"
# SELETH_TRACE_ON_FAIL points the first-divergence diagnostics at a
# scratch dir: when a bit-identity suite trips, the failure message
# carries the first divergent event and both event traces land there
# as JSON lines for offline diffing.
SELETH_TRACE_ON_FAIL="$(mktemp -d)" cargo test --workspace -q

echo "==> MDP solver release-mode gates (ignored in debug runs)"
# The benchmark's truncation-60 solve must give the same rho* bits,
# policy and sweep count at 1, 2 and 3 solver threads (~6 s).
cargo test --release -q -p seleth-mdp -- --ignored

echo "==> perfbench self-test (tiny run of every benchmark workload)"
# The benchmark is a package of its own, outside the workspace. Its
# self-test replays longest_chain, uncle_events_with_cap and
# account_with_events layer by layer and checks them against
# Simulation::finalize, so settlement changes are gated here too.
(cd perfbench && cargo test --release --offline)

echo "==> benchmark files untouched (perfbench lock file included)"
# perfbench builds the library crates from source; a dependency change in
# any of them rewrites perfbench/Cargo.lock, which is a benchmark change.
git diff --exit-code -- perfbench BENCHMARK.json

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> policy artifact-compat audit (legality + byte-identical re-save)"
# Loads every committed results/policies/*.json through the v2 API:
# unreadable, illegal or non-byte-stable tables fail the build. No
# solving, no simulation, no network.
SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_sim -- --audit

echo "==> optimal_sim agreement gate (fast settings)"
# Small runs/blocks/truncation keep this under a minute; results go to a
# scratch dir so the committed full-size artifacts aren't overwritten.
SELETH_RESULTS="$(mktemp -d)" SELETH_RUNS=4 SELETH_BLOCKS=20000 SELETH_MDP_LEN=24 \
    cargo run --release -q -p seleth-bench --bin optimal_sim

echo "==> optimal_delay smoke gate (strategic delay path)"
# Replays a committed artifact through the strategic delay engine: one
# Bitcoin point, two delays, small budgets. Output goes to a scratch dir;
# the committed artifacts are read via SELETH_POLICIES.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_delay -- --smoke

echo "==> optimal_closed_loop smoke gate (race-window artifacts vs the zero-delay optimum)"
# Replays the committed truncation-200 delay-aware artifact against the
# zero-delay baseline at its design delay, small budgets, loosened
# tolerance. Reads committed artifacts (no solving in CI); output goes to
# a scratch dir.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-bench --bin optimal_closed_loop -- --smoke

echo "==> strategy_zoo smoke gate (zoo tournament + multi-strategist matchups)"
# One (α, γ) point, duopoly split, two delays, one matchup cell, small
# budgets; gates SM1 against its closed form and the optimal artifact
# against every hand-written family.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin strategy_zoo -- --smoke

echo "==> chaos_study smoke gate (deterministic fault injection)"
# Zero-delay anchor plus a handful of fault cells (loss, churn +
# partition) under small budgets; gates the anchor against the
# artifact's rho*. Output goes to a scratch dir, which the perf_report
# gate below then renders: a fresh study JSON (with trace) must flow
# through the profiler end to end.
CHAOS_SCRATCH="$(mktemp -d)"
SELETH_RESULTS="$CHAOS_SCRATCH" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin chaos_study -- --smoke \
    --trace "$CHAOS_SCRATCH/chaos_trace.jsonl"

echo "==> topology_study smoke gate (peer-graph gossip propagation)"
# Uniform anchor, the bit-identity-gated complete graph, and the
# hub/leaf attacker-position pair under small budgets; gates the
# complete graph bitwise against the uniform engine and the positional
# revenue spread against the smoke noise floor.
SELETH_RESULTS="$(mktemp -d)" SELETH_POLICIES=results/policies \
    cargo run --release -q -p seleth-zoo --bin topology_study -- --smoke

echo "==> perf_report smoke gate (telemetry renders end to end)"
# The fresh smoke output and every committed study JSON must render;
# the trace file must be non-empty JSON lines.
cargo run --release -q -p seleth-bench --bin perf_report -- \
    "$CHAOS_SCRATCH/chaos_study_smoke.json" > /dev/null
test -s "$CHAOS_SCRATCH/chaos_trace.jsonl"
SELETH_RESULTS=results \
    cargo run --release -q -p seleth-bench --bin perf_report > /dev/null

echo "==> results/ left as CI found it"
RESULTS_AFTER="$(results_state)"
if [ "$RESULTS_AFTER" != "$RESULTS_BEFORE" ]; then
    echo "FAIL: a CI step changed results/:" >&2
    diff <(echo "$RESULTS_BEFORE") <(echo "$RESULTS_AFTER") >&2 || true
    exit 1
fi

echo "CI OK"
