#!/usr/bin/env bash
# Stage: scenario — the network-scale scenario engine contract
# (DESIGN.md §16):
#   * scenario-DSL strict parsing: unknown keys and out-of-range values
#     are rejected by name with their valid range (one unit test per
#     rejection path);
#   * graph-propagation property suite: finiteness/mass bounds, monotone
#     per-edge relaxation after an impulse, corpus bit-identity across
#     APOTS_THREADS ∈ {1, 4}, re-runs and distinct seeds;
#   * network-report golden: a ≥1000-segment demo corpus (cascading
#     accident + outages + super-peak) and the per-segment × kind grid
#     report built over it are byte-identical at both thread counts and
#     pinned by an FNV-1a hash;
#   * the CLI `scenario` subcommand end to end: describe/generate/report
#     on the demo spec, the traced report's `metrics-summary` carrying
#     its `scenario` section, and a malformed spec must be rejected,
#     naming the first missing key.
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo test -p apots-traffic --lib --release --offline -q scenario_dsl
cargo test -p apots-traffic --lib --release --offline -q network
cargo test -p apots-traffic --test network_props --release --offline -q
cargo test -p apots-experiments --test network_golden --release --offline -q

cargo build -p apots-cli --release --offline
mkdir -p results
target/release/apots scenario describe --demo --segments 64
target/release/apots scenario generate --demo --segments 64 --out results/scenario_demo.json
target/release/apots scenario report --demo --segments 64 \
  --epochs 1 --max-train-samples 32 --samples 8 --eval-segments 2 \
  --out results/scenario_report.json --trace results/scenario_trace.jsonl

echo "== the traced report's summary carries its scenario counters =="
summary=$(target/release/apots metrics-summary results/scenario_trace.jsonl --compact)
if ! grep -qE '"scenario":\{"corpora":[1-9][0-9]*,"segments":2,"runs":[1-9]' <<<"$summary"; then
  echo "ERROR: metrics-summary lacks the scenario section:" >&2
  echo "$summary" >&2
  exit 1
fi

echo "== negative check: a malformed spec must be rejected =="
bad=$(mktemp)
printf '{"schema": "apots-scenario", "name": "bad"}\n' > "$bad"
if target/release/apots scenario describe --spec "$bad" 2>/dev/null; then
  rm -f "$bad"
  echo "ERROR: scenario accepted a spec with missing keys" >&2
  exit 1
fi
rm -f "$bad"

echo "== negative check: the refusal names the missing key =="
bad=$(mktemp)
printf '{"schema": "apots-scenario", "name": "bad"}\n' > "$bad"
err=$(target/release/apots scenario describe --spec "$bad" 2>&1 >/dev/null || true)
rm -f "$bad"
if ! grep -qF 'missing required key "seed"' <<<"$err"; then
  echo "ERROR: the refusal does not name the missing key \"seed\":" >&2
  echo "$err" >&2
  exit 1
fi
echo "scenario stage: DSL, properties, golden and CLI all green"
