#!/usr/bin/env bash
# Stage: bench-gate — compare the fresh BENCH_*.json files (emitted by
# the bench-smoke stage) against the committed bench_baselines.json and
# fail on regression, then self-test that the gate actually *can* fail:
# with every baseline median inflated 2x the comparison must go red.
#
# A baseline row with a misspelt key (`"exakt"` for `"exact"`) must be
# refused by name, not read as a timing row with the default band.
#
# Timing medians come from single-sample smoke runs and move with the
# host, so timing tolerances are wide (see bench_baselines.json) — but
# every tolerance is enforced < 0.5, which guarantees a 2x regression
# can never pass the two-sided check. Allocation counts are exact.
#
# To re-capture baselines after an accepted performance change:
#   target/release/apots bench-gate --write-baseline
set -euo pipefail
cd "$(dirname "$0")/../.."

for f in BENCH_train_epoch.json BENCH_alloc_profile.json BENCH_parallel_kernels.json BENCH_attack.json BENCH_quant.json BENCH_network.json; do
  [[ -f $f ]] || { echo "missing $f — run the bench-smoke stage first" >&2; exit 1; }
done

cargo build -p apots-cli --release --offline
gate=target/release/apots

"$gate" bench-gate --baselines bench_baselines.json

echo "== negative self-test: a 2x-inflated baseline must FAIL =="
if "$gate" bench-gate --baselines bench_baselines.json --scale-baseline 2 >/dev/null 2>&1; then
  echo "ERROR: bench-gate passed against a 2x-inflated baseline" >&2
  exit 1
fi
echo "negative self-test ok: inflated baseline was rejected"

echo "== negative check: a misspelt baseline key must be refused by name =="
bad=$(mktemp)
sed '0,/"exact": true/s//"exakt": true/' bench_baselines.json > "$bad"
if err=$("$gate" bench-gate --baselines "$bad" 2>&1); then
  rm -f "$bad"
  echo "ERROR: bench-gate accepted a baseline with the misspelt key \"exakt\"" >&2
  exit 1
fi
rm -f "$bad"
if ! grep -qF 'unknown key "exakt"' <<<"$err"; then
  echo "ERROR: the refusal does not name the misspelt key:" >&2
  echo "$err" >&2
  exit 1
fi
echo "negative check ok: the misspelt key was refused by name"
