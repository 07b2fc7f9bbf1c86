#!/usr/bin/env bash
# Stage: lint — formatting and clippy, warnings denied, all targets.
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings

# The build targets the host CPU (.cargo/config.toml), so on a host with
# AVX-512 VNNI the portable `qmatmul` loop is never compiled above. Lint
# `apots-tensor` once more for a baseline x86-64-v3 CPU, in a target dir
# of its own so the host build's cache stays valid.
if [ "$(uname -m)" = x86_64 ]; then
  RUSTFLAGS="-C target-cpu=x86-64-v3" cargo clippy -p apots-tensor --all-targets --offline \
    --target-dir target/portable -- -D warnings
fi
