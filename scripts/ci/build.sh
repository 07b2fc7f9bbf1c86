#!/usr/bin/env bash
# Stage: build — release build of the whole workspace, offline, plus the
# benchmark (perfbench is a workspace of its own, so the workspace build
# does not compile it; a change that breaks its use of the crates' public
# API must fail here, not only in the benchmark run).
set -euo pipefail
cd "$(dirname "$0")/../.."

cargo build --workspace --release --offline
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml
