#!/usr/bin/env bash
# Builds the release `ioenc` binary and the benchmark program
# (`ioenc-perfbench`) from this checkout, then runs it with the given
# arguments, e.g.
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin ioenc >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ioenc-perfbench" --ioenc "$CARGO_TARGET_DIR/release/ioenc" "$@"
