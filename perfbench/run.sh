#!/usr/bin/env bash
# Build the chemcost daemon and the benchmark from source, then run the
# benchmark from the repository root with the arguments given, e.g.
#   bash perfbench/run.sh --workload advise_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "perfbench: run from a chemcost checkout (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin chemcost >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/chemcost-perfbench" --chemcost "$CARGO_TARGET_DIR/release/chemcost" "$@"
