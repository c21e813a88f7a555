#!/usr/bin/env bash
# Builds the benchmark and the `ifair` server binary from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload serve-small|serve-bulk|fit-shards \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root); run files go to .perfbench at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p ifair-perfbench -p ifair-serve --bins >&2
exec "$target/release/ifair-perfbench" \
    --server-bin "$target/release/ifair" --work-dir "$root/.perfbench" "$@"
