#!/usr/bin/env bash
# Builds `sdfr` and the end-to-end benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash e2e-bench/run.sh --workload warm_hit --seed 1 --seconds 15 --trace 0
#
# Both binaries land in the same target directory ($CARGO_TARGET_DIR, else
# target/ at the checkout root), where e2e_bench expects to find `sdfr`.
# Build output goes to stderr; results, traces and scratch files go to
# .bench_out/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sdfr-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/e2e-bench/Cargo.toml" >&2
exec "$target/release/e2e_bench" --out "$root/.bench_out" "$@"
