#!/usr/bin/env bash
# The kacc benchmark, one command. Builds the benchmark package offline,
# then starts it from the root of the checkout:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#   benchmark/run.sh [--seed N] [--seconds S]
#       all five workloads, untraced then traced; every metric is printed
#       as "name value unit" and benchmark/out/results.json is written
#   benchmark/run.sh --compare A.json B.json
#       B against A under the bounds of BENCHMARK.json
#
# Exit status is non-zero if the build fails, an operation failed, a
# workload printed no result, or cross-process CMA is denied.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kacc-benchmark" "$@"
