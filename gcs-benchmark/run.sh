#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the root of
# the checkout:
#
#   gcs-benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is its result
#   gcs-benchmark/run.sh [--seed N] [--runs R] [--traced] [--smoke] [--twice] [--out FILE]
#       every workload, medians and quartiles; --twice runs two sets and
#       compares them against the bounds in BENCHMARK.json
#   gcs-benchmark/run.sh agree A.json B.json
#       compares two result sets written with --out
#   gcs-benchmark/run.sh spec
#       prints BENCHMARK.json from the benchmark's own tables
#
# The build goes to $CARGO_TARGET_DIR if set (relative to the current
# directory, as cargo reads it), else to gcs-benchmark/target. Nothing
# outside the checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/gcs-benchmark" "$@"
