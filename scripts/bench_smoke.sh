#!/usr/bin/env bash
# Smoke-run the micro timing table in quick mode (iteration counts
# divided by 20): the checker-path rows — invariant_suite_one_state,
# simulation_abstraction_one_state, abstract_scheduler_steps,
# derived_state_snapshot, the trace checkers — and the metrics-overhead
# rows (registry on vs off): obs_overhead/frame_path_bare is the
# uninstrumented hot path, obs_overhead/frame_path_instrumented adds the
# gcs-obs counter bump + trace-ring event a real frame pays; the delta
# is the per-frame observability cost (expect low tens of ns).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run --release --quiet -p gcs-harness --bin exp_all -- micro --quick
# Lint runtime: a full workspace scan must stay interactive (budget ~2 s)
# so the tier-1 gcs-lint stage never becomes the slow part of ci.sh.
cargo build --release -p gcs-lint --quiet
t0=$(date +%s%N)
./target/release/gcs-lint --root . > /dev/null
t1=$(date +%s%N)
echo "lint-runtime: full workspace scan in $(( (t1 - t0) / 1000000 )) ms (budget ~2000 ms)"
# Model-checker runtime: the tier-1 bound-1 exploration of all three
# ported structures must stay well inside its ci.sh budget (<30 s) —
# if a new model or a widened schedule space blows this up, it shows
# here before it slows the merge bar.
cargo test -q -p gcs-obs --test mc_ring --no-run 2> /dev/null
cargo test -q -p gcs-net --test mc_queue --no-run 2> /dev/null
t0=$(date +%s%N)
GCS_MC_BOUND=1 cargo test -q -p gcs-obs --test mc_ring --test mc_registry > /dev/null
GCS_MC_BOUND=1 cargo test -q -p gcs-net --test mc_queue > /dev/null
t1=$(date +%s%N)
echo "mc-runtime: bound-1 models (ring, registry, queue) in $(( (t1 - t0) / 1000000 )) ms (budget ~30000 ms)"
