#!/usr/bin/env bash
# The full CI gate: release build, every example run to a clean exit,
# and the complete test suite of every workspace crate (the root
# manifest's `default-members`, so the plain commands cover crates/*
# and their binaries), the crate-graph shape
# gate (the deployable stack links no simulator), the gcs-mc
# model-checking gate (bound-1 interleaving exploration + seeded-bug
# detection), a deterministic-simulation smoke sweep, the repository
# benchmark's smoke run with every checker on, and clippy over every
# target (tests and examples too) with warnings promoted to errors.
# Everything runs offline against the vendored dependency set; a clean
# exit here is the merge bar.
#
# NIGHTLY=1 adds the long stages: a 200-seed simulation sweep, the
# 200-seed hostile-network corpus (adaptive vs fixed detector gate),
# the injected-bug end-to-end check (the harness must catch and shrink
# a deliberately broken token path), bound-2 model checking, and the
# ThreadSanitizer pass (loudly skipped offline).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

# `cargo test` only compiles examples/; their own checks (replicated_kv's
# convergence and sequential consistency across a crash, partition_heal's
# TO check, ...) only hold if they run. Each must exit 0.
for example in quickstart token_ring_demo partition_heal replicated_kv; do
  echo "==> cargo run --release --example $example"
  cargo run --release -q --example "$example" > /dev/null
done

echo "==> gcs-lint --root . (project lints; see docs/LINTS.md)"
./target/release/gcs-lint --root .

# Crate-graph shape: the normal-dependency closure of the deployable
# stack (protocol, TCP runtime, sharding) and of the deterministic
# simulator that hosts the same NodeCore (gcs-sim) is exactly the set
# below — so neither links the discrete-event engine (gcs-netsim), nor
# the experiment apparatus (gcs-harness), nor any bench framework, and a
# new edge has to be added here on purpose. The protocol and the runtime
# name no RNG themselves; `rand` still reaches them through gcs-ioa's
# seeded Runner and gcs-core's adversary (the executable specification's
# scheduler), so that check is on direct edges.
echo "==> dependency shape (cargo tree -e normal: gcs-vsimpl, gcs-net, gcs-shard, gcs-sim)"
unexpected="$(cargo tree -e normal --prefix none -p gcs-vsimpl -p gcs-net -p gcs-shard -p gcs-sim \
  | awk 'NF { print $1 }' | sort -u \
  | grep -vxE 'bytes|rand|rand_chacha|gcs-(apps|core|ioa|mc|model|net|obs|shard|sim|vsimpl)' || true)"
if [[ -n "$unexpected" ]]; then
  echo "the deployable stack and gcs-sim link crates outside their allowed set:" $unexpected >&2
  exit 1
fi
if cargo tree -e normal --depth 1 --prefix none -p gcs-vsimpl -p gcs-net | grep -E '^rand'; then
  echo "gcs-vsimpl and gcs-net must not depend on rand directly" >&2
  exit 1
fi

# Every crate's unit, integration and doc tests, gcs-lint's fixture
# self-tests and its workspace-clean meta-test included. No test is
# #[ignore]d for time (the slowest, gcs-core's eager_schedule, runs ~60 s
# on 2 CPUs; every other single test is under ~30 s);
# the one #[ignore] in the tree regenerates a corpus file and must not
# run here, so there is no `-- --ignored` stage.
echo "==> cargo test -q"
cargo test -q

# gcs-mc model-checking gate (see docs/CONCURRENCY.md): exhaustively
# explore every interleaving of the ported structures — obs trace ring,
# metrics registry/histogram, net send queue — within preemption bound
# 1 (the CHESS result: most real concurrency bugs need <=2 preemptions;
# bound 2 runs nightly). Zero races, zero deadlocks, zero assertion
# failures is the bar. Budget: <30 s total.
echo "==> gcs-mc models at preemption bound 1 (ring, registry, queue)"
GCS_MC_BOUND=1 cargo test -q -p gcs-mc
GCS_MC_BOUND=1 cargo test -q -p gcs-obs --test mc_ring --test mc_registry
GCS_MC_BOUND=1 cargo test -q -p gcs-net --test mc_queue

# Seeded-bug meta-test: with the mc-seeded-bug feature the trace ring's
# seq publish is downgraded AcqRel -> Relaxed; the happens-before
# checker must catch it (VacuousAcquire, file:line on both sides) and
# the failing schedule must replay. This proves the checker can see the
# class of bug the clean runs above claim is absent.
echo "==> gcs-mc seeded-bug detection (mc-seeded-bug feature)"
cargo test -q -p gcs-obs --features mc-seeded-bug --test mc_seeded_bug

echo "==> gcs-sim run --seeds 10 (smoke)"
./target/release/gcs-sim run --seeds 10

# Hostile-network corpus smoke: every regime (link flap at the
# detection threshold, asymmetric slowdown, bimodal WAN delays, split
# storms, 50-node churn) under BOTH detector policies. The gate inside
# the command: zero checker/monitor violations on every run, and the
# adaptive detector installs strictly fewer views than fixed timeouts
# on the flap/bimodal regimes (summed over the regime's seeds, printed
# on its summary line; a single seed may go either way).
echo "==> gcs-sim hostile --seeds 10 (adaptive-vs-fixed corpus smoke)"
./target/release/gcs-sim hostile --seeds 10

# Follower latency: a value submitted at a non-leader of a quiet ring is
# back at its submitter within (2n+3)δ at every phase against the π
# heartbeat (the member asks the leader for a round instead of waiting
# for one), and within d with every such request lost: a change that
# puts π back into the latency path, or that needs the request to meet
# the paper's bounds, fails here.
echo "==> gcs-sim follower (2n+3 hops with round requests, d without)"
./target/release/gcs-sim follower

# The repository benchmark at 1/50 size, every workload with its traced
# checker pass: exactly-once delivery in one identical order at every
# member, the VS/TO trace checkers, the b/d monitors, per-key
# linearizability on the sharded workload, and gcs-sim digest
# repeatability. It gates correctness of the whole real-threads stack
# under load; throughput is compared run against run by the benchmark
# itself (gcs-benchmark/README.md), not against a floor here.
echo "==> gcs-benchmark/run.sh --smoke (all workloads, checkers on)"
smoke_t0=$(date +%s)
bash gcs-benchmark/run.sh --smoke > /dev/null
echo "    benchmark smoke passed in $(( $(date +%s) - smoke_t0 )) s"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${NIGHTLY:-0}" == "1" ]]; then
  echo "==> [nightly] gcs-sim run --seeds 200"
  ./target/release/gcs-sim run --seeds 200

  # The full hostile sweep: 200 seeds x 5 regimes x 2 policies. Fails
  # on any checker/monitor violation or any flap/bimodal regime whose
  # adaptive runs do not install strictly fewer views in total than its
  # fixed-timeout runs — the view-change-rate regression gate for the
  # accrual detector.
  echo "==> [nightly] gcs-sim hostile --seeds 200"
  ./target/release/gcs-sim hostile --seeds 200

  echo "==> [nightly] injected-bug catch + shrink (bug-hook feature)"
  cargo test -p gcs-sim --features bug-hook --test bug_catch -q

  # Deeper model-checking: preemption bound 2 explores the interleavings
  # tier-1's bound-1 pass cannot reach (schedules needing two forced
  # preemptions). Above the bound the checker falls back to seeded
  # pseudo-random sampling, so this also exercises the sampling paths.
  echo "==> [nightly] gcs-mc models at preemption bound 2"
  GCS_MC_BOUND=2 cargo test -q -p gcs-mc
  GCS_MC_BOUND=2 cargo test -q -p gcs-obs --test mc_ring --test mc_registry
  GCS_MC_BOUND=2 cargo test -q -p gcs-net --test mc_queue

  # ThreadSanitizer over the concurrency-heavy crates validates the
  # happens-before claims the `// ordering:` annotations make (the
  # atomics_order lint forces the claims; TSan checks them). Needs the
  # nightly toolchain with rust-src (-Zbuild-std rebuilds std with TSan
  # instrumentation); in offline containers the component cannot be
  # fetched, so skip with a notice instead of failing the run.
  echo "==> [nightly] ThreadSanitizer (gcs-obs, gcs-net)"
  if rustup component add rust-src --toolchain nightly >/dev/null 2>&1 \
     || ls "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/std/Cargo.toml" >/dev/null 2>&1; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
      -p gcs-obs -p gcs-net -q
  else
    echo "!!==================================================================!!"
    echo "!! SKIPPED: ThreadSanitizer stage (nightly rust-src unavailable —   !!"
    echo "!! offline container). The ordering: claims were NOT validated by   !!"
    echo "!! TSan this run; the gcs-mc happens-before checker remains the     !!"
    echo "!! only active validator. Run on a networked host to close this.    !!"
    echo "!!==================================================================!!"
  fi
fi

echo "==> ci.sh: all green"
