#!/usr/bin/env bash
# Interleaved comparison of two gcs-benchmark binaries on one workload:
#
#   scripts/bench_pairs.sh <bin-A> <bin-B> <workload> [pairs] [first-seed]
#
# Pair i (from 0) runs seed first-seed+i once on each binary, as single
# untraced runs of BENCHMARK.json's `run_seconds`. Pairs alternate
# which side goes first (A B, B A, A B, ...), so a shared box that
# speeds up or slows down over time moves both sides alike; whole sets
# run back to back do not have that property.
# Prints each run's end-to-end metrics as it finishes, the median of
# each side, and per metric in how many pairs B was better, where
# "better" is that metric's `better` field in BENCHMARK.json. A run that
# reports no correct result is shown as failed and leaves its pair out.
#
# Build each side first, e.g. for a checkout at $dir:
#   CARGO_TARGET_DIR=$out cargo build --release --offline \
#     --manifest-path $dir/gcs-benchmark/Cargo.toml
# and pass $out/release/gcs-benchmark. Defaults: 8 pairs from seed 1.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
  echo "usage: $0 <bin-A> <bin-B> <workload> [pairs] [first-seed]" >&2
  exit 2
fi
bin_a="$1" bin_b="$2" workload="$3" pairs="${4:-8}" first="${5:-1}"
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

# The end-to-end metrics and their directions, in BENCHMARK.json order:
# the entries of the "end_to_end" list, one object per line.
mapfile -t metrics < <(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit } on' "$spec" \
  | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')
if [[ ${#metrics[@]} -eq 0 ]]; then
  echo "$0: no end_to_end metrics in $spec" >&2
  exit 2
fi
names=() betters=()
for m in "${metrics[@]}"; do
  names+=("${m% *}")
  betters+=("${m#* }")
done
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")"

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT

# One run: prints the metric values in `names` order, or nothing if the
# run did not report a correct result.
run() {
  local line
  line="$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 2>/dev/null \
    | tail -n 1)" || true
  [[ "$line" == *'"correct": true'* ]] || return 0
  local out=()
  for n in "${names[@]}"; do
    out+=("$(sed -n "s/.*\"$n\": *{\"value\": *\([-0-9.eE+]*\).*/\1/p" <<<"$line")")
  done
  echo "${out[*]}"
}

printf '%s: %s pairs from seed %s, %s s per run\n' "$workload" "$pairs" "$first" "$seconds"
printf '%-5s %-5s %-4s' pair seed side
printf ' %16s' "${names[@]}"
printf '\n'
for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  order=(A B)
  ((i % 2 == 0)) || order=(B A)
  for side in "${order[@]}"; do
    bin="$bin_a"
    [[ $side == B ]] && bin="$bin_b"
    values="$(run "$bin" "$seed")"
    printf '%-5s %-5s %-4s' "$((i + 1))" "$seed" "$side"
    if [[ -z "$values" ]]; then
      printf ' failed\n'
      continue
    fi
    printf ' %16.6g' $values
    printf '\n'
    echo "$i $side $values" >>"$rows"
  done
done

# Column c of the rows of `side`, for pairs where both sides reported.
complete_pairs() {
  awk '{ n[$1]++ } END { for (p in n) if (n[p] == 2) print p }' "$rows"
}
column() {
  local keep
  keep=" $(complete_pairs | tr '\n' ' ') "
  awk -v side="$1" -v c="$2" -v keep="$keep" \
    '$2 == side && index(keep, " " $1 " ") { print $(c + 3) }' "$rows"
}
median() {
  sort -g | awk '{ v[NR] = $1 } END {
    if (NR == 0) print "nan"; else if (NR % 2) print v[(NR + 1) / 2];
    else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

n_pairs="$(complete_pairs | wc -l)"
for side in A B; do
  printf '%-16s' "median $side"
  for c in "${!names[@]}"; do
    printf ' %16.6g' "$(column "$side" "$c" | median)"
  done
  printf '\n'
done
printf '%-16s' "B better (of $n_pairs)"
for c in "${!names[@]}"; do
  wins="$(paste -d ' ' <(column A "$c") <(column B "$c") | awk -v better="${betters[$c]}" '
    (better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { w++ }
    END { print w + 0 }')"
  printf ' %16s' "$wins"
done
printf '\n'
