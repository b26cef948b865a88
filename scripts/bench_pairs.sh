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
# each side, and per metric the verdicts a comparison rests on, where
# "better" is that metric's `better` field in BENCHMARK.json:
#   A q3-q1          A's quartile distance (Python's exclusive method,
#                    as the benchmark's own `agree` computes it);
#   |dmed|>A q3-q1   whether the medians differ by more than that;
#   B better (of N)  in how many of the N complete pairs B was better;
#   B wins >= 9/10   whether that is at least nine pairs in ten;
#   B worse/bound    how much worse B's median is than A's (negative:
#                    better), and BREACH if that exceeds the metric's
#                    `bound` in BENCHMARK.json, else ok.
# A run that reports no correct result is shown as failed and leaves its
# pair out.
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

# The end-to-end metrics, their directions and bounds, in BENCHMARK.json
# order: the entries of the "end_to_end" list, one object per line.
mapfile -t metrics < <(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit } on' "$spec" \
  | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')
if [[ ${#metrics[@]} -eq 0 ]]; then
  echo "$0: no end_to_end metrics in $spec" >&2
  exit 2
fi
names=() betters=() bounds=()
for m in "${metrics[@]}"; do
  read -r name better bound <<<"$m"
  names+=("$name")
  betters+=("$better")
  bounds+=("$bound")
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

# First and third quartile, by Python's `statistics.quantiles(n=4)`.
quartiles() {
  sort -g | awk '{ v[NR] = $1 } END {
    n = NR
    if (n == 0) { print "nan nan"; exit }
    if (n < 2) { print v[1], v[1]; exit }
    for (i = 1; i <= 3; i += 2) {
      j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      d = i * (n + 1) - j * 4
      q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
    }
    print q[1], q[3] }'
}

n_pairs="$(complete_pairs | wc -l)"
declare -A med
for side in A B; do
  printf '%-16s' "median $side"
  for c in "${!names[@]}"; do
    med[$side$c]="$(column "$side" "$c" | median)"
    printf ' %16.6g' "${med[$side$c]}"
  done
  printf '\n'
done
iqr=() wins=()
for c in "${!names[@]}"; do
  iqr+=("$(column A "$c" | quartiles | awk '{ print $2 - $1 }')")
  wins+=("$(paste -d ' ' <(column A "$c") <(column B "$c") | awk -v better="${betters[$c]}" '
    (better == "higher" && $2 > $1) || (better == "lower" && $2 < $1) { w++ }
    END { print w + 0 }')")
done
# One verdict row: the label, then per metric what `awk` prints from
# "a b iqr wins n better bound" (A's median, B's median, ...).
verdict() {
  printf '%-16s' "$1"
  for c in "${!names[@]}"; do
    printf ' %16s' "$(echo "${med[A$c]} ${med[B$c]} ${iqr[$c]} ${wins[$c]} $n_pairs ${betters[$c]} ${bounds[$c]}" \
      | awk "{ $2 }")"
  done
  printf '\n'
}
verdict "A q3-q1" 'printf "%.6g", $3'
verdict "|dmed|>A q3-q1" 'd = $2 - $1; if (d < 0) d = -d; print (d > $3 ? "yes" : "no")'
verdict "B better (of $n_pairs)" 'print $4'
verdict "B wins >= 9/10" 'print ($5 > 0 && $4 * 10 >= $5 * 9 ? "yes" : "no")'
verdict "B worse/bound" 'w = ($1 == 0) ? 0 : ($6 == "lower" ? ($2 - $1) / $1 : ($1 - $2) / $1)
  printf "%+.1f%%/%g%% %s", w * 100, $7 * 100, (w > $7 ? "BREACH" : "ok")'
