#!/usr/bin/env bash
# The deployable binaries end to end. Three release `gcs-node`s run on
# free loopback ports, and `gcs-client --ops 300000 --window 256` loads
# node 0. Node 0's status line must then read `missed 0` (its b/d
# monitors saw every event of the run) and `violations 0`. Then node 2
# is killed with SIGKILL and started again: within 10 s it must report a
# view of all three nodes newer than the initial one, i.e. the survivors
# took the new incarnation's connections and merged with it. Every
# process the script started is killed when it exits. Run it after
# `cargo build --release`:
#
#   bash scripts/node_e2e.sh
set -euo pipefail
cd "$(dirname "$0")/.."
bin=./target/release
ops=300000
logs="$(mktemp -d)"
pids=()
node=()

cleanup() {
  local status=$?
  for pid in "${pids[@]}"; do
    kill -9 "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if (( status != 0 )); then
    for log in "$logs"/*.log; do
      echo "--- $log (last 5 lines)" >&2
      tail -n 5 "$log" >&2
    done
  fi
  rm -rf "$logs"
}
trap cleanup EXIT

# Ports below Linux's ephemeral range that nothing answers on.
ports=()
while (( ${#ports[@]} < 3 )); do
  p=$(( 20000 + RANDOM % 12000 ))
  if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null && [[ " ${ports[*]} " != *" $p "* ]]; then
    ports+=("$p")
  fi
done
peers="127.0.0.1:${ports[0]},127.0.0.1:${ports[1]},127.0.0.1:${ports[2]}"

# start_node ID LOG: starts node ID writing to LOG and waits until it
# listens.
start_node() {
  "$bin/gcs-node" --id "$1" --peers "$peers" > "$2" 2>&1 &
  node[$1]=$!
  pids+=($!)
  for _ in $(seq 100); do
    grep -q 'listening on' "$2" && return 0
    sleep 0.05
  done
  echo "node $1 did not start" >&2
  return 1
}

# status_lines LOG: how many status lines LOG holds.
status_lines() { grep -c ' | view ' "$1" || true; }

for i in 0 1 2; do
  start_node "$i" "$logs/node$i.log"
done

"$bin/gcs-client" --addr "127.0.0.1:${ports[0]}" --ops "$ops" --window 256 > "$logs/client.log"
tail -n 2 "$logs/client.log"

# The first status line that counts every delivery can still precede
# the monitors' last read of the run; the one after it cannot.
for _ in $(seq 150); do
  grep -q "delivered $ops |" "$logs/node0.log" && break
  sleep 0.1
done
seen="$(status_lines "$logs/node0.log")"
for _ in $(seq 50); do
  (( $(status_lines "$logs/node0.log") > seen )) && break
  sleep 0.1
done
status="$(grep ' | view ' "$logs/node0.log" | tail -n 1)"
echo "$status"
if [[ "$status" != *"delivered $ops |"* || "$status" != *" missed 0 "* || "$status" != *" violations 0" ]]; then
  echo "node 0 must have delivered $ops with missed 0 and violations 0" >&2
  exit 1
fi

kill -9 "${node[2]}"
wait "${node[2]}" 2>/dev/null || true
start_node 2 "$logs/node2-restarted.log"
# Epoch 0 is the initial view a fresh node starts in.
merged='view ⟨g[1-9][0-9]*\.[0-9]+, \{p0,p1,p2\}⟩'
for _ in $(seq 100); do
  if grep -qE "$merged" "$logs/node2-restarted.log"; then
    grep -E "$merged" "$logs/node2-restarted.log" | head -n 1
    exit 0
  fi
  sleep 0.1
done
echo "the restarted node 2 reported no three-node view within 10 s" >&2
exit 1
