#!/usr/bin/env bash
# End-to-end serving-layer crash recovery: start asketchd with a
# snapshot prefix, ingest over TCP, cut an explicit snapshot (recording
# its digest), kill -9 the server while a second ingest is in flight,
# restart with --recover, and require the recovered state digest — both
# the one printed at startup and the one probed over the wire — to be
# bit-identical to the recorded snapshot digest. Everything ingested
# after the snapshot must be gone: durability is exactly the snapshot,
# no more and no less.
#
# The flow runs three times. `--ingest-mode queue` and
# `--ingest-mode delta` select the same ingest path; the delta run
# guards that the flag still parses, because perfbench/e2e.cc passes
# it. The third run samples the tail (--sample-rate 0.25): the sampler
# is ingest policy, not synopsis state, so a sampled server's snapshot
# must recover just as bit-identically.
#
# usage: asketchd_recovery_smoke.sh <build_dir>
set -u

BUILD_DIR=${1:?usage: asketchd_recovery_smoke.sh <build_dir>}
ASKETCHD="$BUILD_DIR/tools/asketchd"
LOADGEN="$BUILD_DIR/tools/asketch_loadgen"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/asketchd_smoke.XXXXXX")
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$ASKETCHD" ] || fail "missing $ASKETCHD"
[ -x "$LOADGEN" ] || fail "missing $LOADGEN"

# Starts asketchd with stdout to $1 and waits for the listening line;
# sets SERVER_PID and PORT.
start_server() {
  local log=$1; shift
  "$ASKETCHD" "${DAEMON_FLAGS[@]}" "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if grep -q 'asketchd listening on 127.0.0.1:' "$log"; then
      PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
      return 0
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died: $(cat "$log")"
    sleep 0.1
  done
  fail "server never started listening: $(cat "$log")"
}

# run_smoke <ingest_mode> [sample_rate]
run_smoke() {
  local ingest_mode=$1
  local sample_rate=${2:-1.0}
  local dir="$WORK/$ingest_mode-$sample_rate"
  mkdir -p "$dir"
  PREFIX="$dir/ckpt/serve"
  DAEMON_FLAGS=(--port 0 --shards 4 --bytes 32768 --prefix "$PREFIX"
                --ingest-mode "$ingest_mode" --sample-rate "$sample_rate")
  echo "--- ingest-mode: $ingest_mode, sample-rate: $sample_rate ---"

  start_server "$dir/server1.log"
  echo "server up on port $PORT (pid $SERVER_PID)"

  "$LOADGEN" --port "$PORT" --tuples 200000 --keys 20000 --seed 5 \
    >"$dir/load1.log" 2>&1 || fail "initial load: $(cat "$dir/load1.log")"

  "$LOADGEN" --port "$PORT" --snapshot >"$dir/snap.log" 2>&1 \
    || fail "snapshot: $(cat "$dir/snap.log")"
  SAVED=$(sed -n 's/^snapshot \(.*\)$/\1/p' "$dir/snap.log")
  [ -n "$SAVED" ] || fail "no snapshot line in: $(cat "$dir/snap.log")"
  echo "recorded snapshot: $SAVED"

  # Second ingest, killed mid-flight. The loadgen is expected to die
  # with a connection error once the server is gone — ignore its status.
  "$LOADGEN" --port "$PORT" --tuples 8000000 --keys 20000 --seed 6 \
    >"$dir/load2.log" 2>&1 &
  LOAD_PID=$!
  sleep 0.3
  kill -9 "$SERVER_PID" 2>/dev/null || fail "server already gone before kill"
  wait "$SERVER_PID" 2>/dev/null
  [ $? -eq 137 ] || fail "expected SIGKILL exit 137"
  SERVER_PID=""
  wait "$LOAD_PID" 2>/dev/null
  echo "killed server mid-ingest"

  start_server "$dir/server2.log" --recover
  RECOVERED=$(sed -n 's/^recovered \(.*\)$/\1/p' "$dir/server2.log")
  [ -n "$RECOVERED" ] || fail "no recovered line in: $(cat "$dir/server2.log")"
  echo "startup reports: $RECOVERED"
  [ "$RECOVERED" = "$SAVED" ] \
    || fail "recovered state differs from snapshot: '$RECOVERED' vs '$SAVED'"

  "$LOADGEN" --port "$PORT" --probe >"$dir/probe.log" 2>&1 \
    || fail "probe: $(cat "$dir/probe.log")"
  PROBED=$(sed -n 's/^digest \(.*\)$/\1/p' "$dir/probe.log")
  [ "$PROBED" = "$SAVED" ] \
    || fail "wire digest differs from snapshot: '$PROBED' vs '$SAVED'"

  kill "$SERVER_PID" 2>/dev/null
  wait "$SERVER_PID" 2>/dev/null
  SERVER_PID=""
}

run_smoke queue
run_smoke delta
run_smoke queue 0.25

echo "PASS: recovered serving state is bit-identical to the snapshot (both --ingest-mode values, sampled run)"
