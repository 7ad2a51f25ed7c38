#!/usr/bin/env bash
# End-to-end network fault-tolerance smoke: drive a resilient loadgen at
# asketchd THROUGH asketch_chaosproxy (seeded delays + one mid-stream
# RST), then kill -9 the server mid-load and restart it with --recover.
# The client must ride out every fault — reconnect through the proxy,
# replay its unacked UPDATE batches from the last cumulative ack — and
# the final over-the-wire estimates must stay one-sided versus the exact
# per-key counts of the full stream (loadgen --verify).
#
# The pause file closes the ack-horizon/checkpoint race that would
# otherwise make the one-sided assertion flaky: while it exists the
# proxy forwards nothing, so the client's ack horizon freezes at a point
# the server has already ingested; the SIGUSR1 checkpoint cut after the
# pause therefore covers every acked tuple, and everything newer is
# still in the client's replay buffer. Acked-and-checkpointed batches
# that get replayed anyway only over-count — which one-sided estimates
# tolerate by construction (docs/PROTOCOL.md "Ack-based UPDATE replay").
#
# The fault schedule is fully determined by the chaosproxy flags +
# --seed, so a failure replays exactly.
#
# usage: asketchd_chaos_smoke.sh <build_dir>
set -u

BUILD_DIR=${1:?usage: asketchd_chaos_smoke.sh <build_dir>}
ASKETCHD="$BUILD_DIR/tools/asketchd"
LOADGEN="$BUILD_DIR/tools/asketch_loadgen"
PROXY="$BUILD_DIR/tools/asketch_chaosproxy"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/asketchd_chaos.XXXXXX")
SERVER_PID=""
PROXY_PID=""
LOAD_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null;
      [ -n "$PROXY_PID" ] && kill -9 "$PROXY_PID" 2>/dev/null;
      [ -n "$LOAD_PID" ] && kill -9 "$LOAD_PID" 2>/dev/null;
      rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$ASKETCHD" ] || fail "missing $ASKETCHD"
[ -x "$LOADGEN" ] || fail "missing $LOADGEN"
[ -x "$PROXY" ] || fail "missing $PROXY"

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

run_smoke() {
  local dir="$WORK/run"
  mkdir -p "$dir"
  PREFIX="$dir/ckpt/serve"
  PAUSE="$dir/pause"
  DAEMON_FLAGS=(--shards 4 --bytes 32768 --prefix "$PREFIX")

  start_server "$dir/server1.log" --port 0
  echo "server up on port $PORT (pid $SERVER_PID)"

  # Seeded chaos: jittered delays throughout, and the first connection
  # is RST mid-stream after 256 KiB — an early forced reconnect+replay
  # before the kill -9 even happens.
  "$PROXY" --upstream-port "$PORT" --listen-port 0 --seed 11 \
    --delay-every 64 --delay-ms 3 --reset-after-bytes 262144 \
    --fault-connections 1 --pause-file "$PAUSE" \
    >"$dir/proxy.log" 2>&1 &
  PROXY_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'chaosproxy listening on 127.0.0.1:' "$dir/proxy.log" && break
    kill -0 "$PROXY_PID" 2>/dev/null || fail "proxy died: $(cat "$dir/proxy.log")"
    sleep 0.1
  done
  PPORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$dir/proxy.log")
  [ -n "$PPORT" ] || fail "no proxy port in: $(cat "$dir/proxy.log")"
  echo "proxy up on port $PPORT (pid $PROXY_PID)"

  # Paced open loop (~12s of wall clock) so the kill lands mid-load.
  # Resilient client: deadlines + retries + reconnect/replay; --verify
  # checks the one-sided bound for the FULL stream at the end.
  "$LOADGEN" --port "$PPORT" --tuples 600000 --keys 20000 --seed 5 \
    --batch 1024 --mode open --rate 50000 \
    --connect-timeout-ms 2000 --io-timeout-ms 2000 \
    --retries 40 --backoff-ms 50 --reconnect --deadline-s 120 \
    --verify >"$dir/load.log" 2>&1 &
  LOAD_PID=$!

  sleep 2
  kill -0 "$LOAD_PID" 2>/dev/null || fail "loadgen finished too early: $(cat "$dir/load.log")"

  # Freeze the proxy (acks stop reaching the client), then cut a
  # checkpoint that is guaranteed to cover every acked tuple.
  touch "$PAUSE"
  sleep 0.3
  kill -USR1 "$SERVER_PID" 2>/dev/null || fail "server gone before checkpoint"
  for _ in $(seq 1 100); do
    grep -q '^checkpoint generation=' "$dir/server1.log" && break
    sleep 0.1
  done
  grep -q '^checkpoint generation=' "$dir/server1.log" \
    || fail "no checkpoint line: $(cat "$dir/server1.log")"
  echo "checkpoint cut under pause"

  kill -9 "$SERVER_PID" 2>/dev/null || fail "server already gone before kill"
  wait "$SERVER_PID" 2>/dev/null
  [ $? -eq 137 ] || fail "expected SIGKILL exit 137"
  SERVER_PID=""
  echo "killed server mid-load"

  start_server "$dir/server2.log" --port "$PORT" --recover
  RECOVERED=$(sed -n 's/^recovered \(.*\)$/\1/p' "$dir/server2.log")
  [ -n "$RECOVERED" ] || fail "no recovered line in: $(cat "$dir/server2.log")"
  echo "restarted with --recover: $RECOVERED"
  rm -f "$PAUSE"

  wait "$LOAD_PID"
  LOAD_STATUS=$?
  LOAD_PID=""
  [ "$LOAD_STATUS" -eq 0 ] \
    || fail "loadgen failed (status $LOAD_STATUS): $(cat "$dir/load.log")"

  grep -q 'one_sided_violations=0' "$dir/load.log" \
    || fail "one-sided verification missing/failed: $(cat "$dir/load.log")"
  RECONNECTS=$(sed -n 's/^resilience reconnects=\([0-9]*\).*/\1/p' \
               "$dir/load.log")
  [ -n "$RECONNECTS" ] || fail "no resilience line: $(cat "$dir/load.log")"
  [ "$RECONNECTS" -ge 1 ] \
    || fail "client never reconnected — the chaos did not bite: $(cat "$dir/load.log")"
  echo "loadgen survived: reconnects=$RECONNECTS, one-sided verified"

  kill "$PROXY_PID" 2>/dev/null
  wait "$PROXY_PID" 2>/dev/null
  PROXY_PID=""
  kill "$SERVER_PID" 2>/dev/null
  wait "$SERVER_PID" 2>/dev/null
  SERVER_PID=""
}

run_smoke

echo "PASS: kill -9 + --recover behind seeded chaos stays one-sided"
