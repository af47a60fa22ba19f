#!/usr/bin/env bash
# End-to-end smoke test for the network service layer: starts a real
# bullfrog_serverd on an ephemeral loopback port, runs the full
# server_e2e_test suite against it over the wire (BF_SERVER_ADDR mode:
# concurrent clients, live lazy migration via MIGRATE, ADMIN progress
# polling, error paths), scrapes the request-tracing surfaces (ADMIN
# slowlog / timeseries, sampled via BF_TRACE_SAMPLE=1), then SIGTERMs
# the daemon and requires a clean exit. A second, durable-mode leg (BF_WAL_FSYNC=1, --data-dir) streams
# single-row INSERTs through the group-commit WAL, kill -9s the daemon
# mid-load, restarts it, and requires every acked insert to survive
# recovery. Run from the repo root with the build directory as $1
# (default: build). Intended for the sanitizer CI legs: any leak or
# race aborts the daemon with a non-zero exit and fails the script.
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/src/server/bullfrog_serverd"
E2E="$BUILD_DIR/tests/server_e2e_test"
SHELL_BIN="$BUILD_DIR/examples/bullfrog_shell"
LOG="$(mktemp /tmp/bullfrog_serverd.XXXXXX.log)"

[[ -x $SERVERD ]] || { echo "missing $SERVERD (build first)"; exit 1; }
[[ -x $E2E ]] || { echo "missing $E2E (build first)"; exit 1; }
[[ -x $SHELL_BIN ]] || { echo "missing $SHELL_BIN (build first)"; exit 1; }

# Plenty of workers: the e2e suite opens many concurrent sessions.
# Trace every statement server-side (the e2e clients send unflagged,
# pre-tracing frames) so the slowlog/timeseries scrapes below have data.
BF_TRACE_SAMPLE=1 BF_TIMESERIES_MS=50 \
  "$SERVERD" --port=0 --workers=16 >"$LOG" 2>&1 &
SERVER_PID=$!
cleanup() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  cat "$LOG"
}
trap cleanup EXIT

# Parse "bullfrog_serverd listening on HOST:PORT" (printed once ready).
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$LOG")
  [[ -n $ADDR ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "serverd died on startup"; exit 1; }
  sleep 0.1
done
[[ -n $ADDR ]] || { echo "serverd never reported its port"; exit 1; }
echo "serverd up at $ADDR (pid $SERVER_PID)"

BF_SERVER_ADDR="$ADDR" "$E2E"

# ADMIN metrics scrape: after the e2e traffic the Prometheus exposition
# must cover every layer (server opcodes, txn counts, migration units).
METRICS=$(echo ".metrics" | "$SHELL_BIN" --connect "$ADDR" 2>&1 |
  sed -e '1d' -e 's/^bullfrog> //')
for fam in \
  bullfrog_server_requests_total \
  'bullfrog_server_request_seconds_count{opcode="query"}' \
  bullfrog_txn_commits \
  'bullfrog_migration_units_migrated{mode="lazy"}' \
  bullfrog_lock_wait_seconds_count; do
  if ! grep -qF "$fam" <<<"$METRICS"; then
    echo "ADMIN metrics scrape missing '$fam':"
    echo "$METRICS"
    exit 1
  fi
done
echo "ADMIN metrics scrape OK"

# Tracing surfaces: with BF_TRACE_SAMPLE=1 every e2e statement was
# traced, so the slowlog must hold span breakdowns with trace ids, and
# the timeseries sampler must have banked counter snapshots. (The e2e
# suite drives live migrations, so the slowest entries carry real
# lock/migration stages.)
SLOWLOG=$(echo ".slowlog" | "$SHELL_BIN" --connect "$ADDR" 2>&1 |
  sed -e '1d' -e 's/^bullfrog> //')
for want in "total=" "id=0x" "ms"; do
  if ! grep -qF "$want" <<<"$SLOWLOG"; then
    echo "ADMIN slowlog scrape missing '$want':"
    echo "$SLOWLOG"
    exit 1
  fi
done
if grep -qF "slowlog empty" <<<"$SLOWLOG"; then
  echo "ADMIN slowlog empty despite BF_TRACE_SAMPLE=1:"
  echo "$SLOWLOG"
  exit 1
fi
echo "ADMIN slowlog scrape OK ($(grep -c 'id=0x' <<<"$SLOWLOG") entries)"

TIMESERIES=$(echo ".timeseries" | "$SHELL_BIN" --connect "$ADDR" 2>&1 |
  sed -e '1d' -e 's/^bullfrog> //')
for want in "# timeseries interval_ms=" "t_ms"; do
  if ! grep -qF "$want" <<<"$TIMESERIES"; then
    echo "ADMIN timeseries scrape missing '$want':"
    echo "$TIMESERIES"
    exit 1
  fi
done
# Header + column line + at least one data row.
TS_ROWS=$(grep -cE '^[0-9]+' <<<"$TIMESERIES" || true)
if [[ $TS_ROWS -lt 1 ]]; then
  echo "ADMIN timeseries has no data rows:"
  echo "$TIMESERIES"
  exit 1
fi
echo "ADMIN timeseries scrape OK ($TS_ROWS rows)"

# Graceful shutdown must drain and exit 0 (sanitizers report on exit).
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
trap - EXIT
cat "$LOG"
if [[ $STATUS -ne 0 ]]; then
  echo "serverd exited non-zero ($STATUS)"
  exit "$STATUS"
fi

# ---- Durable-mode kill -9 mid-load leg (BF_WAL_FSYNC=1) ----
# The group-commit contract under crash: every INSERT the client saw
# acked ("(1 affected)") was fsynced before the ack, so a kill -9 in the
# middle of the load must never lose an acked row after restart.
DATA_DIR=$(mktemp -d /tmp/bullfrog_smoke_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_durable_smoke.XXXXXX.log)
ACKS=$(mktemp /tmp/bullfrog_smoke_acks.XXXXXX.txt)
DURABLE_PID=""
cleanup_durable() {
  [[ -n $DURABLE_PID ]] && kill -9 "$DURABLE_PID" 2>/dev/null || true
  echo "--- durable log ---"; cat "$DLOG"
}
trap cleanup_durable EXIT

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --data-dir="$DATA_DIR" \
  >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=""
for _ in $(seq 1 100); do
  DADDR=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$DLOG")
  [[ -n $DADDR ]] && break
  kill -0 "$DURABLE_PID" 2>/dev/null || { echo "durable serverd died on startup"; exit 1; }
  sleep 0.1
done
[[ -n $DADDR ]] || { echo "durable serverd never reported its port"; exit 1; }
echo "durable serverd up at $DADDR (data dir $DATA_DIR)"

echo "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" |
  "$SHELL_BIN" --connect "$DADDR" >/dev/null 2>&1

# Stream sequential single-row INSERTs; each "(1 affected)" the shell
# prints is a durably acked commit. The shell flushes stdout before it
# reads each statement (no stdbuf: its LD_PRELOAD breaks ASan builds), so
# we can watch the ack count live and pull the plug mid-stream.
( for i in $(seq 1 2000); do echo "INSERT INTO crashy VALUES ($i, $i);"; done ) |
  "$SHELL_BIN" --connect "$DADDR" >"$ACKS" 2>&1 &
LOADER_PID=$!
for _ in $(seq 1 600); do
  A=$(grep -c "(1 affected)" "$ACKS" || true)
  [[ $A -ge 200 ]] && break
  kill -0 "$LOADER_PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$DURABLE_PID"
DURABLE_PID=""
wait "$LOADER_PID" 2>/dev/null || true
ACKED=$(grep -c "(1 affected)" "$ACKS" || true)
echo "acked before kill -9: $ACKED inserts"
[[ $ACKED -gt 0 ]] || { echo "no insert was acked before the kill"; exit 1; }
[[ $ACKED -lt 2000 ]] || echo "note: loader finished before the kill landed"

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --data-dir="$DATA_DIR" \
  >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=""
for _ in $(seq 1 100); do
  DADDR=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$DLOG")
  [[ -n $DADDR ]] && break
  kill -0 "$DURABLE_PID" 2>/dev/null || { echo "durable serverd died on restart"; exit 1; }
  sleep 0.1
done
[[ -n $DADDR ]] || { echo "restarted serverd never reported its port"; exit 1; }

# Strip the banner (it carries the port number) before digging out the
# count; the count is the largest number left in the result set.
RECOVERED=$(echo "SELECT COUNT(*) AS n FROM crashy;" |
  "$SHELL_BIN" --connect "$DADDR" 2>&1 | sed -e '1d' -e 's/^bullfrog> //' |
  grep -oE '[0-9]+' | sort -n | tail -1)
echo "recovered after restart: ${RECOVERED:-0} rows"
if [[ -z ${RECOVERED:-} || $RECOVERED -lt $ACKED ]]; then
  echo "durable recovery lost acked commits (acked=$ACKED recovered=${RECOVERED:-0})"
  exit 1
fi
# Upper bound too: the loader is sequential, so at most one insert can be
# in flight (committed but its ack lost to the kill). More than acked+1
# recovered rows would mean phantom commits the client never issued.
if [[ $RECOVERED -gt $((ACKED + 1)) ]]; then
  echo "durable recovery has extra rows (acked=$ACKED recovered=$RECOVERED)"
  exit 1
fi

kill -TERM "$DURABLE_PID"
STATUS=0
wait "$DURABLE_PID" || STATUS=$?
DURABLE_PID=""
if [[ $STATUS -ne 0 ]]; then
  echo "durable serverd exited non-zero ($STATUS)"
  exit "$STATUS"
fi
trap - EXIT
rm -rf "$DATA_DIR"
echo "durable kill -9 recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "server smoke OK"
