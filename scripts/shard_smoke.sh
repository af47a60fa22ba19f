#!/usr/bin/env bash
# End-to-end smoke test for the shared-nothing sharded daemon
# (bullfrog_serverd --shards=N): boots 4 shards, routes DML through the
# wire protocol, drives a cross-shard lazy migration and scrapes ADMIN
# "shards" plus the tracing surfaces (ADMIN slowlog / timeseries, via
# BF_TRACE_SAMPLE=1) mid-drain (per-shard progress must aggregate and
# converge to 1.0), requires a clean SIGTERM exit, then runs a durable leg
# (BF_WAL_FSYNC=1, --data-dir): kill -9 mid-load, restart, and every
# shard's WAL segment must recover — acked <= recovered <= acked+1.
# Run from the repo root with the build directory as $1 (default:
# build). Intended for the sanitizer CI legs.
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/src/server/bullfrog_serverd"
SHELL_BIN="$BUILD_DIR/examples/bullfrog_shell"
SHARDS=4
LOG="$(mktemp /tmp/bullfrog_shardd.XXXXXX.log)"

[[ -x $SERVERD ]] || { echo "missing $SERVERD (build first)"; exit 1; }
[[ -x $SHELL_BIN ]] || { echo "missing $SHELL_BIN (build first)"; exit 1; }

run_sql() {  # run_sql ADDR "sql..." — echoes the shell's output sans banner
  "$SHELL_BIN" --connect "$1" <<<"$2" 2>&1 | sed -e '1d' -e 's/^bullfrog> //'
}

wait_addr() {  # wait_addr LOGFILE PID -> prints HOST:PORT
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$1")
    [[ -n $addr ]] && { echo "$addr"; return 0; }
    kill -0 "$2" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

# Trace every statement server-side (the shell sends unflagged frames)
# so the mid-migration slowlog/timeseries scrapes below have data.
BF_TRACE_SAMPLE=1 BF_TIMESERIES_MS=50 \
  "$SERVERD" --port=0 --workers=8 --shards=$SHARDS >"$LOG" 2>&1 &
SERVER_PID=$!
cleanup() {
  kill -9 "$SERVER_PID" 2>/dev/null || true
  cat "$LOG"
}
trap cleanup EXIT

ADDR=$(wait_addr "$LOG" "$SERVER_PID") ||
  { echo "sharded serverd never reported its port"; exit 1; }
grep -q "^shards=$SHARDS$" "$LOG" ||
  { echo "daemon did not report shards=$SHARDS"; exit 1; }
echo "sharded serverd up at $ADDR ($SHARDS shards, pid $SERVER_PID)"

# Routed DML: the rows must split across shards and come back merged.
run_sql "$ADDR" "CREATE TABLE kv (id INT PRIMARY KEY, val INT);" >/dev/null
(
  echo -n ""
  for i in $(seq 0 199); do echo "INSERT INTO kv VALUES ($i, $((i * 10)));"; done
) | "$SHELL_BIN" --connect "$ADDR" >/dev/null 2>&1

AGG=$(run_sql "$ADDR" "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a FROM kv;")
grep -q "200" <<<"$AGG" || { echo "bad cross-shard COUNT: $AGG"; exit 1; }
grep -q "199000" <<<"$AGG" || { echo "bad cross-shard SUM: $AGG"; exit 1; }
grep -q "995" <<<"$AGG" || { echo "bad cross-shard AVG: $AGG"; exit 1; }
POINT=$(run_sql "$ADDR" "SELECT val FROM kv WHERE id = 42;")
grep -q "420" <<<"$POINT" || { echo "bad routed point read: $POINT"; exit 1; }
echo "router OK (split insert, point read, merged aggregates)"

# ADMIN "shards" before any migration: idle coordinator, one line per shard.
SHARDS_IDLE=$("$SHELL_BIN" --connect "$ADDR" <<<".admin shards" 2>&1)
grep -q "state=idle" <<<"$SHARDS_IDLE" ||
  { echo "ADMIN shards missing idle state: $SHARDS_IDLE"; exit 1; }
[[ $(grep -c "shard [0-9]:" <<<"$SHARDS_IDLE") -eq $SHARDS ]] ||
  { echo "ADMIN shards missing per-shard lines: $SHARDS_IDLE"; exit 1; }

# A submit whose output name is taken on every shard (CREATE TABLE
# broadcasts) must fail before any shard switches: the error comes back,
# the coordinator stays idle and the report carries each shard's reason.
run_sql "$ADDR" "CREATE TABLE kv_taken (id INT PRIMARY KEY);" >/dev/null
COLLIDE=$(printf '.migrate\nCREATE TABLE kv_fresh PRIMARY KEY (id) AS SELECT id FROM kv;\nCREATE TABLE kv_taken PRIMARY KEY (id) AS SELECT id, val FROM kv;\nDROP TABLE kv;\n.go\n.quit\n' |
  "$SHELL_BIN" --connect "$ADDR" 2>&1)
grep -q "already exists" <<<"$COLLIDE" ||
  { echo "colliding MIGRATE did not fail: $COLLIDE"; exit 1; }
FAILED=$("$SHELL_BIN" --connect "$ADDR" <<<".admin shards" 2>&1)
grep -q "state=idle" <<<"$FAILED" ||
  { echo "ADMIN shards not idle after a failed MIGRATE: $FAILED"; exit 1; }
[[ $(grep -c "last_failure=.*already exists" <<<"$FAILED") -eq $SHARDS ]] ||
  { echo "ADMIN shards missing the failure reasons: $FAILED"; exit 1; }
NOFRESH=$(run_sql "$ADDR" "SELECT COUNT(*) AS n FROM kv_fresh;")
grep -qi "error" <<<"$NOFRESH" ||
  { echo "failed MIGRATE left kv_fresh visible: $NOFRESH"; exit 1; }
echo "colliding MIGRATE rejected with no trace"

# Cross-shard lazy migration via the MIGRATE opcode, scraped mid-drain.
printf '.migrate\nCREATE TABLE kv2 PRIMARY KEY (id) AS SELECT id, val, val + val AS dbl FROM kv;\nDROP TABLE kv;\n.go\n.quit\n' |
  "$SHELL_BIN" --connect "$ADDR" 2>&1 | grep -q "migration live" ||
  { echo "MIGRATE submit failed"; exit 1; }

MID=$("$SHELL_BIN" --connect "$ADDR" <<<".admin shards" 2>&1)
grep -Eq "state=(draining|complete)" <<<"$MID" ||
  { echo "ADMIN shards not draining after MIGRATE: $MID"; exit 1; }
echo "mid-migration ADMIN shards scrape:"
echo "$MID" | grep -E "coordinated|shard [0-9]:" || true

# Lazy reads against the new schema work while the shards drain.
MIG_READ=$(run_sql "$ADDR" "SELECT dbl FROM kv2 WHERE id = 42;")
grep -q "840" <<<"$MIG_READ" || { echo "bad mid-migration read: $MIG_READ"; exit 1; }
# Touch more cold keys (one per shard, roughly): each first-touch read
# pulls its granule and lands a migrate_pull-attributed trace.
for id in 7 99 150 183; do
  run_sql "$ADDR" "SELECT dbl FROM kv2 WHERE id = $id;" >/dev/null
done

# Mid-migration tracing scrapes: every statement above was traced
# (BF_TRACE_SAMPLE=1), so the slowlog must show span breakdowns — the
# migrated reads carry migrate_pull attribution — and the timeseries
# ring must already hold snapshots (top-level sampler: the aggregate
# migration_progress / units_migrated counters span all shards).
SLOWLOG=$(run_sql "$ADDR" ".slowlog")
for want in "total=" "id=0x"; do
  if ! grep -qF "$want" <<<"$SLOWLOG"; then
    echo "mid-migration ADMIN slowlog missing '$want':"
    echo "$SLOWLOG"
    exit 1
  fi
done
if ! grep -qF "migrate_pull" <<<"$SLOWLOG"; then
  echo "mid-migration ADMIN slowlog has no migrate_pull attribution:"
  echo "$SLOWLOG"
  exit 1
fi
echo "mid-migration ADMIN slowlog OK ($(grep -c 'id=0x' <<<"$SLOWLOG") entries)"

TIMESERIES=$(run_sql "$ADDR" ".timeseries")
for want in "# timeseries interval_ms=" "t_ms" "migration_progress"; do
  if ! grep -qF "$want" <<<"$TIMESERIES"; then
    echo "mid-migration ADMIN timeseries missing '$want':"
    echo "$TIMESERIES"
    exit 1
  fi
done
TS_ROWS=$(grep -cE '^[0-9]+' <<<"$TIMESERIES" || true)
if [[ $TS_ROWS -lt 1 ]]; then
  echo "mid-migration ADMIN timeseries has no data rows:"
  echo "$TIMESERIES"
  exit 1
fi
echo "mid-migration ADMIN timeseries OK ($TS_ROWS rows)"

# The coordinator must converge: progress 1.0 and every shard complete.
DONE=""
for _ in $(seq 1 200); do
  REPORT=$("$SHELL_BIN" --connect "$ADDR" <<<".admin shards" 2>&1)
  if grep -q "state=complete" <<<"$REPORT"; then DONE=1; break; fi
  sleep 0.1
done
[[ -n $DONE ]] || { echo "coordinated migration never converged: $REPORT"; exit 1; }
[[ $(grep -c "complete=1" <<<"$REPORT") -eq $SHARDS ]] ||
  { echo "not all shards report complete: $REPORT"; exit 1; }
grep -q "progress=1" <<<"$REPORT" ||
  { echo "aggregate progress != 1: $REPORT"; exit 1; }
# Per-shard units must sum to the reported total.
TOTAL=$(sed -n 's/.*units_total=\([0-9]*\).*/\1/p' <<<"$REPORT")
SUM=$(grep -oE "units=[0-9]+" <<<"$REPORT" | cut -d= -f2 |
  awk '{s += $1} END {print s + 0}')
[[ -n $TOTAL && "$TOTAL" -eq "$SUM" ]] ||
  { echo "per-shard units ($SUM) != units_total ($TOTAL): $REPORT"; exit 1; }
[[ $TOTAL -gt 0 ]] || { echo "migration migrated zero units"; exit 1; }
echo "coordinated migration converged (units_total=$TOTAL across $SHARDS shards)"

# Merged ADMIN metrics: the scrape must carry every shard's section.
METRICS=$("$SHELL_BIN" --connect "$ADDR" <<<".metrics" 2>&1)
for i in $(seq 0 $((SHARDS - 1))); do
  grep -q "# shard $i" <<<"$METRICS" ||
    { echo "ADMIN metrics missing shard $i section"; exit 1; }
done
grep -q "bullfrog_server_requests_total" <<<"$METRICS" ||
  { echo "ADMIN metrics missing server families"; exit 1; }
echo "merged ADMIN metrics OK"

# Graceful shutdown must drain and exit 0 (sanitizers report on exit).
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
trap - EXIT
if [[ $STATUS -ne 0 ]]; then
  cat "$LOG"
  echo "sharded serverd exited non-zero ($STATUS)"
  exit "$STATUS"
fi

# ---- Durable kill -9 leg: per-shard WAL segments (BF_WAL_FSYNC=1) ----
DATA_DIR=$(mktemp -d /tmp/bullfrog_shard_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_shard_durable.XXXXXX.log)
ACKS=$(mktemp /tmp/bullfrog_shard_acks.XXXXXX.txt)
DURABLE_PID=""
cleanup_durable() {
  [[ -n $DURABLE_PID ]] && kill -9 "$DURABLE_PID" 2>/dev/null || true
  echo "--- durable log ---"; cat "$DLOG"
}
trap cleanup_durable EXIT

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --shards=$SHARDS \
  --data-dir="$DATA_DIR" >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=$(wait_addr "$DLOG" "$DURABLE_PID") ||
  { echo "durable sharded serverd died on startup"; exit 1; }
echo "durable sharded serverd up at $DADDR (data dir $DATA_DIR)"

run_sql "$DADDR" "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" >/dev/null

# Sequential single-row INSERTs: every "(1 affected)" is a durably acked
# commit on some shard's WAL. Pull the plug mid-stream.
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

# Every shard must have its own WAL segment directory, plus the shard
# count identity file.
[[ -f $DATA_DIR/shards.meta ]] || { echo "missing shards.meta"; exit 1; }
for i in $(seq 0 $((SHARDS - 1))); do
  [[ -d $DATA_DIR/shard-$i ]] || { echo "missing shard-$i WAL dir"; exit 1; }
done

# Restarting with a different shard count must be refused (resharding
# would silently re-home keys).
if BF_WAL_FSYNC=1 "$SERVERD" --port=0 --shards=2 --data-dir="$DATA_DIR" \
  >/dev/null 2>&1; then
  echo "reshard open unexpectedly succeeded"; exit 1
fi

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --shards=$SHARDS \
  --data-dir="$DATA_DIR" >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=$(wait_addr "$DLOG" "$DURABLE_PID") ||
  { echo "durable sharded serverd died on restart"; exit 1; }

RECOVERED=$(run_sql "$DADDR" "SELECT COUNT(*) AS n FROM crashy;" |
  grep -oE '[0-9]+' | sort -n | tail -1)
echo "recovered after restart: ${RECOVERED:-0} rows"
if [[ -z ${RECOVERED:-} || $RECOVERED -lt $ACKED ]]; then
  echo "sharded recovery lost acked commits (acked=$ACKED recovered=${RECOVERED:-0})"
  exit 1
fi
# Sequential loader: at most one insert in flight when the plug pulled.
if [[ $RECOVERED -gt $((ACKED + 1)) ]]; then
  echo "sharded recovery has extra rows (acked=$ACKED recovered=$RECOVERED)"
  exit 1
fi

kill -TERM "$DURABLE_PID"
STATUS=0
wait "$DURABLE_PID" || STATUS=$?
DURABLE_PID=""
if [[ $STATUS -ne 0 ]]; then
  cat "$DLOG"
  echo "durable sharded serverd exited non-zero ($STATUS)"
  exit "$STATUS"
fi
trap - EXIT
rm -rf "$DATA_DIR"
echo "sharded durable kill -9 recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "shard smoke OK"
