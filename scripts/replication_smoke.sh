#!/usr/bin/env bash
# End-to-end smoke test for the replication subsystem: starts a primary
# bullfrog_serverd on an ephemeral loopback port, bootstraps a replica
# daemon from it (--replica-of), loads data and drives a lazy migration
# on the primary while the replica tails the log, then requires
#   1. the replica rejects writes with the read-only error,
#   2. the replica's ADMIN dump converges to the primary's (byte equal),
#   3. both daemons' ADMIN metrics scrapes expose replication health
#      (apply lag gauge, read-through counter, migration unit counters),
#   4. both daemons exit 0 on SIGTERM.
# A second leg then checks checkpoint-corruption recovery on a durable
# (--data-dir) daemon: write, checkpoint, write more, stop, plant a
# garbage "newest" checkpoint, restart — all rows must survive and the
# daemon must log that it skipped the corrupt checkpoint.
# A third leg runs a durable primary with BF_WAL_FSYNC=1, streams
# single-row INSERTs through the group-commit WAL, kill -9s the primary
# mid-load, restarts it, verifies no acked insert was lost, then
# bootstraps a replica off the recovered primary and requires the dumps
# to converge (the LSN-keyed tail stream resumes cleanly post-crash).
# Run from the repo root with the build directory as $1 (default:
# build). Intended for the sanitizer CI legs: any leak or race aborts a
# daemon with a non-zero exit and fails the script.
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/src/server/bullfrog_serverd"
SHELL_BIN="$BUILD_DIR/examples/bullfrog_shell"
PLOG="$(mktemp /tmp/bullfrog_primary.XXXXXX.log)"
RLOG="$(mktemp /tmp/bullfrog_replica.XXXXXX.log)"

[[ -x $SERVERD ]] || { echo "missing $SERVERD (build first)"; exit 1; }
[[ -x $SHELL_BIN ]] || { echo "missing $SHELL_BIN (build first)"; exit 1; }

PRIMARY_PID=""
REPLICA_PID=""
cleanup() {
  [[ -n $REPLICA_PID ]] && kill -9 "$REPLICA_PID" 2>/dev/null || true
  [[ -n $PRIMARY_PID ]] && kill -9 "$PRIMARY_PID" 2>/dev/null || true
  echo "--- primary log ---"; cat "$PLOG"
  echo "--- replica log ---"; cat "$RLOG"
}
trap cleanup EXIT

# Parse "bullfrog_serverd listening on HOST:PORT" (printed once ready).
wait_addr() { # logfile pid
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^bullfrog_serverd listening on \(.*\)$/\1/p' "$1")
    [[ -n $addr ]] && { echo "$addr"; return 0; }
    kill -0 "$2" 2>/dev/null || { echo "serverd died on startup" >&2; return 1; }
    sleep 0.1
  done
  echo "serverd never reported its port" >&2
  return 1
}

# One-shot shell session: feeds stdin commands, strips the prompt noise
# (banner line and "bullfrog> "/"migrate> " prefixes) so callers can
# grep/diff the payload.
shell_run() { # addr
  "$SHELL_BIN" --connect "$1" 2>&1 |
    sed -e '1d' -e 's/^bullfrog> //' -e 's/^migrate> //'
}

"$SERVERD" --port=0 --workers=8 >"$PLOG" 2>&1 &
PRIMARY_PID=$!
PADDR=$(wait_addr "$PLOG" "$PRIMARY_PID")
echo "primary up at $PADDR (pid $PRIMARY_PID)"

# Seed schema + rows before the replica bootstraps (checkpoint path),
# and leave more to arrive afterwards (tail path).
shell_run "$PADDR" <<'EOF'
CREATE TABLE accounts (id INT PRIMARY KEY, balance INT);
INSERT INTO accounts VALUES (1, 100), (2, 200), (3, 300), (4, 400);
EOF

"$SERVERD" --port=0 --workers=8 --replica-of="$PADDR" >"$RLOG" 2>&1 &
REPLICA_PID=$!
RADDR=$(wait_addr "$RLOG" "$REPLICA_PID")
echo "replica up at $RADDR (pid $REPLICA_PID)"

# Post-bootstrap writes ship over the tail stream.
shell_run "$PADDR" <<'EOF'
INSERT INTO accounts VALUES (5, 500), (6, 600);
UPDATE accounts SET balance = 150 WHERE id = 1;
DELETE FROM accounts WHERE id = 4;
EOF

# Writes against the replica must be rejected with the read-only error.
REJECT=$(echo "INSERT INTO accounts VALUES (99, 9);" | shell_run "$RADDR")
if ! grep -q "read-only replica" <<<"$REJECT"; then
  echo "replica accepted a write (or wrong error): $REJECT"
  exit 1
fi
echo "replica write rejection OK"

# Live lazy migration on the primary while the replica tails it.
shell_run "$PADDR" <<'EOF'
.migrate
CREATE TABLE accounts_v2 PRIMARY KEY (id) AS
  SELECT id, balance, balance * 2 AS doubled FROM accounts;
DROP TABLE accounts;
.go
EOF

# Reads through the replica during the migration must already see the
# new schema (forwarded reads migrate the touched rows on the primary).
# Retry while the MIGRATE record is still in flight on the tail stream.
MID=""
for _ in $(seq 1 100); do
  MID=$(echo "SELECT doubled FROM accounts_v2 WHERE id = 1;" | shell_run "$RADDR")
  grep -q "300" <<<"$MID" && break
  MID=""
  sleep 0.1
done
if [[ -z $MID ]]; then
  echo "replica mid-migration read never saw the new schema"
  exit 1
fi
echo "replica mid-migration read OK"

# Wait out the primary's background migrator.
DONE=""
for _ in $(seq 1 300); do
  if echo ".progress" | shell_run "$PADDR" | grep -q "(complete)"; then
    DONE=1; break
  fi
  sleep 0.1
done
[[ -n $DONE ]] || { echo "migration never completed on primary"; exit 1; }

# Wait for the replica to drain the tail (behind=0 at the final offset).
CAUGHT=""
for _ in $(seq 1 300); do
  if echo ".admin replication" | shell_run "$RADDR" | grep -q "behind=0"; then
    CAUGHT=1; break
  fi
  sleep 0.1
done
[[ -n $CAUGHT ]] || { echo "replica never caught up"; exit 1; }
echo ".admin replication" | shell_run "$RADDR"

# Byte-identical logical state on both sides.
echo ".admin dump" | shell_run "$PADDR" >/tmp/bullfrog_primary_dump.txt
echo ".admin dump" | shell_run "$RADDR" >/tmp/bullfrog_replica_dump.txt
if ! diff -u /tmp/bullfrog_primary_dump.txt /tmp/bullfrog_replica_dump.txt; then
  echo "primary/replica dumps diverged"
  exit 1
fi
grep -q "accounts_v2" /tmp/bullfrog_primary_dump.txt ||
  { echo "dump missing migrated table"; exit 1; }
echo "primary/replica dumps converged"

# ADMIN metrics: the primary scrape carries migration unit counters, the
# replica scrape carries its apply-lag gauge (0 once caught up) and the
# read-through counter bumped by the mid-migration forwarded read above.
PMETRICS=$(echo ".metrics" | shell_run "$PADDR")
grep -qF 'bullfrog_migration_units_migrated{mode="lazy"}' <<<"$PMETRICS" ||
  { echo "primary metrics missing migration unit counters"; echo "$PMETRICS"; exit 1; }
RMETRICS=$(echo ".metrics" | shell_run "$RADDR")
grep -qE '^bullfrog_replica_apply_lag_records 0$' <<<"$RMETRICS" ||
  { echo "replica metrics missing apply-lag gauge at 0"; echo "$RMETRICS"; exit 1; }
grep -qE '^bullfrog_replica_read_through_total ' <<<"$RMETRICS" ||
  { echo "replica metrics missing read-through counter"; echo "$RMETRICS"; exit 1; }
# The forwarded mid-migration read should have bumped it; on a heavily
# loaded (sanitizer) run the migration can complete before the replica's
# first read, so a zero is reported but not fatal.
grep -qE '^bullfrog_replica_read_through_total [1-9]' <<<"$RMETRICS" ||
  echo "note: no read-through round-trips (migration finished early)"
echo "metrics scrapes OK"

# Graceful shutdown must drain and exit 0 (sanitizers report on exit).
kill -TERM "$REPLICA_PID"
STATUS=0
wait "$REPLICA_PID" || STATUS=$?
REPLICA_PID=""
if [[ $STATUS -ne 0 ]]; then
  echo "replica exited non-zero ($STATUS)"
  exit "$STATUS"
fi
kill -TERM "$PRIMARY_PID"
STATUS=0
wait "$PRIMARY_PID" || STATUS=$?
PRIMARY_PID=""
if [[ $STATUS -ne 0 ]]; then
  echo "primary exited non-zero ($STATUS)"
  exit "$STATUS"
fi
trap - EXIT

# ---- Checkpoint-corruption recovery leg (durable daemon) ----
DATA_DIR=$(mktemp -d /tmp/bullfrog_data.XXXXXX)
DLOG=$(mktemp /tmp/bullfrog_durable.XXXXXX.log)
DURABLE_PID=""
cleanup_durable() {
  [[ -n $DURABLE_PID ]] && kill -9 "$DURABLE_PID" 2>/dev/null || true
  echo "--- durable log ---"; cat "$DLOG"
}
trap cleanup_durable EXIT

"$SERVERD" --port=0 --workers=4 --data-dir="$DATA_DIR" >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=$(wait_addr "$DLOG" "$DURABLE_PID")
echo "durable primary up at $DADDR (data dir $DATA_DIR)"

# Rows on both sides of a checkpoint, so recovery needs checkpoint + WAL.
shell_run "$DADDR" <<'EOF'
CREATE TABLE ledger (id INT PRIMARY KEY, v INT);
INSERT INTO ledger VALUES (1, 10), (2, 20), (3, 30);
.admin checkpoint
INSERT INTO ledger VALUES (4, 40), (5, 50), (6, 60);
EOF

kill -TERM "$DURABLE_PID"
STATUS=0
wait "$DURABLE_PID" || STATUS=$?
DURABLE_PID=""
[[ $STATUS -eq 0 ]] || { echo "durable daemon exited non-zero ($STATUS)"; exit "$STATUS"; }

# A torn/garbage "newest" checkpoint: recovery must skip it, fall back
# to the older (valid) one, and still replay the WAL suffix.
echo "this is not a checkpoint" >"$DATA_DIR/ckpt-999999999.bf"

"$SERVERD" --port=0 --workers=4 --data-dir="$DATA_DIR" >"$DLOG" 2>&1 &
DURABLE_PID=$!
DADDR=$(wait_addr "$DLOG" "$DURABLE_PID")

COUNT=$(echo "SELECT COUNT(*) AS n FROM ledger;" | shell_run "$DADDR")
grep -qw 6 <<<"$COUNT" ||
  { echo "rows lost after corrupt-checkpoint recovery: $COUNT"; exit 1; }
grep -q "recovery skipping corrupt checkpoint" "$DLOG" ||
  { echo "daemon did not report skipping the corrupt checkpoint"; exit 1; }
echo "checkpoint-corruption recovery OK"

kill -TERM "$DURABLE_PID"
STATUS=0
wait "$DURABLE_PID" || STATUS=$?
DURABLE_PID=""
[[ $STATUS -eq 0 ]] || { echo "durable daemon exited non-zero ($STATUS)"; exit "$STATUS"; }
trap - EXIT
rm -rf "$DATA_DIR"

# ---- Durable kill -9 mid-load + replica-of-recovered-primary leg ----
CRASH_DIR=$(mktemp -d /tmp/bullfrog_crash_data.XXXXXX)
CLOG=$(mktemp /tmp/bullfrog_crash.XXXXXX.log)
CRLOG=$(mktemp /tmp/bullfrog_crash_replica.XXXXXX.log)
ACKS=$(mktemp /tmp/bullfrog_crash_acks.XXXXXX.txt)
CRASH_PID=""
CREPL_PID=""
cleanup_crash() {
  [[ -n $CREPL_PID ]] && kill -9 "$CREPL_PID" 2>/dev/null || true
  [[ -n $CRASH_PID ]] && kill -9 "$CRASH_PID" 2>/dev/null || true
  echo "--- crash-leg primary log ---"; cat "$CLOG"
  echo "--- crash-leg replica log ---"; cat "$CRLOG"
}
trap cleanup_crash EXIT

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --data-dir="$CRASH_DIR" \
  >"$CLOG" 2>&1 &
CRASH_PID=$!
CADDR=$(wait_addr "$CLOG" "$CRASH_PID")
echo "crash-leg primary up at $CADDR (data dir $CRASH_DIR)"

echo "CREATE TABLE crashy (id INT PRIMARY KEY, v INT);" |
  shell_run "$CADDR" >/dev/null

# Stream acked single-row INSERTs through the group-commit WAL, then
# pull the plug mid-load: every "(1 affected)" was fsynced pre-ack.
( for i in $(seq 1 2000); do echo "INSERT INTO crashy VALUES ($i, $i);"; done ) |
  stdbuf -oL "$SHELL_BIN" --connect "$CADDR" >"$ACKS" 2>&1 &
LOADER_PID=$!
for _ in $(seq 1 600); do
  A=$(grep -c "(1 affected)" "$ACKS" || true)
  [[ $A -ge 200 ]] && break
  kill -0 "$LOADER_PID" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$CRASH_PID"
CRASH_PID=""
wait "$LOADER_PID" 2>/dev/null || true
ACKED=$(grep -c "(1 affected)" "$ACKS" || true)
echo "acked before kill -9: $ACKED inserts"
[[ $ACKED -gt 0 ]] || { echo "no insert was acked before the kill"; exit 1; }
[[ $ACKED -lt 2000 ]] || echo "note: loader finished before the kill landed"

BF_WAL_FSYNC=1 "$SERVERD" --port=0 --workers=8 --data-dir="$CRASH_DIR" \
  >"$CLOG" 2>&1 &
CRASH_PID=$!
CADDR=$(wait_addr "$CLOG" "$CRASH_PID")

RECOVERED=$(echo "SELECT COUNT(*) AS n FROM crashy;" | shell_run "$CADDR" |
  grep -oE '[0-9]+' | sort -n | tail -1)
echo "recovered after restart: ${RECOVERED:-0} rows"
if [[ -z ${RECOVERED:-} || $RECOVERED -lt $ACKED ]]; then
  echo "durable recovery lost acked commits (acked=$ACKED recovered=${RECOVERED:-0})"
  exit 1
fi

# A replica bootstrapped off the recovered primary must converge: the
# LSN-keyed tail stream starts from the recovered log cleanly.
"$SERVERD" --port=0 --workers=8 --replica-of="$CADDR" >"$CRLOG" 2>&1 &
CREPL_PID=$!
CRADDR=$(wait_addr "$CRLOG" "$CREPL_PID")
CAUGHT=""
for _ in $(seq 1 300); do
  if echo ".admin replication" | shell_run "$CRADDR" | grep -q "behind=0"; then
    CAUGHT=1; break
  fi
  sleep 0.1
done
[[ -n $CAUGHT ]] || { echo "post-crash replica never caught up"; exit 1; }
echo ".admin dump" | shell_run "$CADDR" >/tmp/bullfrog_crash_primary_dump.txt
echo ".admin dump" | shell_run "$CRADDR" >/tmp/bullfrog_crash_replica_dump.txt
diff -u /tmp/bullfrog_crash_primary_dump.txt /tmp/bullfrog_crash_replica_dump.txt ||
  { echo "post-crash primary/replica dumps diverged"; exit 1; }
echo "post-crash replica convergence OK"

kill -TERM "$CREPL_PID"
STATUS=0
wait "$CREPL_PID" || STATUS=$?
CREPL_PID=""
[[ $STATUS -eq 0 ]] || { echo "crash-leg replica exited non-zero ($STATUS)"; exit "$STATUS"; }
kill -TERM "$CRASH_PID"
STATUS=0
wait "$CRASH_PID" || STATUS=$?
CRASH_PID=""
[[ $STATUS -eq 0 ]] || { echo "crash-leg primary exited non-zero ($STATUS)"; exit "$STATUS"; }
trap - EXIT
rm -rf "$CRASH_DIR"
echo "durable kill -9 + replica recovery OK (acked=$ACKED recovered=$RECOVERED)"
echo "replication smoke OK"

# ---- Quiesce-free checkpoint leg ----
# `.admin checkpoint` must succeed — hard assertion, no retry loop —
# while a lazy migration is still in flight, and a replica bootstrapped
# from that mid-migration checkpoint must converge once the migration
# completes on the primary.
MVCC_DIR=$(mktemp -d /tmp/bullfrog_mvcc_data.XXXXXX)
MLOG=$(mktemp /tmp/bullfrog_mvcc.XXXXXX.log)
MRLOG=$(mktemp /tmp/bullfrog_mvcc_replica.XXXXXX.log)
MVCC_PID=""
MREPL_PID=""
cleanup_mvcc() {
  [[ -n $MREPL_PID ]] && kill -9 "$MREPL_PID" 2>/dev/null || true
  [[ -n $MVCC_PID ]] && kill -9 "$MVCC_PID" 2>/dev/null || true
  echo "--- mvcc-leg primary log ---"; cat "$MLOG"
  echo "--- mvcc-leg replica log ---"; cat "$MRLOG"
}
trap cleanup_mvcc EXIT

"$SERVERD" --port=0 --workers=8 --data-dir="$MVCC_DIR" >"$MLOG" 2>&1 &
MVCC_PID=$!
MADDR=$(wait_addr "$MLOG" "$MVCC_PID")
echo "mvcc-leg primary up at $MADDR (data dir $MVCC_DIR)"

shell_run "$MADDR" <<'SQL' >/dev/null
CREATE TABLE inv (id INT PRIMARY KEY, qty INT);
INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
INSERT INTO inv VALUES (6, 60), (7, 70), (8, 80), (9, 90), (10, 100);
SQL

# Submit the migration and checkpoint inside the background-start delay
# window, so the migration is provably still active at capture time.
# Then pull a granule lazily and checkpoint again across real marks.
MIDCKPT=$(shell_run "$MADDR" <<'SQL'
.migrate
CREATE TABLE inv2 PRIMARY KEY (id) AS SELECT id, qty FROM inv;
DROP TABLE inv;
.go
.admin checkpoint
SELECT qty FROM inv2 WHERE id = 3;
.admin checkpoint
SQL
)
CKPTS=$(grep -c "checkpoint ok" <<<"$MIDCKPT" || true)
if [[ $CKPTS -ne 2 ]]; then
  echo "mid-migration checkpoint did not succeed (got $CKPTS/2 oks):"
  echo "$MIDCKPT"
  exit 1
fi
grep -q "(complete)" < <(echo ".progress" | shell_run "$MADDR") &&
  echo "note: migration completed before the checkpoint landed"
echo "quiesce-free mid-migration checkpoints OK"

# Bootstrap a replica while the migration is (likely still) in flight:
# the wire checkpoint now succeeds mid-migration too.
"$SERVERD" --port=0 --workers=8 --replica-of="$MADDR" >"$MRLOG" 2>&1 &
MREPL_PID=$!
MRADDR=$(wait_addr "$MRLOG" "$MREPL_PID")

# Drive the primary's migration to completion and wait for it.
MDONE=""
for _ in $(seq 1 300); do
  if echo ".progress" | shell_run "$MADDR" | grep -q "(complete)"; then
    MDONE=1; break
  fi
  sleep 0.1
done
[[ -n $MDONE ]] || { echo "mvcc-leg migration never completed"; exit 1; }

MCAUGHT=""
for _ in $(seq 1 300); do
  if echo ".admin replication" | shell_run "$MRADDR" | grep -q "behind=0"; then
    MCAUGHT=1; break
  fi
  sleep 0.1
done
[[ -n $MCAUGHT ]] || { echo "mvcc-leg replica never caught up"; exit 1; }

echo ".admin dump" | shell_run "$MADDR" >/tmp/bullfrog_mvcc_primary_dump.txt
echo ".admin dump" | shell_run "$MRADDR" >/tmp/bullfrog_mvcc_replica_dump.txt
diff -u /tmp/bullfrog_mvcc_primary_dump.txt /tmp/bullfrog_mvcc_replica_dump.txt ||
  { echo "mvcc-leg primary/replica dumps diverged"; exit 1; }
grep -q "inv2" /tmp/bullfrog_mvcc_primary_dump.txt ||
  { echo "mvcc-leg dump missing migrated table"; exit 1; }
echo "mid-migration checkpoint bootstrap convergence OK"

kill -TERM "$MREPL_PID"
STATUS=0
wait "$MREPL_PID" || STATUS=$?
MREPL_PID=""
[[ $STATUS -eq 0 ]] || { echo "mvcc-leg replica exited non-zero ($STATUS)"; exit "$STATUS"; }
kill -TERM "$MVCC_PID"
STATUS=0
wait "$MVCC_PID" || STATUS=$?
MVCC_PID=""
[[ $STATUS -eq 0 ]] || { echo "mvcc-leg primary exited non-zero ($STATUS)"; exit "$STATUS"; }
trap - EXIT
rm -rf "$MVCC_DIR"
echo "quiesce-free checkpoint leg OK"
