#!/usr/bin/env bash
# sbx_chaos.sh — kill -9 fault-injection harness for sbx_serve.
#
# Scenario "recovery" (default, the PR 7 contract):
#   Phase 1: start a WAL-enabled server, drive a train-heavy workload, and
#   kill -9 the server mid-run (no drain, no final fsync — the worst case).
#   Phase 2: restart the server from the same --data-dir and run a
#   verifying workload whose mirror replays the same snapshot+WAL. Zero
#   mismatches proves the recovered state is bit-identical to what the WAL
#   captured; the run fails if recovery replayed nothing.
#
# Scenario "failover" (the PR 9 contract):
#   Start a standby, then a primary shipping its WAL with --repl-ack=quorum
#   (every ack the loadgen sees implies the standby applied the record).
#   kill -9 the primary mid-run, promote the standby with SIGUSR1, and run
#   a verifying workload against the promoted standby whose mirror replays
#   the STANDBY's own data dir. Zero mismatches + a non-empty standby log
#   proves zero acked-mutation loss across the failover.
#
# Scenario "standby-restart":
#   As "failover", but the standby checkpoints every record and is kill -9'd
#   and restarted from its own data dir mid-load, so the primary resends its
#   unacked batch. Once the ship lag drains, the promoted standby is verified
#   against the PRIMARY's data dir, which holds each record once. The kill
#   does not hit the resend window every run; the gtest
#   Replication.RestartedStandbySkipsResendsItsCheckpointCovers does.
#
# Usage: sbx_chaos.sh [recovery|failover|standby-restart] BUILD_DIR [JSON_OUT]
#   BUILD_DIR  cmake build tree containing tools/sbx_serve + tools/sbx_loadgen
#   JSON_OUT   optional BENCH-shaped output from the verify phase
#              (metrics are prefixed wal_ for recovery, repl_ for failover,
#              restart_ for standby-restart, keeping them distinct from the
#              non-durable serve-smoke runs)
#
# The legacy spelling `sbx_chaos.sh BUILD_DIR [JSON_OUT]` still runs the
# recovery scenario.

set -u -o pipefail

SCENARIO=recovery
case "${1:-}" in
  recovery|failover|standby-restart) SCENARIO=${1//-/_}; shift ;;
esac
BUILD_DIR=${1:?usage: sbx_chaos.sh [recovery|failover|standby-restart] BUILD_DIR [JSON_OUT]}
JSON_OUT=${2:-}
SERVE="$BUILD_DIR/tools/sbx_serve"
LOADGEN="$BUILD_DIR/tools/sbx_loadgen"

WORK=$(mktemp -d /tmp/sbx_chaos.XXXXXX)
DATA="$WORK/data"
SOCK="unix:$WORK/serve.sock"
STANDBY_DATA="$WORK/standby_data"
STANDBY_SOCK="unix:$WORK/standby.sock"
SERVER_PID=
STANDBY_PID=
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null;
      [ -n "$STANDBY_PID" ] && kill -9 "$STANDBY_PID" 2>/dev/null;
      rm -rf "$WORK"' EXIT

fail() { echo "sbx_chaos: FAIL: $*" >&2; exit 1; }

# start_node PID_VAR LOG FLAGS... — starts sbx_serve with the shared
# topology flags, stores its pid in PID_VAR, waits for the listening line.
start_node() {
  local pid_var=$1 log=$2
  shift 2
  "$SERVE" --users=32 --shards=4 --base-size=600 --fsync=batch "$@" \
           >"$log" 2>&1 &
  printf -v "$pid_var" '%s' "$!"
  for _ in $(seq 1 100); do
    grep -q "listening on" "$log" 2>/dev/null && return 0
    kill -0 "${!pid_var}" 2>/dev/null || break
    sleep 0.1
  done
  cat "$log" >&2
  fail "sbx_serve did not come up (see $log)"
}

# start_server LOG EXTRA_FLAGS... — the node on $SOCK over $DATA.
start_server() {
  start_node SERVER_PID "$1" --listen="$SOCK" --data-dir="$DATA" \
             --snapshot-every=64 "${@:2}"
}

# start_standby LOG SNAPSHOT_EVERY — a standby on $STANDBY_SOCK.
start_standby() {
  start_node STANDBY_PID "$1" --listen="$STANDBY_SOCK" \
             --data-dir="$STANDBY_DATA" --snapshot-every="$2" --standby
  grep -q "role standby" "$1" || fail "standby not in standby role"
}

# kill9 PID_VAR WHAT — SIGKILLs the node in PID_VAR and reaps it.
kill9() {
  kill -9 "${!1}" || fail "$2 already dead before the kill"
  echo "sbx_chaos: killed $2 pid ${!1} (SIGKILL)"
  wait "${!1}" 2>/dev/null
  printf -v "$1" '%s' ""
}

# until_ok WHAT CMD... — retries CMD every 0.1 s; fails with WHAT after 100.
until_ok() {
  for _ in $(seq 1 100); do
    "${@:2}" && return 0
    sleep 0.1
  done
  fail "$1"
}

# probe ENDPOINT SEED [FLAGS...] — a classify-only loadgen request.
probe() {
  "$LOADGEN" --connect="$1" --users=32 --connections=1 --requests=2 \
             --batch=1 --train-every=0 --seed="$2" --base-size=600 \
             --attempts=1 "${@:3}" 2>/dev/null
}
promoted() { probe "$STANDBY_SOCK" 99 >/dev/null; }
drained() { [[ $(probe "$SOCK" 98 --stats) == *" lag 0,"* ]]; }

# start_load REQUESTS ATTEMPTS — train-heavy loadgen on $SOCK (LOADGEN_PID).
start_load() {
  "$LOADGEN" --connect="$SOCK" --users=32 --connections=4 --requests="$1" \
             --batch=4 --train-every=2 --seed=11 --base-size=600 \
             --attempts="$2" >"$WORK/loadgen1.log" 2>&1 &
  LOADGEN_PID=$!
}

# start_replicated SNAPSHOT_EVERY — a standby checkpointing every
# SNAPSHOT_EVERY records and a primary shipping to it with quorum acks.
start_replicated() {
  start_standby "$WORK/standby.log" "$1"
  start_server "$WORK/primary.log" \
               --replicate-to="$STANDBY_SOCK" --repl-ack=quorum
}

# promote_and_verify PREFIX MIRROR_DIR — promotes the standby with SIGUSR1
# and verifies it against a mirror that replays MIRROR_DIR.
promote_and_verify() {
  STANDBY_WAL=$(cat "$STANDBY_DATA"/shard-*/wal.log \
                    "$STANDBY_DATA"/shard-*/snap-*.inc 2>/dev/null | wc -c)
  [ "$STANDBY_WAL" -gt 0 ] ||
    fail "standby durable state is empty — nothing was shipped before the kill"
  echo "sbx_chaos: $STANDBY_WAL standby durable bytes at the moment of failover"

  echo "sbx_chaos: promoting the standby (SIGUSR1)"
  kill -USR1 "$STANDBY_PID" || fail "standby died before promotion"
  until_ok "standby never saw the promotion" \
           grep -q "promote requested" "$WORK/standby.log"
  # The role flip completes on the standby's accept loop; probe with
  # classify-only traffic (refused until primary) until it answers.
  until_ok "standby never started serving after promotion" promoted

  echo "sbx_chaos: re-pointing loadgen at the promoted standby, verifying"
  SERVER_PID=$STANDBY_PID
  STANDBY_PID=
  run_verify "$STANDBY_SOCK" "$2" "$1" "$WORK/loadgen2.log"
  grep -Eq "standby applied [1-9][0-9]*," "$WORK/loadgen2.log" ||
    fail "promoted standby reports zero applied records — nothing replicated"

  wait "$SERVER_PID" || fail "promoted standby did not drain cleanly"
  SERVER_PID=
}

# run_verify ENDPOINT DATA_DIR PREFIX LOG — the bit-identity verification
# loadgen: replays DATA_DIR into a mirror and cross-checks every response.
run_verify() {
  local endpoint=$1 data_dir=$2 prefix=$3 log=$4
  local args=(--connect="$endpoint" --connections=4 --requests=200 --batch=4
              --train-every=3 --seed=23 --verify-data-dir="$data_dir"
              --attempts=3 --stats --shutdown)
  [ -n "$JSON_OUT" ] && args+=(--json="$JSON_OUT" --json-metric-prefix="$prefix")
  "$LOADGEN" "${args[@]}" | tee "$log"
  local rc=${PIPESTATUS[0]}
  [ "$rc" -eq 0 ] || fail "verify loadgen exited $rc"
  grep -q "verify: 0 mismatches" "$log" ||
    fail "recovered state is NOT bit-identical"
}

scenario_recovery() {
  echo "sbx_chaos: phase 1 — load, then kill -9 mid-run"
  start_server "$WORK/server1.log"

  # Train-heavy and single-attempt: the abrupt kill must surface as loadgen
  # errors, not hide behind retries.
  start_load 5000 1

  sleep 1
  kill9 SERVER_PID server
  wait "$LOADGEN_PID" && fail "loadgen survived the server kill unscathed"

  [ -f "$DATA/MANIFEST" ] || fail "no manifest written"
  WAL_BYTES=$(cat "$DATA"/shard-*/wal.log 2>/dev/null | wc -c)
  [ "$WAL_BYTES" -gt 0 ] || fail "WAL is empty — nothing was logged before the kill"
  echo "sbx_chaos: $WAL_BYTES WAL bytes survive the crash"

  echo "sbx_chaos: phase 2 — restart from $DATA and verify bit-identity"
  start_server "$WORK/server2.log"
  grep "recovered" "$WORK/server2.log"
  grep -Eq "replayed [1-9][0-9]* wal records" "$WORK/server2.log" ||
    grep -Eq "recovered [1-9][0-9]* snapshot users" "$WORK/server2.log" ||
    fail "recovery replayed nothing — the crash window missed all mutations"

  run_verify "$SOCK" "$DATA" wal_ "$WORK/loadgen2.log"

  wait "$SERVER_PID" || fail "server did not drain cleanly after shutdown"
  SERVER_PID=
  echo "sbx_chaos: PASS — recovered state bit-identical after kill -9"
}

scenario_failover() {
  # Quorum acks make the loss contract checkable: every mutation the
  # loadgen saw acked was applied AND logged on the standby first.
  start_replicated 64
  start_load 5000 1
  sleep 2
  kill9 SERVER_PID primary
  wait "$LOADGEN_PID" && fail "loadgen survived the primary kill unscathed"
  promote_and_verify repl_ "$STANDBY_DATA"
  echo "sbx_chaos: PASS — zero acked-mutation loss across kill -9 failover"
}

scenario_standby_restart() {
  start_replicated 1
  start_load 1500 3
  sleep 1
  kill9 STANDBY_PID standby
  mv "$WORK/standby.log" "$WORK/standby1.log"
  start_standby "$WORK/standby.log" 1
  grep "recovered" "$WORK/standby.log"
  grep -Eq "recovered [1-9][0-9]* snapshot users" "$WORK/standby.log" ||
    fail "restarted standby recovered no checkpointed users"

  # Verify against the primary's dir: a double train the restarted standby
  # checkpointed would ride in its own dir into the mirror too.
  wait "$LOADGEN_PID" || fail "loadgen failed while the standby restarted"
  until_ok "primary never drained its ship lag" drained
  kill9 SERVER_PID primary
  promote_and_verify restart_ "$DATA"
  echo "sbx_chaos: PASS — no resend applied twice across a standby restart"
}

scenario_$SCENARIO
