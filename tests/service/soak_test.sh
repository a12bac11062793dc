#!/usr/bin/env bash
# Chaos soak for the sweep daemon (docs/SWEEP_SERVICE.md, "Serving").
#
# Exercises the full robustness contract end to end with the real binary:
#   1. batch ground truth   — every grid via `afs_sweep run` (no store);
#   2. warm phase           — daemon serves every grid cold, filling the
#                             content-addressed store;
#   3. chaos phase          — concurrent clients (plus one speaking
#                             garbage) mid-flight when the daemon is
#                             SIGKILLed: no drain, no flush;
#   4. recovery phase       — a new daemon over the SAME store but a
#                             FRESH out-dir re-serves every request:
#                             >= 95% store hit-rate and every CSV
#                             byte-identical to the batch driver's;
#   5. drain phase          — SIGTERM: graceful drain, exit 0, socket
#                             unlinked.
#
# Usage: soak_test.sh <path-to-afs_sweep> [scratch-dir]
set -u

AFS_SWEEP="${1:?usage: soak_test.sh <path-to-afs_sweep> [scratch-dir]}"
SCRATCH="${2:-$(mktemp -d /tmp/afs_soak.XXXXXX)}"
SOCK="$SCRATCH/daemon.sock"
STORE="$SCRATCH/store"
MACHINE=butterfly1
PROCS=1,2,4
KERNELS=(gauss:600 gauss:900 gauss:1200)
SCHEDS=(SS,GSS AFS,FACT)

fail() { echo "soak_test: FAIL: $*" >&2; exit 1; }
note() { echo "soak_test: $*"; }

cleanup() {
  [ -n "${DAEMON_PID:-}" ] && kill -9 "$DAEMON_PID" 2>/dev/null
  wait 2>/dev/null
}
trap cleanup EXIT

start_daemon() { # $1 = out dir, $2 = log file
  "$AFS_SWEEP" serve --socket="$SOCK" --out-dir="$1" --store="$STORE" \
    2>"$2" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    if "$AFS_SWEEP" request --socket="$SOCK" --timeout=5 health \
        >/dev/null 2>&1; then
      return 0
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup ($2)"
    sleep 0.1
  done
  fail "daemon never became healthy ($2)"
}

request_grid() { # $1 = kernel, $2 = schedulers, $3 = output file
  "$AFS_SWEEP" request --socket="$SOCK" --raw --timeout=300 grid \
    --kernel="$1" --machine="$MACHINE" --schedulers="$2" --procs="$PROCS" \
    >"$3" 2>&1
}

# ---- 1. batch ground truth ---------------------------------------------
note "building batch ground truth"
i=0
for k in "${KERNELS[@]}"; do
  for s in "${SCHEDS[@]}"; do
    "$AFS_SWEEP" run --kernel="$k" --machine="$MACHINE" --schedulers="$s" \
      --procs="$PROCS" --out-dir="$SCRATCH/batch_$i" --no-store \
      >"$SCRATCH/batch_$i.log" 2>&1 \
      || fail "batch grid $k/$s failed (see $SCRATCH/batch_$i.log)"
    [ -s "$SCRATCH/batch_$i/grid.csv" ] || fail "batch grid $i wrote no CSV"
    i=$((i + 1))
  done
done

# ---- 2. warm phase ------------------------------------------------------
note "warm phase: daemon fills the store"
start_daemon "$SCRATCH/out_warm" "$SCRATCH/daemon_warm.log"
i=0
for k in "${KERNELS[@]}"; do
  for s in "${SCHEDS[@]}"; do
    request_grid "$k" "$s" "$SCRATCH/warm_$i.json" \
      || fail "warm grid $k/$s failed (see $SCRATCH/warm_$i.json)"
    i=$((i + 1))
  done
done

# ---- 3. chaos phase -----------------------------------------------------
note "chaos phase: concurrent clients, then SIGKILL"
pids=()
for k in "${KERNELS[@]}"; do
  for s in "${SCHEDS[@]}"; do
    request_grid "$k" "$s" /dev/null &
    pids+=($!)
  done
done
# A grid not in the warm set keeps the daemon genuinely mid-compute
# when the SIGKILL lands (the warm grids replay from the store fast).
request_grid gauss:4000 SS,GSS /dev/null &
pids+=($!)
# One client speaking garbage: the daemon must answer with a structured
# error, not fall over (exit 1 = request-level error is what we expect).
"$AFS_SWEEP" request --socket="$SOCK" --timeout=30 '{"verb":"nope"' \
  >/dev/null 2>&1 &
pids+=($!)
sleep 0.4
kill -9 "$DAEMON_PID" || fail "could not SIGKILL the daemon"
# Reap the daemon before starting its successor: until the kill has torn
# its files down, its listening socket still accepts, and the new daemon
# would refuse a socket that looks served.
wait "$DAEMON_PID" 2>/dev/null
wait "${pids[@]}" 2>/dev/null  # client exits are unspecified mid-kill
DAEMON_PID=

# ---- 4. recovery phase --------------------------------------------------
# Same store, fresh out-dir: every cell must come back from the
# content-addressed store.
note "recovery phase: fresh daemon over the same store"
start_daemon "$SCRATCH/out_recovered" "$SCRATCH/daemon_recover.log"
hits=0
misses=0
i=0
for k in "${KERNELS[@]}"; do
  for s in "${SCHEDS[@]}"; do
    out="$SCRATCH/recover_$i.json"
    request_grid "$k" "$s" "$out" || fail "recovery grid $k/$s failed ($out)"
    delta=$(sed -n \
      's/.*"store":{"hits":\([0-9][0-9]*\),"misses":\([0-9][0-9]*\).*/\1 \2/p' \
      "$out")
    [ -n "$delta" ] || fail "done event in $out carries no store delta"
    hits=$((hits + ${delta%% *}))
    misses=$((misses + ${delta##* }))

    csv=$(sed -n 's/.*"csv":\["\([^"]*\)".*/\1/p' "$out" | head -n1)
    [ -n "$csv" ] && [ -f "$csv" ] || fail "no CSV reported in $out"
    cmp "$csv" "$SCRATCH/batch_$i/grid.csv" \
      || fail "recovered CSV differs from batch for grid $i ($csv)"
    i=$((i + 1))
  done
done
total=$((hits + misses))
[ "$total" -gt 0 ] || fail "recovery served zero cells"
# hit-rate >= 95%, in integer arithmetic: 100*hits >= 95*total.
[ $((hits * 100)) -ge $((total * 95)) ] \
  || fail "warm hit-rate too low: $hits/$total"
note "recovery hit-rate: $hits/$total"

# ---- 5. drain phase -----------------------------------------------------
note "drain phase: SIGTERM"
kill -TERM "$DAEMON_PID" || fail "could not signal the daemon"
drain_rc=1
for _ in $(seq 1 100); do
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then drain_rc=0; break; fi
  sleep 0.1
done
[ "$drain_rc" -eq 0 ] || fail "daemon did not exit after SIGTERM"
wait "$DAEMON_PID"
rc=$?
DAEMON_PID=
[ "$rc" -eq 0 ] || fail "drain exited $rc, want 0"
[ ! -S "$SOCK" ] || fail "socket not unlinked after drain"
grep -q 'drained:' "$SCRATCH/daemon_recover.log" \
  || fail "drain counters missing from the daemon log"

note "PASS (scratch: $SCRATCH)"
rm -rf "$SCRATCH"
exit 0
