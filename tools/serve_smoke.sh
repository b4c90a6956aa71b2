#!/usr/bin/env bash
# End-to-end smoke test of the server front-end: serve a database on a unix
# socket, drive it with the remote client verbs, then sync a second instance
# through network push/pull and check bit-exact convergence. A SIGKILL and
# restart on the same directory must keep every acknowledged head. Also
# covers the overload/chaos path against a deliberately tiny hardened server
# and an in-place GC sweep (rgc) concurrent with live commits, checks that a
# served directory is locked against a second process, and drives a
# write-back tiered stack. Fails if a server process outlives its SIGTERM.
#
# Usage: tools/serve_smoke.sh [path/to/forkbase_cli]
set -euo pipefail

CLI="${1:-./build/forkbase_cli}"
WORK="$(mktemp -d)"
SOCK="$WORK/fb.sock"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# 1. Serve an empty database on a unix socket.
"$CLI" --db "$WORK/served" serve "unix:$SOCK" >"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
if ! [[ -S "$SOCK" ]]; then
  echo "FAIL: server never bound $SOCK"
  cat "$WORK/serve.log"
  exit 1
fi

# 2. Remote put/get round-trip through the wire protocol.
"$CLI" rput "unix:$SOCK" greeting hello-over-the-wire >/dev/null
GOT="$("$CLI" rget "unix:$SOCK" greeting)"
if [[ "$GOT" != "hello-over-the-wire" ]]; then
  echo "FAIL: rget returned '$GOT'"
  exit 1
fi
"$CLI" rstat "unix:$SOCK" | grep -q '^keys: 1$'

# 2b. Heads survive a crash with no help from the caller: SIGKILL the server
# right after an acknowledged rput, restart it on the same directory, and
# read the value back.
"$CLI" rput "unix:$SOCK" crash-key survives-sigkill >/dev/null
kill -KILL "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
rm -f "$SOCK"
"$CLI" --db "$WORK/served" serve "unix:$SOCK" >>"$WORK/serve.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "FAIL: restarted server never bound"; exit 1; }
GOT="$("$CLI" rget "unix:$SOCK" crash-key)"
if [[ "$GOT" != "survives-sigkill" ]]; then
  echo "FAIL: rget after SIGKILL + restart returned '$GOT'"
  exit 1
fi
[[ "$("$CLI" rget "unix:$SOCK" greeting)" == "hello-over-the-wire" ]]

# 3. A local instance commits three versions and pushes them to the server…
"$CLI" --db "$WORK/local" put doc v1 >/dev/null
"$CLI" --db "$WORK/local" put doc v2 >/dev/null
"$CLI" --db "$WORK/local" put doc v3 >/dev/null
"$CLI" --db "$WORK/local" push "unix:$SOCK"

# 4. …and a fresh instance pulls them back down, bit-exact.
"$CLI" --db "$WORK/replica" pull "unix:$SOCK"
[[ "$("$CLI" --db "$WORK/replica" get doc)" == "v3" ]]
[[ "$("$CLI" --db "$WORK/replica" head doc)" == \
   "$("$CLI" --db "$WORK/local" head doc)" ]]
"$CLI" --db "$WORK/replica" verify-all >/dev/null

# 5. A second push with nothing new must be a no-op (delta-exact sync).
"$CLI" --db "$WORK/local" push "unix:$SOCK" | grep -q 'sent 0 chunks'

# 5b. The server holds its directory: a local CLI on the same --db must
# fail with the lock message instead of opening the store a second time.
if "$CLI" --db "$WORK/served" get greeting >"$WORK/locked.log" 2>&1; then
  echo "FAIL: a local CLI opened the directory the server holds"
  exit 1
fi
grep -q 'is locked by another open store' "$WORK/locked.log" || {
  echo "FAIL: no lock message: $(cat "$WORK/locked.log")"; exit 1; }

# 6. Clean shutdown: SIGTERM, then verify the process does not leak.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: server $SERVER_PID leaked past SIGTERM"
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q 'serving on' "$WORK/serve.log"
# With the server gone, the lock is released and the local CLI opens it.
[[ "$("$CLI" --db "$WORK/served" get greeting)" == "hello-over-the-wire" ]]

# ---------------------------------------------------------------- chaos --
# 7. Overload scenario: a deliberately tiny hardened server must shed and
# disconnect abusive connections while healthy traffic keeps working.
SOCK2="$WORK/fb2.sock"
"$CLI" --db "$WORK/hardened" \
    --max-outbox-kb 64 --handshake-timeout-ms 400 --stall-timeout-ms 2000 \
    --max-sessions 8 --session-rps 200 \
    serve "unix:$SOCK2" >"$WORK/serve2.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK2" ]] && break
  sleep 0.1
done
[[ -S "$SOCK2" ]] || { echo "FAIL: hardened server never bound"; exit 1; }

# A silent connection must be dropped by the handshake deadline, well
# before its own 5 s budget expires…
HOLD="$("$CLI" net-hold "unix:$SOCK2" 5000)"
if ! grep -q 'server closed the held connection' <<<"$HOLD"; then
  echo "FAIL: handshake deadline never fired: $HOLD"
  exit 1
fi

# …while concurrent healthy sessions are served bit-exact.
HOLD_PIDS=()
for i in $(seq 1 5); do
  "$CLI" net-hold "unix:$SOCK2" 5000 >/dev/null &
  HOLD_PIDS+=($!)
done
for i in $(seq 1 8); do
  "$CLI" rput "unix:$SOCK2" "k$i" "value-$i" >/dev/null
done
for i in $(seq 1 8); do
  [[ "$("$CLI" rget "unix:$SOCK2" "k$i")" == "value-$i" ]]
done
for pid in "${HOLD_PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done

# The hardening counters are observable over the wire.
RSTAT="$("$CLI" rstat "unix:$SOCK2")"
grep -q '^net_sessions_accepted: ' <<<"$RSTAT"
DEADLINED="$(sed -n 's/^net_deadline_disconnects: //p' <<<"$RSTAT")"
if [[ "${DEADLINED:-0}" -lt 1 ]]; then
  echo "FAIL: expected >=1 deadline disconnect, rstat said '$DEADLINED'"
  exit 1
fi

# 8. Retrying client: a push at a dead address backs off and gives up with
# a clear message…
"$CLI" --db "$WORK/local" put doc v4 >/dev/null
if "$CLI" --db "$WORK/local" --retries 3 --connect-timeout-ms 200 \
    push "unix:$WORK/nobody-home.sock" >"$WORK/push.log" 2>&1; then
  echo "FAIL: push to a dead address reported success"
  exit 1
fi
grep -q 'gave up after 3 attempts' "$WORK/push.log"

# …then the same push against the live hardened server succeeds and the
# replica converges (retry config does not distort a healthy sync).
"$CLI" --db "$WORK/local" --retries 3 push "unix:$SOCK2" >/dev/null
"$CLI" --db "$WORK/replica2" pull "unix:$SOCK2" >/dev/null
[[ "$("$CLI" --db "$WORK/replica2" get doc)" == "v4" ]]
[[ "$("$CLI" --db "$WORK/replica2" head doc)" == \
   "$("$CLI" --db "$WORK/local" head doc)" ]]

# 9. Clean shutdown of the hardened server; its exit stats must include
# the shed/deadline accounting.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: hardened server $SERVER_PID leaked past SIGTERM"
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
grep -q 'deadline' "$WORK/serve2.log"

# ------------------------------------------------------- gc under serve --
# 10. In-place GC on a live server, concurrent with a client committing.
# Seed a database whose deleted scratch branch left real garbage (tiny
# segments so the reclaim is visible on disk), serve it, and sweep with
# rgc while a pusher keeps landing commits. Nothing live may be lost.
GCDB="$WORK/gcdb"
SOCK3="$WORK/fb3.sock"
"$CLI" --db "$GCDB" --segment-kb 4 put keep keep-v1 >/dev/null
"$CLI" --db "$GCDB" --segment-kb 4 branch keep scratch >/dev/null
for i in $(seq 1 24); do
  "$CLI" --db "$GCDB" --segment-kb 4 --branch scratch \
      put keep "scratch-garbage-$i-$(printf 'x%.0s' $(seq 1 600))" >/dev/null
done
"$CLI" --db "$GCDB" --segment-kb 4 delete-branch keep scratch >/dev/null
BEFORE_BYTES="$(du -sb "$GCDB" | cut -f1)"

"$CLI" --db "$GCDB" --segment-kb 4 serve "unix:$SOCK3" \
    >"$WORK/serve3.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK3" ]] && break
  sleep 0.1
done
[[ -S "$SOCK3" ]] || { echo "FAIL: gc server never bound"; exit 1; }

(
  for i in $(seq 1 12); do
    "$CLI" rput "unix:$SOCK3" busy "busy-$i" >/dev/null
  done
) &
PUSHER_PID=$!
RGC_OUT="$("$CLI" rgc "unix:$SOCK3")"
if ! grep -q 'reclaimed in place' <<<"$RGC_OUT"; then
  echo "FAIL: rgc reported no in-place reclaim: $RGC_OUT"
  exit 1
fi
SWEPT="$(sed -n 's/^swept: *\([0-9]*\) chunks.*/\1/p' <<<"$RGC_OUT")"
if [[ "${SWEPT:-0}" -lt 1 ]]; then
  echo "FAIL: rgc swept nothing: $RGC_OUT"
  exit 1
fi
wait "$PUSHER_PID"

# The swept server still serves everything live, and a replica pulled
# through it converges bit-exact.
[[ "$("$CLI" rget "unix:$SOCK3" keep)" == "keep-v1" ]]
[[ "$("$CLI" rget "unix:$SOCK3" busy)" == "busy-12" ]]
"$CLI" --db "$WORK/replica3" pull "unix:$SOCK3" >/dev/null
"$CLI" --db "$WORK/replica3" verify-all >/dev/null

kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: gc server $SERVER_PID leaked past SIGTERM"
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# With the server down, the source store must verify clean, match the
# replica head-for-head, and actually be smaller than before the sweep.
"$CLI" --db "$GCDB" verify-all >/dev/null
[[ "$("$CLI" --db "$GCDB" head keep)" == \
   "$("$CLI" --db "$WORK/replica3" head keep)" ]]
[[ "$("$CLI" --db "$GCDB" head busy)" == \
   "$("$CLI" --db "$WORK/replica3" head busy)" ]]
AFTER_BYTES="$(du -sb "$GCDB" | cut -f1)"
if [[ "$AFTER_BYTES" -ge "$BEFORE_BYTES" ]]; then
  echo "FAIL: sweep reclaimed nothing ($BEFORE_BYTES -> $AFTER_BYTES bytes)"
  exit 1
fi

# ------------------------------------------------- encoded storage --
# 11. Compressed + delta-encoded segments end to end: commit a run of
# near-identical versions into an encoded store, deep-audit every physical
# record, and prove the wire ships it to a plain replica bit-exact.
ENCDB="$WORK/encdb"
SOCK4="$WORK/fb4.sock"
ENC_FLAGS=(--compress --delta-depth 3 --delta-window 8)
BODY="$(printf 'line-%d-of-the-versioned-document\n' $(seq 1 40))"
for i in $(seq 1 8); do
  "$CLI" --db "$ENCDB" "${ENC_FLAGS[@]}" put doc "rev$i $BODY" >/dev/null
done
# Delta bases come from a recency window over the same open store, so the
# delta-forming workload is one bulk commit: a blob whose content-defined
# leaves are near-identical (an incompressible random block repeated with
# only a counter changing — LZ finds nothing within a leaf, but the delta
# against the previous leaf is tiny).
BLOCK="$(head -c 1536 /dev/urandom | base64 -w0)"
for i in $(seq 1 48); do
  echo "block-$i $BLOCK"
done >"$WORK/versioned.blob"
"$CLI" --db "$ENCDB" "${ENC_FLAGS[@]}" \
    put-blob bigdoc "$WORK/versioned.blob" >/dev/null
DEEP="$("$CLI" --db "$ENCDB" "${ENC_FLAGS[@]}" verify --deep)"
grep -Eq '^deep: [0-9]+ records, [0-9]+ delta, [0-9]+ compressed, 0 bad$' \
    <<<"$DEEP" || { echo "FAIL: deep audit: $DEEP"; exit 1; }
DELTAS="$(sed -n 's/^deep: [0-9]* records, \([0-9]*\) delta.*/\1/p' <<<"$DEEP")"
COMPRESSED="$(sed -n 's/.* \([0-9]*\) compressed.*/\1/p' <<<"$DEEP")"
if [[ "${DELTAS:-0}" -lt 1 || "${COMPRESSED:-0}" -lt 1 ]]; then
  echo "FAIL: encoded store wrote no encoded records: $DEEP"
  exit 1
fi

# Serve the encoded database; a plain (default-options) replica pulls and
# must converge bit-exact — the wire carries chunks, not representations.
# The source head is read before serving: the server locks its directory.
ENC_HEAD="$("$CLI" --db "$ENCDB" "${ENC_FLAGS[@]}" head doc)"
"$CLI" --db "$ENCDB" "${ENC_FLAGS[@]}" serve "unix:$SOCK4" \
    >"$WORK/serve4.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -S "$SOCK4" ]] && break
  sleep 0.1
done
[[ -S "$SOCK4" ]] || { echo "FAIL: encoded server never bound"; exit 1; }

"$CLI" --db "$WORK/replica4" pull "unix:$SOCK4" >/dev/null
[[ "$("$CLI" --db "$WORK/replica4" get doc)" == "rev8 $BODY" ]]
[[ "$("$CLI" --db "$WORK/replica4" head doc)" == "$ENC_HEAD" ]]
"$CLI" --db "$WORK/replica4" verify-all >/dev/null

kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "FAIL: encoded server $SERVER_PID leaked past SIGTERM"
  exit 1
fi
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Reopening the encoded store with default options must still read
# everything — decoding is driven by the record format, not configuration.
[[ "$("$CLI" --db "$ENCDB" get doc)" == "rev8 $BODY" ]]
"$CLI" --db "$ENCDB" verify-all >/dev/null

# ---------------------------------------------------------- tiered --
# 12. A write-back tiered stack (the --db hot tier over a --tier-cold
# backend): put, get and verify-all, stat reports the tier counters, and
# after the hot segments are lost the cold tier alone serves the value.
TIER=(--db "$WORK/tier-hot" --tier-cold "$WORK/tier-cold"
      --tier-policy write-back)
"$CLI" "${TIER[@]}" put doc tiered-v1 >/dev/null
"$CLI" "${TIER[@]}" put doc tiered-v2 >/dev/null
[[ "$("$CLI" "${TIER[@]}" get doc)" == "tiered-v2" ]]
"$CLI" "${TIER[@]}" verify-all >/dev/null
TSTAT="$("$CLI" "${TIER[@]}" stat)"
for key in tier_hot_hits tier_cold_hits tier_promotions tier_demotions \
           tier_dirty_pending; do
  grep -q "^$key: " <<<"$TSTAT" || { echo "FAIL: stat lacks $key"; exit 1; }
done
rm -f "$WORK"/tier-hot/segment-*.fbc
[[ "$("$CLI" "${TIER[@]}" get doc)" == "tiered-v2" ]]
"$CLI" "${TIER[@]}" verify-all >/dev/null

echo "serve smoke OK"
