#!/usr/bin/env bash
# Server smoke test: build svrserve, start it on the movies example dataset,
# run a scripted query + batch update + tenant registration + change-stream
# subscription + stats scrape over real HTTP, then SIGTERM it and assert a
# clean graceful shutdown (drain + engine close with its pin audit).  A
# durability leg SIGKILLs a -data daemon and asserts WAL recovery; a router
# leg fronts two shard servers with -router and repeats the tenant, change-
# stream and stats checks through it (one handler set: the same API over any
# number of shards), SIGKILLs one shard and asserts degraded-but-serving,
# restarts it and asserts full recovery, then runs an online index
# create/query/drop through the router under a concurrent search storm that
# must see zero failures.  CI runs this on every push; it also works locally.
set -euo pipefail
cd "$(dirname "$0")/.."

LOG=$(mktemp)
BIN=$(mktemp -d)/svrserve

go build -o "$BIN" ./cmd/svrserve
# Port 0: the kernel picks a free port, so a leaked daemon or a parallel
# job on a shared runner cannot collide; the bound address is parsed from
# the daemon's "serving on http://..." line.
"$BIN" -addr 127.0.0.1:0 -movies 500 >"$LOG" 2>&1 &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; cat "$LOG"; }
trap cleanup EXIT

# Wait for the daemon to finish building the dataset and start listening.
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's|^serving on http://\([^ ]*\).*|\1|p' "$LOG")
  if [ -n "$ADDR" ] && curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
[ -n "$ADDR" ] || { echo "daemon never started listening" >&2; exit 1; }

# check_stats URL: the one /v1/stats shape — engine counters summed at the
# top level, the front end's own sections, the per-shard breakdown — and long
# lists that are actually compressed: every index with a nonzero raw
# footprint must report ratio > 1 (raw bytes strictly above stored bytes),
# which a ratio summed across shards instead of recomputed would fake.
check_stats() {
  curl -fsS "$1/v1/stats" | python3 -c '
import json, sys
stats = json.load(sys.stdin)
for key in ("indexes", "pool", "pagefile", "durability", "endpoints", "tenants", "uptime_seconds", "cluster", "shards"):
    if key not in stats:
        sys.exit(f"stats lack {key!r}")
if len(stats["shards"]) != stats["cluster"]["shards"]:
    sys.exit("stats shards breakdown does not match cluster.shards")
for name, idx in stats["indexes"].items():
    raw, stored, ratio = idx["long_list_raw_bytes"], idx["long_list_bytes"], idx["compression_ratio"]
    if raw > 0 and abs(ratio - raw / stored) > 1e-9:
        sys.exit(f"{name}: compression_ratio {ratio} is not raw {raw} B / stored {stored} B")
    if raw > 0 and ratio <= 1.0:
        sys.exit(f"{name}: raw {raw} B stored {stored} B — not compressed")
    for key in ("table_patches", "pages_read"):
        if key not in idx:
            sys.exit(f"{name}: stats lack {key!r}")
'
}

# check_change_stream URL ROW_ID: subscribe to Reviews, insert a review and
# require the committed insert on the stream.
check_change_stream() {
  local ch chpid seen=""
  ch=$(mktemp)
  curl -fsS --no-buffer -m 15 "$1/v1/changes?table=Reviews" >"$ch" &
  chpid=$!
  sleep 0.3
  curl -fsS -d "{\"rows\":[{\"rID\":$2,\"mID\":7,\"rating\":4}]}" \
    "$1/v1/tables/Reviews/rows" | grep -q '"inserted":1'
  for _ in $(seq 1 50); do
    if grep -q "\"pk\":$2" "$ch" 2>/dev/null; then seen=1; break; fi
    sleep 0.1
  done
  kill "$chpid" 2>/dev/null || true
  wait "$chpid" 2>/dev/null || true
  [ -n "$seen" ] || { echo "change stream never delivered the insert" >&2; cat "$ch" >&2; exit 1; }
  grep -q '"kind":"insert"' "$ch"
}

# check_tenants URL: a registration answers the tenant's status, shows up in
# the listing and in the stats, and the X-SVR-Tenant header namespaces the
# named routes (the tenant has no index of its own, so its search misses —
# on "acme/movies_desc", not on the shared index).
check_tenants() {
  curl -fsS -d '{"name":"acme","max_rows":2}' "$1/v1/tenants" | grep -q '"name":"acme","max_rows":2'
  curl -fsS "$1/v1/tenants" | grep -q '"max_rows":2'
  curl -fsS "$1/v1/stats" | grep -q '"tenants":\[{"name":"acme"'
  curl -s -H 'X-SVR-Tenant: acme' -d '{"query":"golden gate"}' \
    "$1/v1/indexes/movies_desc/search" | grep -q '"name":"acme/movies_desc"'
}

echo "--- healthz"
curl -fsS "http://$ADDR/healthz" | grep -q '"status":"ok"'
curl -fsS "http://$ADDR/healthz" | grep -q '"healthy_shards":1'

echo "--- search"
curl -fsS -d '{"query":"golden gate","k":5,"load_rows":true}' \
  "http://$ADDR/v1/indexes/movies_desc/search" | grep -q '"hits"'

echo "--- batch update (structured update re-ranks via the score view)"
curl -fsS -d '{"ops":[{"op":"update","table":"Statistics","pk":7,"set":{"nVisit":9000}}]}' \
  "http://$ADDR/v1/batch" | grep -q '"applied":1'

echo "--- row insert through ApplyBatch"
curl -fsS -d '{"rows":[{"rID":900001,"mID":7,"rating":5}]}' \
  "http://$ADDR/v1/tables/Reviews/rows" | grep -q '"inserted":1'

echo "--- stats scrape"
check_stats "http://$ADDR"

echo "--- tenant registration shows up in /v1/tenants and /v1/stats; the header namespaces"
check_tenants "http://$ADDR"

echo "--- change stream delivers a committed insert"
check_change_stream "http://$ADDR" 900002

echo "--- malformed request gets a clean 400"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d '{"query":' \
  "http://$ADDR/v1/indexes/movies_desc/search")
[ "$CODE" = "400" ]

echo "--- graceful shutdown (SIGTERM: drain, Engine.Close, pin audit)"
kill -TERM "$PID"
wait "$PID" # non-zero exit (failed drain or pin audit) fails the smoke
grep -q "shutdown complete" "$LOG"

# --- restart leg: durability under kill -9 -----------------------------------
# Serve against a -data file, commit a batch, SIGKILL the daemon mid-flight,
# restart against the same file, and require the committed query results to
# come back byte-identical — the WAL recovery path over real HTTP.
DATA=$(mktemp -d)/smoke.svrdb
LOG2=$(mktemp)

start_durable() {
  "$BIN" -addr 127.0.0.1:0 -movies 500 -data "$DATA" >"$LOG2" 2>&1 &
  PID=$!
  ADDR=""
  for _ in $(seq 1 150); do
    ADDR=$(sed -n 's|^serving on http://\([^ ]*\).*|\1|p' "$LOG2")
    if [ -n "$ADDR" ] && curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
  done
  [ -n "$ADDR" ] || { echo "durable daemon never started listening" >&2; cat "$LOG2" >&2; exit 1; }
}

cleanup2() { kill -9 "$PID" 2>/dev/null || true; cat "$LOG2"; }
trap cleanup2 EXIT

echo "--- durable build + committed batch"
start_durable
curl -fsS -d '{"ops":[{"op":"update","table":"Statistics","pk":7,"set":{"nVisit":123456}}]}' \
  "http://$ADDR/v1/batch" | grep -q '"applied":1'
PRE=$(curl -fsS -d '{"query":"golden gate","k":5}' "http://$ADDR/v1/indexes/movies_desc/search")

echo "--- SIGKILL mid-serve"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

echo "--- restart from the data file, assert committed state intact"
: >"$LOG2"
start_durable
grep -q "recovered" "$LOG2" || { echo "restart rebuilt instead of recovering" >&2; exit 1; }
POST=$(curl -fsS -d '{"query":"golden gate","k":5}' "http://$ADDR/v1/indexes/movies_desc/search")
[ "$PRE" = "$POST" ] || {
  echo "post-restart results diverge from committed pre-kill results" >&2
  echo "pre:  $PRE" >&2
  echo "post: $POST" >&2
  exit 1
}
echo "--- second graceful shutdown closes the durable engine"
kill -TERM "$PID"
wait "$PID"
grep -q "shutdown complete" "$LOG2"

trap - EXIT

# --- router leg: 2 shard servers + router, degraded reads, recovery ----------
# Start two shard servers (each builds its hash slice of the same dataset),
# front them with a router, query through it, SIGKILL one shard and assert
# the router keeps serving partial results with a degraded /healthz, then
# restart the shard and assert the router recovers to full results.
SLOG0=$(mktemp)
SLOG1=$(mktemp)
RLOG=$(mktemp)
SPID0="" SPID1="" RPID=""

cleanup3() {
  for p in "$SPID0" "$SPID1" "$RPID"; do
    [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
  done
  echo "--- shard 0 log"; cat "$SLOG0"
  echo "--- shard 1 log"; cat "$SLOG1"
  echo "--- router log"; cat "$RLOG"
}
trap cleanup3 EXIT

# wait_addr LOG: poll LOG for the bound address and echo it once /healthz
# answers (any status code — a degraded router still counts as listening).
wait_addr() {
  local a=""
  for _ in $(seq 1 150); do
    a=$(sed -n 's|^serving on http://\([^ ]*\).*|\1|p' "$1")
    if [ -n "$a" ] && curl -sS -o /dev/null "http://$a/healthz" 2>/dev/null; then
      echo "$a"
      return 0
    fi
    sleep 0.2
  done
  return 1
}

echo "--- start 2 shard servers + router"
"$BIN" -addr 127.0.0.1:0 -movies 500 -shard-index 0 -shard-count 2 >"$SLOG0" 2>&1 &
SPID0=$!
"$BIN" -addr 127.0.0.1:0 -movies 500 -shard-index 1 -shard-count 2 >"$SLOG1" 2>&1 &
SPID1=$!
SADDR0=$(wait_addr "$SLOG0") || { echo "shard 0 never started" >&2; exit 1; }
SADDR1=$(wait_addr "$SLOG1") || { echo "shard 1 never started" >&2; exit 1; }
"$BIN" -addr 127.0.0.1:0 -router -backends "http://$SADDR0,http://$SADDR1" -hedge 250ms >"$RLOG" 2>&1 &
RPID=$!
RADDR=$(wait_addr "$RLOG") || { echo "router never started" >&2; exit 1; }

echo "--- scatter-gather search through the router (all shards healthy)"
FULL=$(curl -fsS -d '{"query":"golden gate","k":5}' "http://$RADDR/v1/indexes/movies_desc/search")
echo "$FULL" | grep -q '"hits"'
echo "$FULL" | grep -q '"partial"' && { echo "healthy cluster returned partial results" >&2; exit 1; }
curl -fsS "http://$RADDR/healthz" | grep -q '"healthy_shards":2'

echo "--- aggregated stats name both shards, in the same shape as one shard's"
curl -fsS "http://$RADDR/v1/stats" | grep -q '"healthy_shards":2'
check_stats "http://$RADDR"

echo "--- tenants through the router: fan-out registration, summed listing, header namespace"
check_tenants "http://$RADDR"

echo "--- one change stream over both shards delivers a routed insert"
check_change_stream "http://$RADDR" 900003

echo "--- SIGKILL shard 1, assert degraded-but-serving"
kill -9 "$SPID1"
wait "$SPID1" 2>/dev/null || true
SPID1=""
DEGRADED=""
for _ in $(seq 1 50); do
  R=$(curl -sS -d '{"query":"golden gate","k":5}' "http://$RADDR/v1/indexes/movies_desc/search") || R=""
  if echo "$R" | grep -q '"partial":true'; then DEGRADED="$R"; break; fi
  sleep 0.2
done
[ -n "$DEGRADED" ] || { echo "router never served partial results after shard kill" >&2; exit 1; }
echo "$DEGRADED" | grep -q '"hits"'
curl -fsS "http://$RADDR/healthz" | grep -q '"status":"degraded"'

echo "--- restart shard 1 on its old port, assert the router recovers"
SPORT1=${SADDR1##*:}
: >"$SLOG1"
"$BIN" -addr "127.0.0.1:$SPORT1" -movies 500 -shard-index 1 -shard-count 2 >"$SLOG1" 2>&1 &
SPID1=$!
wait_addr "$SLOG1" >/dev/null || { echo "shard 1 never restarted" >&2; exit 1; }
RECOVERED=""
for _ in $(seq 1 50); do
  if curl -fsS "http://$RADDR/healthz" 2>/dev/null | grep -q '"status":"ok"'; then RECOVERED=1; break; fi
  sleep 0.2
done
[ -n "$RECOVERED" ] || { echo "router never recovered after shard restart" >&2; exit 1; }
POST_RECOVERY=$(curl -fsS -d '{"query":"golden gate","k":5}' "http://$RADDR/v1/indexes/movies_desc/search")
echo "$POST_RECOVERY" | grep -q '"partial"' && { echo "recovered cluster still partial" >&2; exit 1; }
[ "$POST_RECOVERY" = "$FULL" ] || {
  echo "post-recovery results diverge from the healthy-cluster results" >&2
  echo "pre:  $FULL" >&2
  echo "post: $POST_RECOVERY" >&2
  exit 1
}

echo "--- routed write reaches the owning shard through the router"
curl -fsS -d '{"ops":[{"op":"update","table":"Statistics","pk":7,"set":{"nVisit":9000}}]}' \
  "http://$RADDR/v1/batch" | grep -q '"applied":1'

echo "--- online index lifecycle through the router under concurrent searches"
SEARCH_FAILS=$(mktemp)
: >"$SEARCH_FAILS"
(
  for _ in $(seq 1 100); do
    curl -fsS -d '{"query":"golden gate","k":5}' \
      "http://$RADDR/v1/indexes/movies_desc/search" >/dev/null 2>&1 || echo fail >>"$SEARCH_FAILS"
  done
) &
STORM_PID=$!
curl -fsS -d '{"name":"movies_desc2","table":"Movies","column":"desc","method":"id","spec":"archive"}' \
  "http://$RADDR/v1/indexes" | grep -q '"name":"movies_desc2"'
curl -fsS -d '{"query":"golden gate","k":5}' \
  "http://$RADDR/v1/indexes/movies_desc2/search" | grep -q '"hits"'
curl -fsS -X DELETE "http://$RADDR/v1/indexes/movies_desc2" | grep -q '"dropped":"movies_desc2"'
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d '{"query":"golden gate"}' \
  "http://$RADDR/v1/indexes/movies_desc2/search")
[ "$CODE" = "404" ]
curl -s -X DELETE "http://$RADDR/v1/indexes/movies_desc2" | grep -q '"code":"not_found"'
wait "$STORM_PID"
[ ! -s "$SEARCH_FAILS" ] || {
  echo "$(wc -l <"$SEARCH_FAILS") concurrent searches failed during the index lifecycle" >&2
  exit 1
}

echo "--- stats reflect the drop and both shards stay healthy"
STATS=$(curl -fsS "http://$RADDR/v1/stats")
echo "$STATS" | grep -q '"healthy_shards":2'
echo "$STATS" | grep -q 'movies_desc'
echo "$STATS" | grep -q 'movies_desc2' && { echo "dropped index still in stats" >&2; exit 1; }

echo "--- graceful shutdown of router and shards"
kill -TERM "$RPID"
wait "$RPID"
RPID=""
grep -q "shutdown complete" "$RLOG"
kill -TERM "$SPID0" "$SPID1"
wait "$SPID0"
wait "$SPID1"
SPID0="" SPID1=""

trap - EXIT
echo "serve smoke OK (including SIGKILL restart, router tenant/change-stream/degradation and online index lifecycle legs)"
