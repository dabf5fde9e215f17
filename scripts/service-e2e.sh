#!/usr/bin/env bash
# Service end-to-end check (`make service-e2e`, CI "Service e2e" step).
#
# Boots taoptd on a temp data directory, submits the pinned chaos run
# document over HTTP, and proves the cache contract from the outside:
#
#   1. the served export is byte-identical to the JSON view (tracetool
#      render) of an offline `taopt -bintrace` record of the equivalent flags
#      (the cache-equivalence oracle, end to end);
#   2. re-submitting the document under a different name is a cache hit
#      (X-Taopt-Cache: hit) serving byte-identical bytes;
#   3. after a service restart over the same data directory the hit still
#      serves — durably, with zero recomputes.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${TAOPTD_PORT:-18347}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/taoptd" ./cmd/taoptd
go build -o "$WORK/taopt" ./cmd/taopt
go build -o "$WORK/tracetool" ./cmd/tracetool

start_server() {
    "$WORK/taoptd" -addr "127.0.0.1:$PORT" -data "$WORK/store" -workers 2 &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "service-e2e: taoptd did not become healthy on $BASE" >&2
    exit 1
}

# The pinned chaos configuration — the same cell the CI chaos smoke and the
# telemetry golden exercise.
cat > "$WORK/run.json" <<'EOF'
{"kind": "run", "name": "service e2e: chaos cell", "run": {
  "app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
  "durationMin": 8, "seed": 15, "telemetry": true,
  "faults": {"failureRate": 0.2}}}
EOF
sed 's/chaos cell/chaos cell, resubmitted/' "$WORK/run.json" > "$WORK/rerun.json"

# submit POSTs a document with ?wait=1 and leaves the response headers in
# $WORK/headers; prints the body.
submit() {
    curl -fsS -D "$WORK/headers" -X POST --data-binary "@$1" "$BASE/v1/runs?wait=1"
}
header() {
    tr -d '\r' < "$WORK/headers" | awk -v k="$1" 'tolower($1) == tolower(k)":" {print $2}'
}

start_server

echo "service-e2e: submitting the chaos run document"
submit "$WORK/run.json" > "$WORK/submit1.json"
[ "$(header x-taopt-cache)" = "miss" ] || { echo "first submit was not a miss" >&2; exit 1; }
RUN_ID="$(header x-taopt-run-id)"
curl -fsS "$BASE/v1/runs/$RUN_ID/export" > "$WORK/served-export.json"
curl -fsS "$BASE/v1/runs/$RUN_ID/telemetry" > "$WORK/served-telemetry.txt"
[ -s "$WORK/served-telemetry.txt" ] || { echo "telemetry digest is empty" >&2; exit 1; }

echo "service-e2e: recording the offline equivalent with taopt"
"$WORK/taopt" -app "Filters For Selfie" -tool monkey -setting taopt-duration \
    -duration 8 -seed 15 -faults 0.2 -telemetry \
    -bintrace "$WORK/offline.taoptb" > /dev/null
"$WORK/tracetool" render -view json "$WORK/offline.taoptb" > "$WORK/offline-export.json"
diff "$WORK/served-export.json" "$WORK/offline-export.json" \
    || { echo "served export diverges from the offline record's JSON view" >&2; exit 1; }

echo "service-e2e: resubmitting under a new name"
submit "$WORK/rerun.json" > "$WORK/submit2.json"
[ "$(header x-taopt-cache)" = "hit" ] || { echo "resubmit was not a cache hit" >&2; exit 1; }
RERUN_ID="$(header x-taopt-run-id)"
curl -fsS "$BASE/v1/runs/$RERUN_ID/export" > "$WORK/hit-export.json"
diff "$WORK/served-export.json" "$WORK/hit-export.json" \
    || { echo "cache hit is not byte-identical" >&2; exit 1; }

echo "service-e2e: restarting the service over the same data directory"
kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
start_server
submit "$WORK/run.json" > "$WORK/submit3.json"
[ "$(header x-taopt-cache)" = "hit" ] || { echo "post-restart resubmit was not a cache hit" >&2; exit 1; }
curl -fsS "$BASE/v1/stats" > "$WORK/stats.json"
grep -q '"computed": 0' "$WORK/stats.json" \
    || { echo "restarted service recomputed instead of serving the stored cell" >&2; cat "$WORK/stats.json" >&2; exit 1; }
RESTART_ID="$(header x-taopt-run-id)"
curl -fsS "$BASE/v1/runs/$RESTART_ID/export" > "$WORK/restart-export.json"
diff "$WORK/served-export.json" "$WORK/restart-export.json" \
    || { echo "post-restart export is not byte-identical" >&2; exit 1; }

echo "service-e2e: ok (export $(wc -c < "$WORK/served-export.json") bytes, run $RUN_ID cached and served across a restart)"
