#!/usr/bin/env sh
# Serve daemon drill: `coachlm serve` end to end, as an operator runs it.
#   1. train a small coach checkpoint;
#   2. boot the daemon on a free port and wait for /healthz;
#   3. a served revision is byte-identical to `coachlm revise`;
#   4. hot reload under traffic, via POST /admin/reload and then SIGHUP:
#      no request fails and model_version reaches 3;
#   5. a hostile body is a typed 400 and the daemon stays up;
#   6. SIGTERM drains within 10 s (exit 0), the run report validates, the
#      "serve drained:" line's counts equal the report's serve.requests_*
#      and serve.connections_accepted, and serve.reloads_ok is exactly 2.
#
#   tests/drills/serve_daemon.sh path/to/coachlm
#
# Registered with ctest under the `drill` label (ctest -L drill). ctest
# runs tests in parallel, so the port is drawn at random and redrawn when
# the bind fails. Needs curl; without it the drill exits 77, which ctest
# reports as skipped (CI checks for curl first, so there it cannot skip).
set -eu

if [ "$#" -ne 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 path/to/coachlm" >&2
  exit 2
fi
if ! command -v curl > /dev/null; then
  echo "serve_daemon: curl not found; skipping" >&2
  exit 77
fi
coachlm="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
work="$(mktemp -d)"
pid=""
cleanup() {
  if [ -n "$pid" ]; then kill -KILL "$pid" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 1' INT TERM
cd "$work"

fail() {
  echo "serve_daemon: FAIL: $*" >&2
  if [ -f serve.log ]; then cat serve.log >&2; fi
  exit 1
}

# 1. Train.
"$coachlm" generate --size 2000 --seed 42 --threads 1 \
  --out corpus.jsonl --format jsonl > /dev/null
"$coachlm" study --in corpus.jsonl --sample 400 \
  --out revisions.jsonl > /dev/null
"$coachlm" train --revisions revisions.jsonl --alpha 0.3 \
  --checkpoint coach.json > /dev/null

# 2. Boot on a random high port. The daemon prints "serving on" once it
# has bound; a bind failure makes it exit instead, so redraw the port.
bound=0
for attempt in 1 2 3 4 5 6 7 8; do
  port=$((20000 + $(od -An -N2 -tu2 /dev/urandom | tr -d ' ') % 40000))
  "$coachlm" serve --checkpoint coach.json --port "$port" \
    --serve-workers 4 --queue-depth 64 --request-deadline-ms 5000 \
    --metrics-out report.json > serve.log 2>&1 &
  pid=$!
  for i in $(seq 1 100); do
    if grep -q '^serving on' serve.log; then bound=1; break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.1
  done
  if [ "$bound" -eq 1 ]; then break; fi
  kill -0 "$pid" 2>/dev/null && fail "daemon never bound"
  wait "$pid" || true
  pid=""
  grep -q 'bind(' serve.log || fail "daemon exited at boot"
done
[ "$bound" -eq 1 ] || fail "no free port after $attempt attempts"
url="localhost:$port"
curl -fsS --max-time 5 "$url/healthz" > health.json || fail "no /healthz"
grep -q '"status":"ok"' health.json || fail "healthz: $(cat health.json)"

# 3. Served revision equals batch revise, byte for byte.
head -1 corpus.jsonl > one.jsonl
"$coachlm" revise --in one.jsonl --checkpoint coach.json \
  --out batch_one.jsonl --format jsonl > /dev/null
curl -fsS --max-time 30 --data-binary @one.jsonl "$url/v1/revise" \
  > served_one.jsonl
cmp batch_one.jsonl served_one.jsonl || fail "served != batch revise"

# 4. Hot reload under traffic: an HTTP reload, then SIGHUP.
head -5 corpus.jsonl > five.jsonl
traffic=""
for i in $(seq 1 40); do
  (curl -fsS --max-time 30 --data-binary @five.jsonl "$url/v1/revise" \
     > /dev/null 2>&1 || echo "$i" >> failed_requests) &
  traffic="$traffic $!"
done
curl -fsS --max-time 30 -X POST "$url/admin/reload" > reload.json
grep -q '"version":2' reload.json || fail "reload: $(cat reload.json)"
kill -HUP "$pid"
wait_for_version() {
  for i in $(seq 1 100); do
    if curl -fsS --max-time 5 "$url/healthz" 2>/dev/null |
        grep -q "\"model_version\":$1"; then
      return 0
    fi
    sleep 0.1
  done
  return 1
}
wait_for_version 3 || fail "SIGHUP reload never reached model_version 3"
for job in $traffic; do wait "$job"; done
[ ! -e failed_requests ] || fail "$(wc -l < failed_requests) requests failed"

# 5. Hostile body: typed 400, daemon still healthy.
code=$(curl -s --max-time 30 -o /dev/null -w '%{http_code}' \
  --data-binary '{"garbage": [[[[' "$url/v1/revise")
[ "$code" = "400" ] || fail "hostile body answered $code, want 400"
curl -fsS --max-time 5 "$url/healthz" > /dev/null || fail "daemon died"

# 6. SIGTERM drains within 10 s; the drained line and the run report agree.
kill -TERM "$pid"
for i in $(seq 1 50); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
kill -0 "$pid" 2>/dev/null && fail "drain took >10s"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || fail "daemon exited $status after SIGTERM"
"$coachlm" metrics --validate report.json > /dev/null ||
  fail "run report does not validate"

drained=$(grep '^serve drained: ' serve.log) || fail "no drained line"
# "serve drained: N connections, N ok, N shed, N client errors, N server
# errors, N deadline, N reloads (N rejected)"
count() {  # count <label>: the number before <label> in the drained line
  echo "$drained" | sed -n "s/.*[ (]\([0-9][0-9]*\) $1[ ,)].*/\1/p"
}
counter() {  # counter <name>: the run report's counter, 0 when elided
  value=$(sed -n "s/^ *\"$1\": \([0-9][0-9]*\),*$/\1/p" report.json)
  echo "${value:-0}"
}
expect_equal() {
  [ "$2" = "$3" ] || fail "$1: drained line says '$2', run report '$3'"
}
expect_equal connections "$(count connections)" \
  "$(counter serve.connections_accepted)"
expect_equal ok "$(count ok)" "$(counter serve.requests_ok)"
expect_equal shed "$(count shed)" "$(counter serve.requests_shed)"
expect_equal "client errors" "$(count 'client errors')" \
  "$(counter serve.requests_client_error)"
expect_equal "server errors" "$(count 'server errors')" \
  "$(counter serve.requests_server_error)"
expect_equal deadline "$(count deadline)" \
  "$(counter serve.requests_deadline_exceeded)"
expect_equal reloads "$(count reloads)" "$(counter serve.reloads_ok)"
expect_equal rejected "$(count rejected)" \
  "$(counter serve.reloads_rejected)"
[ "$(counter serve.reloads_ok)" = "2" ] ||
  fail "serve.reloads_ok is $(counter serve.reloads_ok), want 2"
answered=$(($(count ok) + $(count shed) + $(count 'client errors') +
             $(count 'server errors') + $(count deadline)))
[ "$answered" = "$(count connections)" ] ||
  fail "answered $answered of $(count connections) connections"
echo "serve_daemon: OK ($drained)"
