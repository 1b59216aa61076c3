#!/usr/bin/env bash
# End-to-end daemon lifecycle smoke test (also run as the CI daemon-smoke
# job): start `mui serve` with a durable cache, submit the example campaign
# manifest, restart the daemon, submit the same manifest again, and assert
# that the second run is answered almost entirely from the replayed cache
# (>= 90% hits; every job of the campaign is cacheable) using the
# daemon's own /metrics endpoint. Both daemons must drain and exit 0 on
# SIGTERM. A third round demonstrates the observability path end to end:
# a traced submit produces one merged Chrome trace with the job ULID in
# both process rings, /jobs reports in-flight phases, and the daemon
# journal passes (then, synthetically regressed, trips) the
# `mui stats --baseline` trend gate.
#
# usage: serve_smoke.sh <mui-binary> <manifest> <work-dir>
# (the adapter_automaton binary must sit next to the mui binary)
set -euo pipefail

MUI=$1
MANIFEST=$2
WORK=$3
ADAPTER=$(dirname "$MUI")/adapter_automaton

rm -rf "$WORK"
mkdir -p "$WORK"
CACHE="$WORK/cache.jsonl"
DAEMON_PID=""
PORT=""

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  for log in "$WORK"/serve-*.log; do
    [ -f "$log" ] && { echo "--- $log ---" >&2; cat "$log" >&2; }
  done
  [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null
  exit 1
}

start_daemon() { # $1: label, $2...: extra serve flags
  local label=$1
  shift
  rm -f "$WORK/port"
  "$MUI" serve --port 0 --port-file "$WORK/port" --cache "$CACHE" \
      --threads 4 --queue-limit 64 "$@" >"$WORK/serve-$label.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 150); do
    [ -s "$WORK/port" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon $label died on startup"
    sleep 0.1
  done
  [ -s "$WORK/port" ] || fail "daemon $label never wrote its port file"
  PORT=$(cat "$WORK/port")
}

stop_daemon() { # $1: label
  kill -TERM "$DAEMON_PID"
  local rc=0
  wait "$DAEMON_PID" || rc=$?
  DAEMON_PID=""
  [ "$rc" -eq 0 ] || fail "daemon $1 exited $rc after SIGTERM (want 0)"
  grep -q "drained" "$WORK/serve-$1.log" || fail "daemon $1 did not report a drain"
}

http_get() { # $1: path, $2: output file
  exec 3<>"/dev/tcp/127.0.0.1/$PORT" || fail "cannot connect for GET $1"
  printf 'GET %s HTTP/1.0\r\nHost: localhost\r\n\r\n' "$1" >&3
  cat <&3 >"$2"
  exec 3<&- 3>&-
}

submit() { # $1: label
  local rc=0
  "$MUI" submit "$MANIFEST" --port "$PORT" >"$WORK/submit-$1.log" 2>&1 || rc=$?
  # The campaign deliberately contains real-error jobs, so a healthy run
  # exits 1; 2 would mean a protocol or connection failure.
  [ "$rc" -eq 1 ] || fail "submit $1 exited $rc (want 1); log: $(cat "$WORK/submit-$1.log")"
  grep -q "real-error" "$WORK/submit-$1.log" || fail "submit $1 report lacks the expected real-error row"
}

metric() { # $1: metrics file, $2: metric name -> prints the value (0 if absent)
  awk -v name="$2" '$1 == name { print $2; found = 1 } END { if (!found) print 0 }' "$1"
}

# Round 1: cold cache.
start_daemon 1
http_get /healthz "$WORK/healthz.txt"
grep -q "200" "$WORK/healthz.txt" || fail "/healthz is not 200 on a fresh daemon"
submit 1
# The cold run must exercise the semantic pre-solve stage: the campaign's
# guaranteed-faulty jobs are decided statically (docs/LINT_RULES.md,
# "Verdict pre-solving") before the refinement loop ever spins up.
http_get /metrics "$WORK/metrics-1.txt"
PROVED=$(metric "$WORK/metrics-1.txt" mui_presolve_proved_total)
REFUTED=$(metric "$WORK/metrics-1.txt" mui_presolve_refuted_total)
SKIPPED=$(metric "$WORK/metrics-1.txt" mui_presolve_skipped_total)
[ $((PROVED + REFUTED)) -ge 1 ] || \
    fail "cold run pre-solved nothing: proved=$PROVED refuted=$REFUTED skipped=$SKIPPED"
stop_daemon 1
[ -s "$CACHE" ] || fail "cache log $CACHE is empty after the first run"

# Round 2: a NEW daemon process replays the cache log; the same manifest
# must now be answered from cache for every cacheable job.
start_daemon 2
submit 2
http_get /metrics "$WORK/metrics.txt"
http_get /stats "$WORK/stats.txt"
grep -q '"type":"stats"' "$WORK/stats.txt" || fail "/stats did not return a stats object"

HITS=$(metric "$WORK/metrics.txt" mui_engine_cache_hits_total)
MISSES=$(metric "$WORK/metrics.txt" mui_engine_cache_misses_total)
TOTAL=$((HITS + MISSES))
[ "$TOTAL" -gt 0 ] || fail "daemon 2 reports no cache lookups at all"
# hits/total >= 0.9, in integers.
[ $((HITS * 10)) -ge $((TOTAL * 9)) ] || \
    fail "second run hit rate too low: $HITS/$TOTAL (want >= 90%)"
grep -q "mui_serve_jobs_total" "$WORK/metrics.txt" || fail "/metrics lacks serve counters"
stop_daemon 2

# Compaction keeps the log replayable.
"$MUI" serve --cache "$CACHE" --compact >"$WORK/compact.log" 2>&1 || \
    fail "compaction failed: $(cat "$WORK/compact.log")"
grep -q "live record" "$WORK/compact.log" || fail "compaction printed no summary"

# Round 3: end-to-end observability (docs/OBSERVABILITY.md). A submit with
# --trace-out must produce ONE merged Chrome trace whose client ring and
# daemon ring share the job ULID, /jobs must report an in-flight job's
# phase while the queue drains, and the daemon journal must gate cleanly
# through `mui stats --baseline` (and trip the gate once synthetically
# regressed).
MODELS_DIR=$(cd "$(dirname "$MANIFEST")/../models" && pwd)
[ -x "$ADAPTER" ] || fail "no adapter_automaton next to $MUI"
# The gated device is deviceCompliant behind the reference adapter, started
# by a shell that first waits for $RELEASE: its job stays in flight until
# the poll below has seen a job, however fast the other jobs drain.
RELEASE="$WORK/release"
trap 'touch "$RELEASE"' EXIT
GATED="$WORK/gated.muml"
{
  cat "$MODELS_DIR/watchdog.muml"
  cat <<EOF
legacy deviceGated external "/bin/sh" {
  input ping;
  output pong;
  arg "-c";
  arg "while [ ! -e '$RELEASE' ]; do sleep 0.05; done; exec '$ADAPTER' '$MODELS_DIR/watchdog.muml' deviceCompliant --instance device";
  deadline-ms 60000;
}
EOF
} >"$GATED"
SPIN="$WORK/spin.manifest"
{
  echo "default model=$MODELS_DIR/watchdog.muml pattern=Watchdog role=device"
  # Distinct max-iterations values give every job a distinct cache key, so
  # each one really runs the refinement loop and /jobs has time to observe
  # the queue.
  for i in $(seq 1 40); do
    echo "job name=spin-$i hidden=deviceCompliant max-iterations=$((1000 + i))"
  done
  echo "job name=gated model=$GATED hidden=deviceGated"
} >"$SPIN"

JOURNAL="$WORK/daemon-journal.jsonl"
TRACE="$WORK/merged_trace.json"
start_daemon 3 --threads 2 --journal-out "$JOURNAL"
"$MUI" submit "$SPIN" --port "$PORT" --trace-out "$TRACE" \
    --trace-context smoke >"$WORK/submit-3.log" 2>&1 &
SUBMIT_PID=$!

# While the batch drains, /jobs must expose at least one in-flight job with
# a live phase and its ULID.
SAW_INFLIGHT=0
for _ in $(seq 1 200); do
  http_get /jobs "$WORK/jobs.txt" || true
  if grep -q '"phase":"' "$WORK/jobs.txt" && \
     grep -q '"ulid":"' "$WORK/jobs.txt"; then
    SAW_INFLIGHT=1
    break
  fi
  kill -0 "$SUBMIT_PID" 2>/dev/null || break
  sleep 0.02
done
touch "$RELEASE"
SUBMIT_RC=0
wait "$SUBMIT_PID" || SUBMIT_RC=$?
[ "$SUBMIT_RC" -eq 0 ] || \
    fail "traced submit exited $SUBMIT_RC; log: $(cat "$WORK/submit-3.log")"
[ "$SAW_INFLIGHT" -eq 1 ] || fail "/jobs never reported an in-flight job"
stop_daemon 3

# The merged trace holds both process rings...
[ -s "$TRACE" ] || fail "submit --trace-out wrote no trace"
grep -q '"mui-submit"' "$TRACE" || fail "merged trace lacks the client ring"
grep -q '"mui-serve"' "$TRACE" || fail "merged trace lacks the daemon ring"
# ...and at least one job ULID appears in events of BOTH pids, i.e. the
# correlation ID survived the wire protocol round trip.
SHARED=0
for id in $(grep -o '"id":"[0-9A-HJKMNP-TV-Z]\{26\}"' "$TRACE" | sort -u |
            cut -d'"' -f4); do
  PIDS=$(grep "\"id\":\"$id\"" "$TRACE" | grep -o '"pid":[0-9]*' | sort -u |
         wc -l)
  [ "$PIDS" -ge 2 ] && { SHARED=1; break; }
done
[ "$SHARED" -eq 1 ] || \
    fail "no job ULID is shared between the client and daemon trace rings"

# The daemon journal carries the correlation IDs and gates cleanly against
# itself...
[ -s "$JOURNAL" ] || fail "daemon 3 wrote no journal"
grep -q '"ulid":"' "$JOURNAL" || fail "daemon journal events carry no ulid"
"$MUI" stats "$JOURNAL" --baseline "$JOURNAL" >"$WORK/trend-ok.log" 2>&1 || \
    fail "clean trend gate tripped: $(cat "$WORK/trend-ok.log")"
grep -q "VERDICT: ok" "$WORK/trend-ok.log" || fail "clean trend gate lacks an ok verdict"
# ...while a synthetically regressed journal must trip the gate (exit 1).
sed 's/"iterations":[0-9]*/"iterations":9999/' "$JOURNAL" >"$WORK/regressed.jsonl"
RC=0
"$MUI" stats "$WORK/regressed.jsonl" --baseline "$JOURNAL" \
    >"$WORK/trend-bad.log" 2>&1 || RC=$?
[ "$RC" -eq 1 ] || fail "regressed trend gate exited $RC (want 1)"
grep -q "VERDICT: regressed" "$WORK/trend-bad.log" || \
    fail "regressed trend gate lacks a regressed verdict"

echo "serve_smoke: OK ($HITS/$TOTAL cache hits on the post-restart run; traced round saw in-flight jobs and a shared ULID)"
