#!/usr/bin/env bash
# End-to-end smoke test of the command-line tools:
#   trace_inspect generates a sample .ptt; perftrack inspects, slices and
#   tracks it; ptconvert round-trips it through the Paraver format.
set -euo pipefail

TOOLS_DIR=$1
EXAMPLES_DIR=$2
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT
cd "$WORK_DIR"

echo "== generate a sample trace =="
"$EXAMPLES_DIR/trace_inspect" > /dev/null
test -f hydroc_sample.ptt

echo "== perftrack inspect =="
"$TOOLS_DIR/perftrack" inspect hydroc_sample.ptt | grep -q "behavioural clusters"

echo "== perftrack evolve with CSV and HTML output =="
"$TOOLS_DIR/perftrack" evolve --intervals 4 hydroc_sample.ptt \
    --csv trends.csv --html report.html | grep -q "coverage 100%"
test -s trends.csv
head -1 trends.csv | grep -q "region,frame"
grep -q "<!DOCTYPE html>" report.html

echo "== perftrack track over two interval slices =="
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    --matrices | grep -q "tracked regions: 2"

echo "== perftrack track with telemetry sinks =="
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    --profile profile.json --trace-events trace_events.json \
    2> telemetry.log | grep -q "tracked regions: 2"
test -s profile.json
test -s trace_events.json
# The run report covers every pipeline stage...
grep -q '"schema":"perftrack-run-report"' profile.json
for span in dbscan session_retrack track_frames frame_alignment \
            evaluator_displacement evaluator_spmd evaluator_callstack \
            evaluator_sequence needleman_wunsch; do
  grep -q "\"$span\"" profile.json
done
# ...and the per-evaluator relation/prune counters.
for counter in links_proposed links_pruned_callstack \
               spmd_merges_pruned_callstack alignment_cells; do
  grep -q "\"$counter\"" profile.json
done
grep -q '"traceEvents"' trace_events.json
grep -q '"ph":"B"' trace_events.json
# The stage summary lands on stderr, keeping stdout scriptable.
grep -q "% run" telemetry.log
if command -v python3 > /dev/null; then
  python3 -c "import json; json.load(open('profile.json')); \
json.load(open('trace_events.json'))"
fi

echo "== parallel tracking is bit-identical to serial =="
"$TOOLS_DIR/perftrack" evolve --intervals 4 hydroc_sample.ptt \
    --threads 1 --csv run_trends.csv > serial.out
mv run_trends.csv serial_trends.csv
"$TOOLS_DIR/perftrack" evolve --intervals 4 hydroc_sample.ptt \
    --threads 4 --csv run_trends.csv > parallel.out
mv run_trends.csv parallel_trends.csv
diff serial.out parallel.out
diff serial_trends.csv parallel_trends.csv
# The run report records how many workers the tracker used.
"$TOOLS_DIR/perftrack" evolve --intervals 4 hydroc_sample.ptt --threads 2 \
    --profile threads_profile.json > /dev/null 2>&1
grep -q '"threads":2' threads_profile.json

echo "== ptconvert round trip through Paraver =="
"$TOOLS_DIR/ptconvert" to-prv hydroc_sample.ptt pv_base | grep -q "wrote"
test -s pv_base.prv
test -s pv_base.pcf
"$TOOLS_DIR/ptconvert" to-ptt pv_base back.ptt | grep -q "wrote"
"$TOOLS_DIR/perftrack" inspect back.ptt | grep -q "behavioural clusters"

echo "== bad flag values are usage errors (exit 2), not crashes =="
for bad in "--eps banana" "--eps -1" "--min-pts -3" "--min-pts 0" \
           "--threads many" "--threads 257" "--min-cluster-frac 2"; do
  rc=0
  # shellcheck disable=SC2086
  "$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt $bad \
      > /dev/null 2> bad_flag.err || rc=$?
  test "$rc" -eq 2 || { echo "expected exit 2 for '$bad', got $rc" >&2; exit 1; }
  grep -q "invalid value" bad_flag.err
  grep -q "usage: perftrack" bad_flag.err
done
rc=0
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt --eps \
    2> /dev/null || rc=$?
test "$rc" -eq 2
rc=0
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt --bogus \
    2> /dev/null || rc=$?
test "$rc" -eq 2
# Flags of removed features are usage errors, except perftrackd's
# --no-cache: older scripts pass it, so it is accepted and has no effect.
rc=0
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    --cache-dir fcache 2> /dev/null || rc=$?
test "$rc" -eq 2
test ! -e fcache
rc=0
"$TOOLS_DIR/perftrackd" --front --socket front.sock 2> /dev/null || rc=$?
test "$rc" -eq 2
rc=0
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    --align-engine full 2> /dev/null || rc=$?
test "$rc" -eq 2
rc=0
"$TOOLS_DIR/perftrackd" --align-engine full --stdio < /dev/null \
    2> /dev/null || rc=$?
test "$rc" -eq 2
printf '{"id":1,"method":"ping"}\n' | "$TOOLS_DIR/perftrackd" --stdio \
    --no-cache | grep -q '"pong":true'

echo "== bad input is rejected cleanly =="
if "$TOOLS_DIR/perftrack" track only_one.ptt 2> /dev/null; then
  echo "expected failure on a single input" >&2
  exit 1
fi

echo "== lenient ingestion of a corrupted trace (exit 5, diagnostics) =="
cp hydroc_sample.ptt corrupt.ptt
printf 'burst 0 bad bad bad\n%%%%%% garbage line\nburst 9999\n' >> corrupt.ptt
rc=0
"$TOOLS_DIR/perftrack" track corrupt.ptt hydroc_sample.ptt --lenient \
    > lenient.out 2> lenient.err || rc=$?
test "$rc" -eq 5
grep -q "tracked regions" lenient.out
grep -q "bad-burst" lenient.err
grep -q "unknown-record" lenient.err
grep -q "errors" lenient.err
grep -q "degraded run" lenient.err

echo "== strict mode fails fast with the parse exit code =="
rc=0
"$TOOLS_DIR/perftrack" track corrupt.ptt hydroc_sample.ptt \
    2> strict.err || rc=$?
test "$rc" -eq 3
grep -q "parse error" strict.err

echo "== a task count of 0 is a parse error (exit 3), not a crash =="
printf '#PTT 1\napp zero\ntasks 0\nburst 0 0 0.5 0 1 1 0 0 0\n' > zero_tasks.ptt
rc=0
"$TOOLS_DIR/perftrack" inspect zero_tasks.ptt 2> zero_tasks.err || rc=$?
test "$rc" -eq 3
grep -q "bad task count: 0" zero_tasks.err

echo "== a task count above 2^20 is a parse error (exit 3), not an allocation =="
printf '#PTT 1\napp huge\ntasks 4294967295\nburst 0 0 0.5 0 1 1 0 0 0\n' \
    > huge_tasks.ptt
rc=0
"$TOOLS_DIR/perftrack" inspect huge_tasks.ptt 2> huge_tasks.err || rc=$?
test "$rc" -eq 3
grep -q "bad task count: 4294967295" huge_tasks.err

echo "== missing input uses the io exit code =="
rc=0
"$TOOLS_DIR/perftrack" track nonexistent.ptt hydroc_sample.ptt \
    2> /dev/null || rc=$?
test "$rc" -eq 4

echo "== unreadable file becomes a gap under --lenient =="
rc=0
"$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    nonexistent.ptt --lenient > gap.out 2> gap.err || rc=$?
test "$rc" -eq 5
grep -q "gap at slot 3: nonexistent.ptt" gap.out
grep -q "skipping nonexistent.ptt" gap.err

echo "== injected fault becomes a gap under --lenient =="
rc=0
PERFTRACK_FAILPOINTS="cluster_experiment=@2" \
    "$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
    hydroc_sample.ptt --lenient > fault.out 2> /dev/null || rc=$?
test "$rc" -eq 5
grep -q "injected fault" fault.out

echo "== perftrackd --stdio: append, retrack, read, drained shutdown =="
cat > daemon_in.ndjson <<EOF
{"id":1,"method":"ping"}
{"id":2,"method":"open_study","study":"smoke"}
{"id":3,"method":"append_experiment","study":"smoke","params":{"path":"hydroc_sample.ptt","label":"run-1"}}
{"id":4,"method":"append_experiment","study":"smoke","params":{"path":"hydroc_sample.ptt","label":"run-2"}}
{"id":5,"method":"retrack","study":"smoke"}
{"id":6,"method":"regions","study":"smoke"}
{"id":7,"method":"coverage","study":"smoke"}
{"id":8,"method":"trends","study":"smoke","params":{"metric":"IPC"}}
{"id":9,"method":"stats"}
{"id":10,"method":"shutdown"}
EOF
"$TOOLS_DIR/perftrackd" --stdio < daemon_in.ndjson > daemon_out.ndjson
# Every request answered exactly once, none failed.
test "$(wc -l < daemon_out.ndjson)" -eq 10
if grep -q '"ok":false' daemon_out.ndjson; then
  echo "daemon rejected a request:" >&2
  grep '"ok":false' daemon_out.ndjson >&2
  exit 1
fi
grep -q '"coverage"' daemon_out.ndjson

if command -v python3 > /dev/null; then
  # The daemon's trends CSV must be the very bytes the batch CLI prints.
  python3 - <<'PY'
import json
ids = []
for line in open("daemon_out.ndjson"):
    response = json.loads(line)
    assert response["ok"], response
    ids.append(response["id"])
    if response["id"] == 8:
        open("daemon_trends.csv", "w").write(response["result"]["csv"])
assert ids == sorted(ids), f"responses out of order: {ids}"
PY
  "$TOOLS_DIR/perftrack" track hydroc_sample.ptt hydroc_sample.ptt \
      --csv batch_trends.csv > /dev/null
  diff daemon_trends.csv batch_trends.csv
fi

echo "== perftrackd error paths: typed errors, usage exit code =="
printf '{"id":1,"method":"nope"}\n{"id":2,"method":"regions","study":"ghost"}\nnot json\n' \
    | "$TOOLS_DIR/perftrackd" --stdio > daemon_err.ndjson
test "$(wc -l < daemon_err.ndjson)" -eq 3
grep -q '"unknown-method"' daemon_err.ndjson
grep -q '"unknown-study"' daemon_err.ndjson
grep -q '"bad-request"' daemon_err.ndjson
# EOF with no shutdown request still drains and exits cleanly.
printf '{"id":1,"method":"ping"}\n' | "$TOOLS_DIR/perftrackd" --stdio \
    | grep -q '"ok":true'
# Transport is mandatory: neither or both of --stdio/--socket is usage.
rc=0
"$TOOLS_DIR/perftrackd" 2> /dev/null || rc=$?
test "$rc" -eq 2
rc=0
"$TOOLS_DIR/perftrackd" --stdio --socket s.sock 2> /dev/null || rc=$?
test "$rc" -eq 2

echo "== perftrackd live metrics: health + metrics over stdio =="
cat > metrics_in.ndjson <<EOF
{"id":1,"method":"ping"}
{"id":2,"method":"health"}
{"id":3,"method":"metrics"}
{"id":4,"method":"metrics","params":{"format":"prometheus"}}
EOF
"$TOOLS_DIR/perftrackd" --stdio < metrics_in.ndjson > metrics_out.ndjson
test "$(wc -l < metrics_out.ndjson)" -eq 4
if grep -q '"ok":false' metrics_out.ndjson; then
  echo "metrics request failed:" >&2
  grep '"ok":false' metrics_out.ndjson >&2
  exit 1
fi
grep -q '"draining":false' metrics_out.ndjson
# The JSON snapshot carries the request counters and latency histograms...
grep -q 'perftrackd_requests_total' metrics_out.ndjson
grep -q 'perftrackd_handler_ns' metrics_out.ndjson
# ...and the prometheus rendering is exposition format 0.0.4.
grep -q '# HELP perftrackd_requests_total' metrics_out.ndjson
grep -q '# TYPE perftrackd_handler_ns histogram' metrics_out.ndjson
# --no-metrics keeps the surface but records nothing.
printf '{"id":1,"method":"ping"}\n{"id":2,"method":"metrics"}\n' \
    | "$TOOLS_DIR/perftrackd" --stdio --no-metrics > metrics_off.ndjson
grep -q '"perftrackd_requests_total{method=\\"ping\\"}":0' metrics_off.ndjson

echo "== perftrackd --access-log: one line per request, phase breakdown =="
cat > access_in.ndjson <<EOF
{"id":1,"method":"ping"}
{"id":2,"method":"open_study","study":"logged"}
{"id":3,"method":"nope"}
EOF
"$TOOLS_DIR/perftrackd" --stdio --access-log access.ndjson \
    < access_in.ndjson > /dev/null
test "$(wc -l < access.ndjson)" -eq 3
grep -q '"method":"ping"' access.ndjson
grep -q '"study":"logged"' access.ndjson
grep -q '"outcome":"ok"' access.ndjson
grep -q '"outcome":"unknown-method"' access.ndjson
for field in ts_ms parse_us lock_us handler_us write_us total_us; do
  grep -q "\"$field\"" access.ndjson
done
if command -v python3 > /dev/null; then
  python3 -c "import json,sys; [json.loads(l) for l in open('access.ndjson')]"
fi

echo "== --slow-ms 0 dumps a span tree per request =="
printf '{"id":1,"method":"ping"}\n' | "$TOOLS_DIR/perftrackd" --stdio \
    --slow-ms 0 --access-log slow.ndjson > /dev/null
grep -q '"slow":true' slow.ndjson
grep -q '"spans"' slow.ndjson
grep -q 'serve_request' slow.ndjson

echo "== perftrack stat against a live socket daemon =="
"$TOOLS_DIR/perftrackd" --socket stat.sock > /dev/null 2>&1 &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2> /dev/null || true; rm -rf "$WORK_DIR"' EXIT
for _ in $(seq 1 100); do test -S stat.sock && break; sleep 0.1; done
test -S stat.sock
"$TOOLS_DIR/perftrack" stat stat.sock > stat.out
grep -q "perftrackd up" stat.out
grep -q "queue:" stat.out
# Two watch refreshes; by the second the latency table has a stats row.
"$TOOLS_DIR/perftrack" stat stat.sock --watch --interval 1 --count 2 \
    > stat_watch.out
test "$(grep -c 'perftrackd up' stat_watch.out)" -eq 2
grep -q '^method' stat_watch.out
grep -q '^stats ' stat_watch.out
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true

echo "cli smoke: OK"
