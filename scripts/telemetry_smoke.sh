#!/usr/bin/env bash
# Telemetry smoke test: run a scaled-down sweep with the live introspection
# server attached, curl every endpoint while cells are in flight, assert
# the Prometheus exposition is well-formed, then force a failure and check
# the flight recorder dumped. Artifacts (the sweeps' -out files: span
# journal and its rendered trace, flight dumps, per-cell reports; plus the
# curled endpoint bodies) land in the directory given by $1 (default: a
# temp dir).
set -euo pipefail

out=${1:-$(mktemp -d)}
mkdir -p "$out"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/experiments" ./cmd/experiments

addr=127.0.0.1:9180

# A sweep big enough to still be running when we curl (scale grows the
# workloads; fig12 is an 8-benchmark x 6-associativity sweep).
"$work/experiments" -run fig12 -scale 6 \
    -telemetry-addr "$addr" -out "$out" \
    2> "$out/suite.log" &
pid=$!

# Wait for the server to come up.
for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" > /dev/null 2>&1 && break
    sleep 0.2
done
curl -sf "http://$addr/healthz" | grep -qx ok

# Capture the live endpoints mid-run.
curl -sf "http://$addr/metrics" > "$out/metrics.prom"
curl -sf "http://$addr/runs"    > "$out/runs.json"

# Prometheus exposition well-formedness: every non-comment line is
# `name{labels} value`, and every sample's name has HELP and TYPE headers
# somewhere before it.
awk '
  /^# HELP / { help[$3] = 1; next }
  /^# TYPE / { if (!help[$3]) { print "TYPE before HELP: " $0; exit 1 }
               type[$3] = 1; next }
  /^$/ { next }
  {
    if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$/) {
      print "malformed sample: " $0; exit 1
    }
    name = $0; sub(/[{ ].*/, "", name)
    if (!help[name] || !type[name]) { print "unheaded sample: " $0; exit 1 }
  }
' "$out/metrics.prom"
grep -q '^sta_suite_info{run="' "$out/metrics.prom"
grep -q '^sta_suite_cells_done_total ' "$out/metrics.prom"

# /runs is JSON and names the same run as /metrics.
python3 - "$out" <<'EOF'
import json, re, sys
out = sys.argv[1]
doc = json.load(open(f"{out}/runs.json"))
run = re.search(r'sta_suite_info\{run="([^"]+)"\}', open(f"{out}/metrics.prom").read()).group(1)
assert doc["run"] == run, (doc["run"], run)
assert isinstance(doc["cells"], list)
EOF

wait "$pid"
echo "live sweep finished; $(wc -l < "$out/spans.jsonl") spans journaled"

# Closing the sweep rendered the span journal as a Perfetto trace.
python3 -m json.tool "$out/spans.trace.json" > /dev/null

# Forced failure: seeded chaos panics every cell; each must produce a
# flight-recorder dump next to the span journal.
if "$work/experiments" -run fig8 -workers 2 -chaos-seed 9 -chaos-panic 1 \
    -out "$out" 2>> "$out/suite.log"; then
    echo "FAIL: chaos suite unexpectedly succeeded" >&2
    exit 1
fi
ls "$out"/flight-*.json > /dev/null
for f in "$out"/flight-*.json; do
    python3 -m json.tool "$f" > /dev/null
done
grep -q 'flight=' "$out/suite.log"

echo "PASS: telemetry endpoints healthy, Prometheus output well-formed, flight recorder dumped"
echo "artifacts in $out"
