#!/usr/bin/env bash
# Cross-run analytics smoke test: archive a mini-sweep (three benchmarks
# under the original machine and two WEC sizes), then exercise every simql
# surface end to end — list, a self-comparison that must sit exactly at
# zero, a degraded-config comparison that must trip the regression exit
# code, the Pareto frontier, and the HTML dashboard (which must be fully
# self-contained: no external scripts, styles, or fonts).
#
# Usage: scripts/analytics_smoke.sh [artifact-dir]
# If an artifact directory is given, report.html is copied there for upload.
set -euo pipefail

artifacts=${1:-}
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/stasim" ./cmd/stasim
go build -o "$work/simql" ./cmd/simql
runs="$work/runs"

# Mini-sweep: 3 benchmarks x {orig, WEC-2, WEC-16} on the 8-TU machine.
# The WEC cells carry fill attribution so the dashboard's fill-class
# panel has data.
for b in mcf gzip vpr; do
    "$work/stasim" -bench "$b" -config orig -archive "$runs" > /dev/null
    "$work/stasim" -bench "$b" -config wth-wp-wec -side 2 -attrib -archive "$runs" > /dev/null
    "$work/stasim" -bench "$b" -config wth-wp-wec -side 16 -attrib -archive "$runs" > /dev/null
done

cells=$("$work/simql" list -root "$runs" | tail -n +2 | grep -c .)
if [[ "$cells" -ne 9 ]]; then
    echo "FAIL: archive holds $cells cells, want 9" >&2
    "$work/simql" list -root "$runs" >&2
    exit 1
fi

# Re-archiving an identical cell must be a no-op (content addressing).
"$work/stasim" -bench mcf -config orig -archive "$runs" > /dev/null
cells2=$("$work/simql" list -root "$runs" | tail -n +2 | grep -c .)
if [[ "$cells2" -ne 9 ]]; then
    echo "FAIL: re-archiving an identical run grew the archive to $cells2 cells" >&2
    exit 1
fi

# Self-comparison: the simulator is deterministic, so A vs A is exactly
# zero on every metric and must exit 0.
if ! "$work/simql" diff -root "$runs" "config=wth-wp-wec,side=16" "config=wth-wp-wec,side=16" > "$work/self.txt"; then
    echo "FAIL: self-comparison tripped the regression exit code" >&2
    cat "$work/self.txt" >&2
    exit 1
fi
grep -q '+0.00%' "$work/self.txt" || {
    echo "FAIL: self-comparison is not exactly zero:" >&2
    cat "$work/self.txt" >&2
    exit 1
}

# Degraded config: dropping from WEC-16 back to orig must flag a
# significant IPC regression and exit nonzero (positive delta = B better,
# so B=orig is the regression side).
if "$work/simql" diff -root "$runs" "config=wth-wp-wec,side=16" "config=orig" > "$work/regress.txt"; then
    echo "FAIL: WEC-16 -> orig did not trip the regression exit code" >&2
    cat "$work/regress.txt" >&2
    exit 1
fi
grep -q 'REGRESSED' "$work/regress.txt" || {
    echo "FAIL: nonzero exit without a REGRESSED verdict:" >&2
    cat "$work/regress.txt" >&2
    exit 1
}

# Pareto frontier over the three configurations.
"$work/simql" pareto -root "$runs" -base "config=orig" > "$work/pareto.txt"
grep -q 'frontier' "$work/pareto.txt" || {
    echo "FAIL: pareto output missing frontier markers:" >&2
    cat "$work/pareto.txt" >&2
    exit 1
}

# Dashboard: must render, carry the speedup and fill-class panels, and be
# fully self-contained (zero external references).
"$work/simql" report -root "$runs" -base "config=orig" -o "$work/report.html"
for panel in chart-speedup chart-fillclass; do
    grep -q "$panel" "$work/report.html" || {
        echo "FAIL: report.html is missing $panel" >&2
        exit 1
    }
done
ext=$(grep -c 'src=\|href=' "$work/report.html" || true)
if [[ "$ext" -ne 0 ]]; then
    echo "FAIL: report.html carries $ext external references (src=/href=)" >&2
    grep -n 'src=\|href=' "$work/report.html" >&2
    exit 1
fi

if [[ -n "$artifacts" ]]; then
    mkdir -p "$artifacts"
    cp "$work/report.html" "$artifacts/report.html"
    cp "$work/self.txt" "$work/regress.txt" "$work/pareto.txt" "$artifacts/"
fi
echo "PASS: archive, diff (self + regression), pareto, and self-contained report all check out"
