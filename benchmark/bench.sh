#!/usr/bin/env bash
# Run every workload K times in each of two sets, alternating which set
# goes first, and report per end-to-end metric the median and quartiles of
# each set, the spread (interquartile range over the median), and the shift
# of the second set's median from the first's, against the bounds in
# BENCHMARK.json. Set A uses seeds 1..K, set B seeds K+1..2K.
#
#   bash benchmark/bench.sh [-k 10] [-seconds N] [workload ...]
#
# A spread above a third of its bound is flagged "noisy", above the bound
# (setup_s excepted) or a shift above the bound "FAIL"; the script then
# exits 1. When a metric misses, lengthen its pass rather than widen the
# bound. Results are kept under the build directory, one JSON line per run.
set -euo pipefail

cd "$(dirname "$0")/.."
k=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while [[ $# -gt 0 ]]; do
    case $1 in
        -k) k=$2; shift 2 ;;
        -seconds) seconds=$2; shift 2 ;;
        *) break ;;
    esac
done
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

out=${CARGO_TARGET_DIR:-.bench_build}/bench-$(date +%Y%m%dT%H%M%S)
mkdir -p "$out"
echo "host: nproc $(nproc), $(go version), results in $out" >&2
for i in $(seq 1 "$k"); do
    sets=(A B)
    if (( i % 2 == 0 )); then sets=(B A); fi
    for set in "${sets[@]}"; do
        seed=$i
        if [[ $set == B ]]; then seed=$((k + i)); fi
        for w in "${workloads[@]}"; do
            echo "run $i set $set $w seed $seed" >&2
            bash benchmark/run.sh -workload "$w" -seed "$seed" -seconds "$seconds" -trace 0 \
                | tail -n 1 > "$out/$set.$w.$seed.json" || true
        done
    done
done

python3 - "$out" <<'EOF'
import glob, json, os, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = {}
bad = False
for path in sorted(glob.glob(os.path.join(out, "*.json"))):
    st, w, _, _ = os.path.basename(path).split(".", 3)
    try:
        res = json.loads(open(path).read())
    except ValueError:
        res = {"correct": False}
    if not res.get("correct"):
        print(f"FAIL: {path} is not a correct run")
        bad = True
        continue
    runs.setdefault((w, st), []).append(res["metrics"])

def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)

print(f"{'workload':15} {'metric':12} {'n':>3} {'A median':>11} {'A q1..q3':>23} {'A spr':>6} "
      f"{'B median':>11} {'B spr':>6} {'shift':>7} {'bound':>6}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    a, b = runs.get((w, "A"), []), runs.get((w, "B"), [])
    if len(a) < 2 or len(b) < 2:
        continue
    for name, bound in bounds.items():
        av = [r[name]["value"] for r in a]
        bv = [r[name]["value"] for r in b]
        am, aq1, aq3, asp = summary(av)
        bm, _, _, bsp = summary(bv)
        shift = (bm - am) / am if better[name] == "lower" else (am - bm) / am
        verdict = "ok"
        if max(asp, bsp) > bound / 3:
            verdict = "noisy"
        if (name != "setup_s" and max(asp, bsp) > bound) or shift > bound:
            verdict = "FAIL"
            bad = True
        print(f"{w:15} {name:12} {len(av):3} {am:11.5g} {aq1:11.5g}..{aq3:<11.5g} {asp:6.1%} "
              f"{bm:11.5g} {bsp:6.1%} {shift:+7.1%} {bound:6.0%}  {verdict}")
sys.exit(1 if bad else 0)
EOF
