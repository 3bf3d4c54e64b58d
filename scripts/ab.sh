#!/usr/bin/env bash
# Alternating A/B runs of two builds of the replay benchmark (`benchmark/`).
#
#   scripts/ab.sh [--layers METRIC[,METRIC...]] PARENT_BIN CHANGE_BIN WORKLOAD[,WORKLOAD...] SECONDS SEED...
#
# PARENT_BIN and CHANGE_BIN are `pulse-replay-bench` executables, each built
# from its own checkout with
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
# (the executable lands in benchmark/target/release/). For each workload in
# the comma-separated list, and every seed, both run `--workload WORKLOAD
# --seed SEED --seconds SECONDS --trace 0`; which one runs first alternates
# from seed to seed. Each run's end-to-end metrics and output fingerprint
# are printed as it finishes. Each workload's summary gives, per metric,
# each side's median and quartiles, the parent's IQR, the ratio of the
# change's median to the parent's, and how many seeds the change won
# (better as BENCHMARK.json declares it; ties count for neither).
#
# --layers runs the same alternation with `--trace 1` instead and reports
# only the named per-layer metrics (e.g. hybrid.sync_s,plan.glue_s):
# single traced runs of one build swing widely on a loaded host, so a
# layer's move is judged on medians over alternating pairs too.
#
# Exits 1 when a run fails its own output checks or the two fingerprints
# for a seed differ, i.e. the builds' outputs are not bit-identical, on any
# workload.
set -euo pipefail

layers="" trace=0
if [[ "${1:-}" == --layers ]]; then
    layers="${2:-}" trace=1
    shift 2 || true
fi
if (($# < 5)) || [[ "$trace" == 1 && -z "$layers" ]]; then
    sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent="$1" change="$2" seconds="$4"
benchmark_json="$(dirname "$0")/../BENCHMARK.json"
IFS=, read -ra workloads <<<"$3"
shift 4

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

# `report run RUNS SIDE SEED` prints one run; `report summary RUNS SEED...`
# compares the sides.
report=$(
    cat <<'EOF'
import json, statistics, sys

LAYERS = [m for m in sys.argv[1].split(",") if m]
declared = json.load(open(sys.argv[2]))
HIGHER_IS_BETTER = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]
                    if m["better"] == "higher"}

def load(runs, side, seed):
    """A run's result line and output fingerprint; no result line counts as a failed run."""
    lines = open(f"{runs}/{side}-{seed}.log").read().splitlines()
    meta = next((json.loads(l[5:]) for l in reversed(lines) if l.startswith("meta ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    return result, meta.get("fingerprint")

def quartiles(xs):
    if len(xs) < 2:
        return xs * 3
    return statistics.quantiles(xs, n=4, method="inclusive")

def shown(metrics):
    """The metrics a report covers: all of them, or only the named layers."""
    return [n for n in metrics if not LAYERS or n in LAYERS]

mode, runs, args = sys.argv[3], sys.argv[4], sys.argv[5:]
if mode == "run":
    side, seed = args
    result, fingerprint = load(runs, side, seed)
    metrics = " ".join(f"{k}={result['metrics'][k]['value']:.6g}" for k in shown(result["metrics"]))
    ok = "ok" if result["correct"] else "FAILED"
    print(f"seed {seed} {side:6} {ok} fingerprint={fingerprint} {metrics}")
    sys.exit(0)

seeds, status = args, 0
results = {side: {seed: load(runs, side, seed) for seed in seeds} for side in ("parent", "change")}
for seed in seeds:
    (p, p_fp), (c, c_fp) = results["parent"][seed], results["change"][seed]
    if not (p["correct"] and c["correct"]):
        print(f"seed {seed}: a run failed its output checks")
        status = 1
    if p_fp != c_fp:
        print(f"seed {seed}: fingerprints differ: parent {p_fp}, change {c_fp}")
        status = 1
names = [n for n in shown(results["parent"][seeds[0]][0]["metrics"])
         if all(n in results[side][s][0]["metrics"] for side in results for s in seeds)]
for name in LAYERS:
    if name not in names:
        print(f"{name}: not reported by every run")
        status = 1
w = max([16] + [len(n) for n in names])
print(f"\n{'metric':{w}} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} {'parent IQR':>11} {'ratio':>6} wins")
for name in names:
    p = [results["parent"][s][0]["metrics"][name]["value"] for s in seeds]
    c = [results["change"][s][0]["metrics"][name]["value"] for s in seeds]
    sign = 1 if name in HIGHER_IS_BETTER else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "n/a"
    print(f"{name:{w}} {fmt(pq):>34} {fmt(cq):>34} {pq[2] - pq[0]:>11.4g} {ratio:>6} {wins}/{len(seeds)}")
sys.exit(status)
EOF
)

status=0
for workload in "${workloads[@]}"; do
    echo "== $workload"
    dir="$runs/$workload"
    mkdir -p "$dir"
    i=0
    for seed in "$@"; do
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            bin="$parent"
            [[ "$side" == change ]] && bin="$change"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                >"$dir/$side-$seed.log" 2>&1 || true
            python3 -c "$report" "$layers" "$benchmark_json" run "$dir" "$side" "$seed"
        done
        i=$((i + 1))
    done
    python3 -c "$report" "$layers" "$benchmark_json" summary "$dir" "$@" || status=1
    echo
done
exit "$status"
