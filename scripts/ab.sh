#!/usr/bin/env bash
# Alternating A/B runs of two builds of the replay benchmark (`benchmark/`).
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD[,WORKLOAD...] SECONDS SEED...
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
# (higher `tuples_per_s`, lower everything else; ties count for neither).
#
# Exits 1 when a run fails its own output checks or the two fingerprints
# for a seed differ, i.e. the builds' outputs are not bit-identical, on any
# workload.
set -euo pipefail

if (($# < 5)); then
    sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent="$1" change="$2" seconds="$4"
IFS=, read -ra workloads <<<"$3"
shift 4

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT

# `report run RUNS SIDE SEED` prints one run; `report summary RUNS SEED...`
# compares the sides.
report=$(
    cat <<'EOF'
import json, statistics, sys

LOWER_IS_BETTER = {"latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}

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

mode, runs, args = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "run":
    side, seed = args
    result, fingerprint = load(runs, side, seed)
    metrics = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
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
names = [n for n in results["parent"][seeds[0]][0]["metrics"]
         if all(n in results[side][s][0]["metrics"] for side in results for s in seeds)]
print(f"\n{'metric':16} {'parent q1/median/q3':>34} {'change q1/median/q3':>34} {'parent IQR':>11} {'ratio':>6} wins")
for name in names:
    p = [results["parent"][s][0]["metrics"][name]["value"] for s in seeds]
    c = [results["change"][s][0]["metrics"][name]["value"] for s in seeds]
    sign = -1 if name in LOWER_IS_BETTER else 1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    pq, cq = quartiles(p), quartiles(c)
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    ratio = f"{cq[1] / pq[1]:.3f}" if pq[1] else "n/a"
    print(f"{name:16} {fmt(pq):>34} {fmt(cq):>34} {pq[2] - pq[0]:>11.4g} {ratio:>6} {wins}/{len(seeds)}")
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
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                >"$dir/$side-$seed.log" 2>&1 || true
            python3 -c "$report" run "$dir" "$side" "$seed"
        done
        i=$((i + 1))
    done
    python3 -c "$report" summary "$dir" "$@" || status=1
    echo
done
exit "$status"
