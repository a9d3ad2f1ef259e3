#!/usr/bin/env bash
# A/A gate: runs of the same build must agree within the benchmark's own
# bounds (BENCHMARK.json), or the benchmark cannot resolve a regression.
#
#   benchmark/aa.sh seeds [N]   # what the driver does: two sets of N (default
#                               # 10) runs per workload, each run another seed;
#                               # spread = (Q3 - Q1) / median per set, drift =
#                               # second median vs first
#   benchmark/aa.sh same [K]    # K (default 6) sweeps with one seed: spread =
#                               # (max - min) / median, and the deterministic
#                               # metrics must be bit-equal
#
# Run from the repository root. Exits non-zero when a spread or a drift
# exceeds its bound. AA_SECONDS overrides run_seconds; AA_WORKLOADS (space
# separated) restricts the sweep.
set -euo pipefail

mode="${1:-seeds}"
count="${2:-}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/stalloc-bench"
out="$CARGO_TARGET_DIR/aa-$mode.jsonl"
: > "$out"

seconds="${AA_SECONDS:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
workloads="${AA_WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"

run() { # set workload seed
    local result
    result="$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
    echo "{\"set\": $1, \"workload\": \"$2\", \"seed\": $3, \"result\": $result}" >> "$out"
    echo "  set $1 $2 seed $3 done" >&2
}

case "$mode" in
seeds)
    n="${count:-10}"
    for set in 1 2; do
        for w in $workloads; do
            for i in $(seq 1 "$n"); do run "$set" "$w" "$((set * 1000 + i))"; done
        done
    done
    ;;
same)
    k="${count:-6}"
    for sweep in $(seq 1 "$k"); do
        for w in $workloads; do run "$sweep" "$w" 1; done
    done
    ;;
*)
    echo "usage: benchmark/aa.sh seeds [N] | same [K]" >&2
    exit 2
    ;;
esac

python3 - "$mode" "$out" <<'PY'
import json, statistics, sys
from collections import defaultdict

mode, path = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
# Inputs alone decide these: with one seed they must repeat bit-for-bit.
DETERMINISTIC = {"efficiency", "frag_reduction", "reserved_gib", "pool_ratio",
                 "best_pool_ratio", "tflops", "plan_bytes", "ok_ratio"}

values = defaultdict(lambda: defaultdict(list))  # (workload, metric) -> set -> [v]
bad = []
for line in open(path):
    row = json.loads(line)
    if not row["result"]["correct"]:
        bad.append(f'{row["workload"]} seed {row["seed"]}: incorrect result')
    for name, m in row["result"]["metrics"].items():
        values[(row["workload"], name)][row["set"]].append(m["value"])

def iqr_spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(q2), q2

def worse(first, second, better):
    delta = (first - second) if better == "higher" else (second - first)
    return delta / abs(first)

print(f'| workload | metric | bound | {"median set 1 | spread set 1 | spread set 2 | drift" if mode == "seeds" else "median | spread | bit-equal"} |')
print("|---|---|---|" + ("---|---|---|---|" if mode == "seeds" else "---|---|---|"))
for (workload, name), sets in sorted(values.items()):
    bound, better = metrics[name]["bound"], metrics[name]["better"]
    if mode == "seeds":
        spreads, medians = zip(*(iqr_spread(sets[s]) for s in sorted(sets)))
        drift = worse(medians[0], medians[1], better)
        print(f"| {workload} | {name} | {bound} | {medians[0]:.6g} | {spreads[0]:.4f} | {spreads[1]:.4f} | {drift:+.4f} |")
        if max(spreads) > bound:
            bad.append(f"{workload} {name}: spread {max(spreads):.4f} > {bound}")
        if drift > bound:
            bad.append(f"{workload} {name}: second median worse by {drift:.4f} > {bound}")
    else:
        flat = [v for s in sorted(sets) for v in sets[s]]
        mid = statistics.median(flat)
        spread = (max(flat) - min(flat)) / abs(mid)
        equal = len(set(flat)) == 1
        det = name in DETERMINISTIC
        print(f'| {workload} | {name} | {bound} | {mid:.6g} | {spread:.4f} | {"yes" if equal else "no"} |')
        if det and not equal:
            bad.append(f"{workload} {name}: deterministic metric differs between sweeps")
        if not det and spread > bound:
            bad.append(f"{workload} {name}: spread {spread:.4f} > {bound}")
for b in bad:
    print("FAIL:", b, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
