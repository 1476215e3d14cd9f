#!/usr/bin/env bash
# A/B comparison of two revisions under the benchmark of BENCHMARK.json.
#
#   scripts/ab.sh [--workloads W1,W2,..] [--seeds LO-HI] [--seconds S]
#                 [--pairs N] REV-A REV-B
#
# Exports each revision with `git archive` into target/ab/src-<commit>,
# builds its benchmark offline into target/ab/target-<commit>, then runs
# N order-alternated pairs per workload (pair k runs A first when k is
# even, B first when it is odd) through each revision's own unchanged
# `benchmark/run.sh --trace 0`. Pair k uses seed LO + k mod (HI-LO+1)
# on both sides.
#
# Defaults: every workload of BENCHMARK.json, seeds 1-1, its
# `run_seconds`, 10 pairs. Revisions must be commits (`git stash create`
# names the working tree as one).
#
# Prints, per workload and end-to-end metric: A's and B's median
# [first quartile, third quartile], the change of B's median against
# A's, A's quartile distance as a share of its median, B's wins out of
# the pairs, and a verdict:
#   measured    one side won at least 9 pairs in 10 and the medians
#               differ by more than A's quartile distance
#   unresolved  otherwise
#   same        every run of both sides read the same value
# plus each side's failed operations. The table and every raw value are
# also written to target/ab/<A>-<B>.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads="" seeds="1-1" seconds="" pairs=10 revs=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workloads) workloads="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
        *) revs+=("$1"); shift ;;
    esac
done
if [[ ${#revs[@]} -ne 2 ]]; then
    echo "usage: scripts/ab.sh [--workloads W,..] [--seeds LO-HI] [--seconds S] [--pairs N] REV-A REV-B" >&2
    exit 2
fi
[[ "$seeds" =~ ^([0-9]+)-([0-9]+)$ ]] || { echo "ab.sh: --seeds takes LO-HI" >&2; exit 2; }
seed_lo=${BASH_REMATCH[1]} seed_n=$((BASH_REMATCH[2] - BASH_REMATCH[1] + 1))
((seed_n > 0)) || { echo "ab.sh: empty seed range $seeds" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "ab.sh: --pairs takes a positive count" >&2; exit 2; }
[[ -n "$workloads" ]] || workloads=$(jq -r '[.workloads[].name] | join(",")' BENCHMARK.json)
[[ -n "$seconds" ]] || seconds=$(jq -r '.run_seconds' BENCHMARK.json)

out=target/ab
mkdir -p "$out"
root=$(pwd)
commits=()
for rev in "${revs[@]}"; do
    c=$(git rev-parse --verify --quiet "$rev^{commit}") || { echo "ab.sh: no commit $rev" >&2; exit 2; }
    commits+=("$c")
    src="$out/src-$c"
    if [[ ! -d "$src" ]]; then
        mkdir -p "$src.tmp"
        git archive "$c" | tar -x -C "$src.tmp"
        mv "$src.tmp" "$src"
    fi
    echo "== building $rev ($c) ==" >&2
    (cd "$src" && CARGO_TARGET_DIR="$root/$out/target-$c" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2)
done

tag="${commits[0]:0:12}-${commits[1]:0:12}"
raw="$out/$tag.tsv"
: >"$raw"

# One run of side $1 (0 = A, 1 = B): appends "side workload pair seed
# result-json" to the raw file.
run() {
    local side=$1 w=$2 k=$3 seed=$4 c=${commits[$1]} line
    line=$(cd "$out/src-$c" && CARGO_TARGET_DIR="$root/$out/target-$c" \
        bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1) || true
    [[ "$line" == "{"* ]] || line='{"correct": false, "attempted": 0, "failed": 1, "metrics": {}}'
    printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$w" "$k" "$seed" "$line" >>"$raw"
}

IFS=, read -ra ws <<<"$workloads"
for w in "${ws[@]}"; do
    for ((k = 0; k < pairs; k++)); do
        seed=$((seed_lo + k % seed_n))
        echo "== $w pair $((k + 1))/$pairs seed $seed ==" >&2
        if ((k % 2 == 0)); then run 0 "$w" "$k" "$seed"; run 1 "$w" "$k" "$seed"
        else run 1 "$w" "$k" "$seed"; run 0 "$w" "$k" "$seed"; fi
    done
done

python3 - "$raw" "$out/$tag.json" "${revs[0]}" "${revs[1]}" <<'EOF'
import json, sys

raw, dest, rev_a, rev_b = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
runs = {}  # (workload, pair) -> [result A, result B]
for line in open(raw):
    side, w, k, seed, result = line.rstrip("\n").split("\t", 4)
    runs.setdefault((w, int(k)), [None, None])[int(side)] = json.loads(result)

def quantile(xs, q):
    v = sorted(xs)
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)

rows = []
workloads = list(dict.fromkeys(w for w, _ in runs))
for w in workloads:
    pairs = [runs[key] for key in sorted(k for k in runs if k[0] == w)]
    failed = [sum(p[s]["failed"] for p in pairs) for s in (0, 1)]
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p[0]["metrics"].get(name, {}).get("value"),
                 p[1]["metrics"].get(name, {}).get("value")) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        a = [x for x, _ in both]
        b = [y for _, y in both]
        med_a, med_b = quantile(a, 0.5), quantile(b, 0.5)
        iqr_a = quantile(a, 0.75) - quantile(a, 0.25)
        wins_b = sum((y < x) if lower else (y > x) for x, y in both)
        wins_a = sum((x < y) if lower else (x > y) for x, y in both)
        if min(a) == max(a) == min(b) == max(b):
            verdict = "same"
        elif max(wins_a, wins_b) >= 0.9 * len(both) and abs(med_b - med_a) > iqr_a:
            verdict = "measured"
        else:
            verdict = "unresolved"
        rows.append({
            "workload": w, "metric": name, "unit": m["unit"], "pairs": len(both),
            "a": {"median": med_a, "q1": quantile(a, 0.25), "q3": quantile(a, 0.75), "values": a},
            "b": {"median": med_b, "q1": quantile(b, 0.25), "q3": quantile(b, 0.75), "values": b},
            "delta_pct": 100 * (med_b - med_a) / med_a if med_a else 0.0,
            "a_iqr_pct": 100 * iqr_a / abs(med_a) if med_a else 0.0,
            "b_wins": wins_b, "verdict": verdict, "failed": failed,
        })

def fmt(x):
    return f"{x:.4g}"

print(f"A = {rev_a}, B = {rev_b}")
print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} "
      f"{'delta':>8} {'A iqr':>7} {'B wins':>7}  verdict     failed A/B")
for r in rows:
    side = lambda s: f"{fmt(r[s]['median'])} [{fmt(r[s]['q1'])}, {fmt(r[s]['q3'])}]"
    print(f"{r['workload']:<16} {r['metric']:<14} {side('a'):<30} {side('b'):<30} "
          f"{r['delta_pct']:>+7.1f}% {r['a_iqr_pct']:>6.1f}% {r['b_wins']:>3}/{r['pairs']:<3}  "
          f"{r['verdict']:<11} {r['failed'][0]}/{r['failed'][1]}")
json.dump({"a": rev_a, "b": rev_b, "rows": rows}, open(dest, "w"), indent=1)
print(f"written: {dest}")
EOF
