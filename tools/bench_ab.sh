#!/usr/bin/env bash
# Interleaved A/B comparison of two checkouts on one host through the
# repository benchmark (perfbench/run.py, timed pass). Each pair runs
# both sides one after the other, alternating which goes first, so slow
# stretches of a shared host hit both sides alike. Prints, per metric,
# each side's median and quartiles, the median change, and how many
# pairs B won (direction from B's BENCHMARK.json). Both sides run the
# window B's BENCHMARK.json sets (run_seconds):
#
#   tools/bench_ab.sh [--pairs N] [--seed S] [--out DIR] A_DIR B_DIR WORKLOAD
#
#   git archive HEAD~1 | tar -x -C /tmp/base      # A: the parent commit
#   tools/bench_ab.sh --pairs 10 /tmp/base . regular_2c_latency
#
# Each side builds into its own DIR/.bench_build (CARGO_TARGET_DIR is
# set per side). The last JSON line of every run is kept in
# OUT/{a,b}.jsonl (default: a fresh temporary directory).

set -euo pipefail

usage() {
  echo "usage: $0 [--pairs N] [--seed S] [--out DIR] A_DIR B_DIR WORKLOAD" >&2
  exit 2
}

die() {
  echo "bench_ab: $*" >&2
  exit 2
}

PAIRS=10
SEED=1
OUT=
POSITIONAL=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs) [[ $# -ge 2 ]] || usage; PAIRS=$2; shift 2 ;;
    --seed) [[ $# -ge 2 ]] || usage; SEED=$2; shift 2 ;;
    --out) [[ $# -ge 2 ]] || usage; OUT=$2; shift 2 ;;
    -h|--help) usage ;;
    -*) die "unknown option $1" ;;
    *) POSITIONAL+=("$1"); shift ;;
  esac
done
[[ ${#POSITIONAL[@]} -eq 3 ]] || usage
A_DIR=${POSITIONAL[0]}
B_DIR=${POSITIONAL[1]}
WORKLOAD=${POSITIONAL[2]}

[[ $PAIRS =~ ^[1-9][0-9]*$ ]] || die "--pairs must be a positive integer, got '$PAIRS'"
[[ $SEED =~ ^[0-9]+$ ]] || die "--seed must be a non-negative integer, got '$SEED'"
[[ $WORKLOAD =~ ^[a-z0-9_]+$ ]] || die "bad workload name '$WORKLOAD'"
for dir in "$A_DIR" "$B_DIR"; do
  [[ -f $dir/perfbench/run.py ]] || die "$dir holds no perfbench/run.py"
done
A_DIR=$(cd "$A_DIR" && pwd)
B_DIR=$(cd "$B_DIR" && pwd)
[[ $A_DIR != "$B_DIR" ]] || die "A_DIR and B_DIR are the same checkout"
RUN_SECONDS=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$B_DIR/BENCHMARK.json" 2> /dev/null) ||
  die "no run_seconds in $B_DIR/BENCHMARK.json"

OUT=${OUT:-$(mktemp -d -t bench_ab.XXXXXX)}
mkdir -p "$OUT"
: > "$OUT/a.jsonl"
: > "$OUT/b.jsonl"

run_side() {  # side dir
  (cd "$2" && CARGO_TARGET_DIR="$2/.bench_build" \
     python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
       --seconds "$RUN_SECONDS" --trace 0) 2> "$OUT/$1.stderr" |
    tail -n 1 >> "$OUT/$1.jsonl" ||
    die "side $1 ($2) failed; see $OUT/$1.stderr"
}

for ((i = 0; i < PAIRS; ++i)); do
  if ((i % 2 == 0)); then order=(a b); else order=(b a); fi
  for side in "${order[@]}"; do
    if [[ $side == a ]]; then run_side a "$A_DIR"; else run_side b "$B_DIR"; fi
  done
  echo "pair $((i + 1))/$PAIRS done (${order[0]} first)" >&2
done

python3 - "$OUT" "$B_DIR/BENCHMARK.json" "$WORKLOAD" <<'EOF'
import json, statistics, sys

out, spec_path, workload = sys.argv[1:]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
a = [json.loads(line) for line in open(f"{out}/a.jsonl")]
b = [json.loads(line) for line in open(f"{out}/b.jsonl")]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {len(a)} pairs at B's run_seconds; failed runs A={sum(r['failed'] for r in a)}"
      f" B={sum(r['failed'] for r in b)}")
print(f"{'metric':<18} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
      f" {'change':>8} {'B won':>6}")
for name in a[0]["metrics"]:
    direction = better.get(name.split("/")[-1], "lower")
    xa = [r["metrics"][name]["value"] for r in a]
    xb = [r["metrics"][name]["value"] for r in b]
    wins = sum((vb < va) if direction == "lower" else (vb > va)
               for va, vb in zip(xa, xb))
    qa, qb = quartiles(xa), quartiles(xb)
    change = (qb[1] / qa[1] - 1.0) * 100.0 if qa[1] else float("nan")
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<18} {fmt(qa):>32} {fmt(qb):>32} {change:>+7.1f}%"
          f" {wins:>3}/{len(xa)}")
print(f"raw runs: {out}/a.jsonl, {out}/b.jsonl")
EOF
