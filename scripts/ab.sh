#!/usr/bin/env bash
# A/B the benchmark: <parent-rev> against the working tree, in alternating
# pairs of the contract form (`BENCHMARK.json`'s command, one workload,
# time-boxed). Prints every end-to-end metric as median [q1, q3], ratio,
# wins, a verdict and every run in pair order; exits non-zero if a
# fingerprint or exact count differs between the sides (each differing key
# is printed with its parent -> change values) or any operation failed.
# The verdict is informational and leaves the exit status alone:
#   gain          the change wins >= 9/10 of the pairs and the medians differ
#                 by more than the parent's IQR
#   worse         the change's median is worse by more than the metric's
#                 BENCHMARK.json bound
#   unresolved    either side's IQR is wider than that bound
#   within bound  otherwise
#
#   scripts/ab.sh HEAD~1                                   # every workload, 10 pairs
#   scripts/ab.sh 486dc86 --pairs 4 --workload lab_dense --workload bsp_barrier
#   scripts/ab.sh HEAD --pairs 1 --seconds 3 --workload bsp_barrier   # CI: same code twice
#
# The parent is checked out once under target/ab/<rev> and each side builds
# into its own target directory there; nothing under benchmark/ is edited.
set -euo pipefail
usage="usage: scripts/ab.sh <parent-rev> [--pairs N] [--seed S] [--seconds T] [--workload W]..."
cd "$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev="$(git rev-parse --short "$1^{commit}")"; shift
pairs=10 seed=2006 seconds=24 workloads=()
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "$1 requires a value; $usage" >&2; exit 2; }
  case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --workload) workloads+=("$2") ;;
    *) echo "unknown flag $1; $usage" >&2; exit 2 ;;
  esac
  shift 2
done
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c 'import json
print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]])')
fi

ab="$PWD/target/ab"
[ -d "$ab/$rev" ] || git worktree add --detach "$ab/$rev" "$rev"
contract() { # <side> <args of the contract form>...
  local src="$PWD"
  [ "$1" = change ] || src="$ab/$rev"
  (cd "$src" && CARGO_TARGET_DIR="$ab/build-$1" cargo run --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml -- "${@:2}")
}
for side in parent change; do
  contract "$side" manifest > /dev/null   # builds; prints what must equal BENCHMARK.json
done
runs="$ab/runs"; rm -rf "$runs"; mkdir -p "$runs"
for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    order=(parent change); [ $((pair % 2)) -eq 1 ] || order=(change parent)
    for side in "${order[@]}"; do
      echo "ab: $workload pair $pair/$pairs $side" >&2
      contract "$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$runs/$workload.$pair.$side"
    done
  done
done

python3 - "$runs" "$rev" "$seed" "$seconds" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys
runs, rev, seed, seconds, pairs, *workloads = sys.argv[1:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
ok = True

def load(workload, pair, side):
    lines = open(f"{runs}/{workload}.{pair}.{side}").read().splitlines()
    field = lambda key: next(l.split(None, 1)[1] for l in lines if l.split()[:1] == [key])
    return json.loads(lines[-1]), (field("sim_fingerprint"), field("counts"))

def spread(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]", q

def relative(delta, base):
    return abs(delta) / abs(base) if base else (0.0 if delta == 0 else float("inf"))

def differences(parent, change):
    """Each key whose value differs, as (key, parent value, change value)."""
    (fa, ca), (fb, cb) = parent, change
    keys = [("sim_fingerprint", fa, fb)]
    ja, jb = json.loads(ca), json.loads(cb)
    keys += [(f"counts.{k}", ja.get(k, "absent"), jb.get(k, "absent"))
             for k in list(ja) + [k for k in jb if k not in ja]]
    return [(key, a, b) for key, a, b in keys if a != b]

def verdict(m, wins, n, qa, qb):
    sign = 1 if m["better"] == "lower" else -1
    if wins * 10 >= 9 * n and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "gain"      # >= 9/10 pairs won, medians apart by more than the parent's IQR
    if sign * (qb[1] - qa[1]) > 0 and relative(qb[1] - qa[1], qa[1]) > m["bound"]:
        return "worse"     # median worse by more than BENCHMARK.json's bound
    if any(relative(q[2] - q[0], q[1]) > m["bound"] for q in (qa, qb)):
        return "unresolved"  # a side's IQR is wider than the bound
    return "within bound"

for workload in workloads:
    sides = {s: [load(workload, p, s) for p in range(1, int(pairs) + 1)] for s in ("parent", "change")}
    print(f"\n## {workload}: parent {rev} -> working tree, seed {seed}, {seconds} s, {pairs} pairs")
    for m in metrics:
        a, b = ([r["metrics"][m["name"]]["value"] for r, _ in sides[s]] for s in ("parent", "change"))
        better = (lambda x, y: x < y) if m["better"] == "lower" else (lambda x, y: x > y)
        wins, losses = sum(better(y, x) for x, y in zip(a, b)), sum(better(x, y) for x, y in zip(a, b))
        (text_a, qa), (text_b, qb) = spread(a), spread(b)
        print(f"{m['name']} [{m['unit']}, {m['better']} is better]: {text_a} -> {text_b}, "
              f"ratio {qb[1] / qa[1]:.3f}, change wins {wins}, loses {losses} of {len(a)}: "
              f"{verdict(m, wins, len(a), qa, qb)}")
        for side, values in (("parent", a), ("change", b)):
            print(f"  {side} runs: " + " ".join(f"{v:.4g}" for v in values))
    outputs = {out for s in sides.values() for _, out in s}
    failed = [r for s in sides.values() for r, _ in s if r["failed"] or not r["correct"]]
    if len(outputs) == 1:
        print("fingerprint and counts: match: " + " ".join(*outputs))
    else:
        print("fingerprint and counts: DIFFER")
        for side, results in sides.items():
            if len({out for _, out in results}) > 1:
                print(f"  {side} runs disagree among themselves: "
                      + "; ".join(sorted({" ".join(out) for _, out in results})))
        for key, a, b in differences(sides["parent"][0][1], sides["change"][0][1]):
            print(f"  {key}: {a} -> {b}")
    print(f"operations failed: {sum(r['failed'] for r in failed)} in {len(failed)} runs")
    ok = ok and len(outputs) == 1 and not failed
sys.exit(0 if ok else 1)
EOF
