#!/usr/bin/env bash
# Paired runs of the repository benchmark: a git ref against the working
# tree, on one workload, alternating which side runs first per seed.
#
#   scripts/bench_pairs.sh <ref> <workload> <seed>...
#
# Builds crates/bench/benchmark from `git archive <ref>` (extracted under
# target/bench-pairs/) and from the working tree, copies both binaries
# aside, runs each seed once per side with `--seconds 25 --trace 0` from
# the repository root, keeps every result line under
# target/bench-pairs/runs/, and prints for each end-to-end metric both
# sides' median [q1, q3] (Python's `statistics.quantiles(n=4)`), the
# ratio of medians (base: <ref>) and the pairs the working tree read
# lower in. Only paired ratios compare: the host drifts between sessions.
set -euo pipefail
[ $# -ge 3 ] || { sed -n '5p' "$0" >&2; exit 2; }
ref=$1 workload=$2
shift 2
cd "$(git rev-parse --show-toplevel)"
out=target/bench-pairs
src=$out/src-$(git rev-parse --short "$ref")
mkdir -p "$out/runs"
if [ ! -d "$src" ]; then
  mkdir -p "$src"
  git archive "$ref" | tar -x -C "$src"
fi
build() { # <checkout> <binary copy>
  cargo build --release --offline --quiet --manifest-path "$1/crates/bench/benchmark/Cargo.toml"
  cp "$1/crates/bench/benchmark/target/release/benchmark" "$2"
}
build "$src" "$out/base"
build . "$out/head"
run() { # <side> <seed>
  echo "# $workload seed $2: $1" >&2
  "$out/$1" --workload "$workload" --seed "$2" --seconds 25 --trace 0 |
    tail -n 1 >"$out/runs/$workload-$2-$1.json"
}
i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then run base "$seed" && run head "$seed"; else run head "$seed" && run base "$seed"; fi
  i=$((i + 1))
done
python3 - "$out/runs" "$workload" "$ref" "$@" <<'EOF'
import json, statistics, sys
runs, workload, ref, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
side = {s: [json.load(open(f"{runs}/{workload}-{x}-{s}.json")) for x in seeds] for s in ("base", "head")}
def cell(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}]"
print(f"# {workload}, {len(seeds)} pairs, {ref} -> working tree")
for s, rs in side.items():
    print(f"# {s}: failed {sum(r['failed'] for r in rs):g} of {sum(r['attempted'] for r in rs):g}")
for name in side["base"][0]["metrics"]:
    a, b = ([r["metrics"][name]["value"] for r in side[s]] for s in ("base", "head"))
    wins = sum(y < x for x, y in zip(a, b))
    ratio = statistics.median(b) / statistics.median(a)
    print(f"{name:<22} {cell(a)} -> {cell(b)}  {ratio:.3f}x  ({wins}/{len(a)} lower)")
EOF
