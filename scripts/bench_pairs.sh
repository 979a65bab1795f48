#!/usr/bin/env bash
# Paired runs of the repository benchmark: a git ref against the working
# tree, on one workload, alternating which side runs first per seed.
#
#   scripts/bench_pairs.sh [--rss] <ref> <workload|all> <seed>...
#
# `all` runs every workload BENCHMARK.json declares, one after another.
# Builds crates/bench/benchmark from `git archive <ref>` (extracted under
# target/bench-pairs/) and from the working tree, copies both binaries
# aside, runs each seed once per side with `--seconds 25 --trace 0` from
# the repository root, keeps every result line under
# target/bench-pairs/runs/, and prints for each end-to-end metric both
# sides' median [q1, q3] (Python's `statistics.quantiles(n=4)`), the
# ratio of medians (base: <ref>) and the pairs the working tree read
# lower in. Only paired ratios compare: the host drifts between sessions.
#
# With --rss each run is only the memory probe behind `peak_rss_mib`:
# the binary's own child invocation (`--seconds 1 --trace 0 --rss-probe`
# under MALLOC_MMAP_THRESHOLD_=131072, as the probe's parent sets it),
# a few seconds instead of 25. It prints every pair's MiB, then one row
# per workload: both medians, their ratio and the pairs the working tree
# read lower in.
set -euo pipefail
rss=
if [ "${1:-}" = --rss ]; then rss=1 && shift; fi
[ $# -ge 3 ] || { sed -n '5p' "$0" >&2; exit 2; }
ref=$1 workloads=$2
shift 2
cd "$(git rev-parse --show-toplevel)"
if [ "$workloads" = all ]; then
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
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
  if [ -n "$rss" ]; then
    MALLOC_MMAP_THRESHOLD_=131072 "$out/$1" --workload "$workload" --seed "$2" \
      --seconds 1 --trace 0 --rss-probe >"$out/runs/$workload-$2-$1.rss"
  else
    "$out/$1" --workload "$workload" --seed "$2" --seconds 25 --trace 0 |
      tail -n 1 >"$out/runs/$workload-$2-$1.json"
  fi
}
for workload in $workloads; do
  i=0
  for seed in "$@"; do
    if [ $((i % 2)) -eq 0 ]; then run base "$seed" && run head "$seed"; else run head "$seed" && run base "$seed"; fi
    i=$((i + 1))
  done
done
if [ -n "$rss" ]; then
  python3 - "$out/runs" "$workloads" "$ref" "$@" <<'EOF'
import statistics, sys
runs, workloads, ref, seeds = sys.argv[1], sys.argv[2].split(), sys.argv[3], sys.argv[4:]
rows = []
for workload in workloads:
    base, head = ([float(open(f"{runs}/{workload}-{x}-{s}.rss").read()) for x in seeds] for s in ("base", "head"))
    print(f"# {workload} peak_rss_mib, {len(seeds)} pairs, {ref} -> working tree")
    for x, a, b in zip(seeds, base, head):
        print(f"seed {x:>4}  {a:.2f} -> {b:.2f} MiB  {b / a:.3f}x")
    ratio = statistics.median(head) / statistics.median(base)
    wins = sum(b < a for a, b in zip(base, head))
    rows.append(f"{workload:<18} {statistics.median(base):7.2f} -> {statistics.median(head):7.2f} MiB  {ratio:.3f}x  ({wins}/{len(seeds)} lower)")
print("# median peak_rss_mib per workload")
print("\n".join(rows))
EOF
  exit
fi
for workload in $workloads; do
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
done
