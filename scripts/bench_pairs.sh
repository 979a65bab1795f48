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
#
#   scripts/bench_pairs.sh --layer <prefix> <ref> <workload|all> <seed>...
#
# With --layer each run is traced (`--trace 1`, still `--seconds 25`)
# and, per workload, every per-layer metric whose name starts with
# <prefix> (or with any of a comma-separated list, say `algos.,par.`)
# is printed like an end-to-end metric above: both sides' median
# [q1, q3], the ratio and the pairs the working tree read lower in. A
# metric the workload leaves unset (zero on both sides) is skipped.
#
#   scripts/bench_pairs.sh --ingest <ref> <rounds>
#
# With --ingest the pairs are in-process graph builds instead: the
# working tree's crates/bench/src/bin/ingest_timing.rs is copied into
# <ref>'s extracted tree and built in both, and the two binaries
# alternate for <rounds> rounds, each run printing every build's median
# time. It prints, per build, both sides' median of the round medians,
# their ratio and the rounds the working tree read lower in.
set -euo pipefail
rss= ingest= layer=
if [ "${1:-}" = --rss ]; then rss=1 && shift; fi
if [ "${1:-}" = --ingest ]; then ingest=1 && shift; fi
if [ "${1:-}" = --layer ] && [ $# -ge 2 ]; then layer=$2 && shift 2; fi
if [ -n "$ingest" ]; then want=2; else want=3; fi
[ $# -ge $want ] || { sed -n '5p;24p;33p' "$0" >&2; exit 2; }
ref=$1 workloads=$2
shift 2
cd "$(git rev-parse --show-toplevel)"
out=target/bench-pairs
src=$out/src-$(git rev-parse --short "$ref")
mkdir -p "$out/runs"
if [ ! -d "$src" ]; then
  mkdir -p "$src"
  git archive "$ref" | tar -x -C "$src"
fi
if [ -n "$ingest" ]; then
  rounds=$workloads timer=crates/bench/src/bin/ingest_timing.rs
  cp "$timer" "$src/$timer"
  for side in base head; do
    tree=.
    if [ $side = base ]; then tree=$src; fi
    cargo build --release --offline --quiet --manifest-path "$tree/Cargo.toml" -p simdx_bench --bin ingest_timing
    cp "$tree/target/release/ingest_timing" "$out/ingest-$side"
  done
  for round in $(seq 1 "$rounds"); do
    sides="base head"
    if [ $((round % 2)) -eq 0 ]; then sides="head base"; fi
    for side in $sides; do
      echo "# ingest round $round: $side" >&2
      "$out/ingest-$side" >"$out/runs/ingest-$round-$side.txt"
    done
  done
  python3 - "$out/runs" "$rounds" "$ref" <<'EOF'
import statistics, sys
runs, rounds, ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]
def read(r, side):
    return dict((name, float(ms)) for name, ms in (l.split() for l in open(f"{runs}/ingest-{r}-{side}.txt")))
base, head = ([read(r, s) for r in range(1, rounds + 1)] for s in ("base", "head"))
print(f"# in-process builds, {rounds} rounds, median ms of the round medians, {ref} -> working tree")
for name in base[0]:
    a, b = [r[name] for r in base], [r[name] for r in head]
    wins = sum(y < x for x, y in zip(a, b))
    ratio = statistics.median(b) / statistics.median(a)
    print(f"{name:<26} {statistics.median(a):8.3f} -> {statistics.median(b):8.3f} ms  {ratio:.3f}x  ({wins}/{rounds} lower)")
EOF
  exit
fi
if [ "$workloads" = all ]; then
  workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
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
  elif [ -n "$layer" ]; then
    "$out/$1" --workload "$workload" --seed "$2" --seconds 25 --trace 1 |
      tail -n 1 >"$out/runs/$workload-$2-$1.trace.json"
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
python3 - "$out/runs" "$workload" "$ref" "$layer" "$@" <<'EOF'
import json, statistics, sys
runs, workload, ref, layer, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:]
kind = ".trace.json" if layer else ".json"
side = {s: [json.load(open(f"{runs}/{workload}-{x}-{s}{kind}")) for x in seeds] for s in ("base", "head")}
def cell(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{statistics.median(xs):.4g} [{q1:.4g}, {q3:.4g}]"
print(f"# {workload}, {len(seeds)} pairs, {ref} -> working tree")
for s, rs in side.items():
    print(f"# {s}: failed {sum(r['failed'] for r in rs):g} of {sum(r['attempted'] for r in rs):g}")
prefixes = tuple(layer.split(",")) if layer else ("",)
for name in side["base"][0]["metrics"]:
    if not name.startswith(prefixes):
        continue
    a, b = ([r["metrics"][name]["value"] for r in side[s]] for s in ("base", "head"))
    if not any(a) and not any(b):
        continue
    wins = sum(y < x for x, y in zip(a, b))
    ratio = f"{statistics.median(b) / statistics.median(a):.3f}x" if statistics.median(a) else "n/a"
    print(f"{name:<22} {cell(a)} -> {cell(b)}  {ratio}  ({wins}/{len(a)} lower)")
EOF
done
