#!/usr/bin/env sh
# Gate: the checked-in bench baselines must be Release-recorded and still
# representative of this machine.
#
#   1. Every bench/baselines/BENCH_*.json must carry
#      "rsets_build_type": "Release" AND "library_build_type": "release".
#      The first stamps how the bench code itself was compiled; the second
#      is google-benchmark's context field, rewritten by run_bench_main to
#      describe the code under measurement (the raw library value described
#      the benchmark *library* — a debug system package — which made
#      Release baselines read "debug"). A mismatched pair means the
#      baseline predates the restamp or was recorded unoptimized — reject
#      it outright either way, since an inflated baseline makes every later
#      comparison pass vacuously.
#   2. The E1b transport-storm and E1c barrier-scaling rows are re-run from
#      the Release tree and each row's real_time is compared against the
#      checked-in baseline within a generous factor (default 4x either
#      way). That catches order-of-magnitude regressions — an accidental
#      O(n^2), a debug-only code path — while tolerating machine-to-machine
#      and load noise.
#   3. Every re-run E1c row must report identical=1: the parallel barrier
#      delivered bit-identical words at every thread width. This is the
#      correctness half of the scaling bench and must hold on any host,
#      including single-core ones where speedup stays ~1.
#
# The model counters (E1-E11, A1, E7's included) are not compared here:
# ctest's claims_golden pins every one of them exactly
# (bench/claims.golden.jsonl).
#
# Usage: tools/check_bench_baseline.sh [build_dir] [tolerance]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-release"}
tolerance=${2:-4.0}
baselines="$repo_root/bench/baselines"

if [ ! -d "$baselines" ]; then
  echo "check_bench_baseline: bench/baselines/ missing — run tools/bench_baseline.sh first" >&2
  exit 1
fi

found=0
for f in "$baselines"/BENCH_*.json; do
  [ -e "$f" ] || break
  found=1
  if ! grep -q '"rsets_build_type": "Release"' "$f"; then
    echo "check_bench_baseline: $(basename "$f") was not recorded from a Release build (rsets_build_type != Release); re-record with tools/bench_baseline.sh" >&2
    exit 1
  fi
  if ! grep -q '"library_build_type": "release"' "$f"; then
    echo "check_bench_baseline: $(basename "$f") carries a non-release library_build_type stamp — it predates the run_bench_main restamp or was recorded unoptimized; re-record with tools/bench_baseline.sh" >&2
    exit 1
  fi
done
if [ "$found" -eq 0 ]; then
  echo "check_bench_baseline: no BENCH_*.json baselines found — run tools/bench_baseline.sh first" >&2
  exit 1
fi

# E12 must have a recorded baseline: the out-of-core path is gated on a
# checked-in peak-RSS/rate reference, not just on the smoke test passing.
if [ ! -f "$baselines/BENCH_shard_ooc.json" ]; then
  echo "check_bench_baseline: BENCH_shard_ooc.json (E12 out-of-core) missing — run tools/bench_baseline.sh" >&2
  exit 1
fi

# E13 must have a recorded baseline: the serving path is gated on a
# checked-in throughput/latency reference, and every recorded row must have
# certified its final epoch (certified=1 is the bench's validity counter).
if [ ! -f "$baselines/BENCH_serve_churn.json" ]; then
  echo "check_bench_baseline: BENCH_serve_churn.json (E13 service churn) missing — run tools/bench_baseline.sh" >&2
  exit 1
fi
if grep -q '"certified": 0' "$baselines/BENCH_serve_churn.json"; then
  echo "check_bench_baseline: BENCH_serve_churn.json carries an uncertified row — the recorded service run broke its contract" >&2
  exit 1
fi

# E14 must have a recorded baseline: the concurrent multi-producer front is
# gated on a checked-in end-to-end throughput reference, and every recorded
# row must have certified every committed epoch.
if [ ! -f "$baselines/BENCH_serve_concurrent.json" ]; then
  echo "check_bench_baseline: BENCH_serve_concurrent.json (E14 concurrent serve) missing — run tools/bench_baseline.sh" >&2
  exit 1
fi
if grep -q '"certified": 0' "$baselines/BENCH_serve_concurrent.json"; then
  echo "check_bench_baseline: BENCH_serve_concurrent.json carries an uncertified row — the recorded concurrent run broke its contract" >&2
  exit 1
fi

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$build_dir" -j "$(nproc)" \
    --target bench_rounds_vs_n

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$build_dir/bench/bench_rounds_vs_n" \
    '--benchmark_filter=BM_TransportStorm|BM_BarrierScaling' \
    --benchmark_out="$tmp/current.json" --benchmark_out_format=json \
    > /dev/null

# google-benchmark JSON keeps one key per line, so field extraction is a
# plain awk pass: remember the row name, print "name value" on the keys we
# compare.
rows() {
  awk -F'"' -v key="$2" '
    $2 == "name" { name = $4 }
    $2 == key    { v = $3; gsub(/[:, ]/, "", v); print name, v }
  ' "$1"
}

rows "$baselines/BENCH_rounds_vs_n.json" real_time \
    | grep -E '^BM_(TransportStorm|BarrierScaling)' | sort > "$tmp/base.txt"
rows "$tmp/current.json" real_time \
    | grep -E '^BM_(TransportStorm|BarrierScaling)' | sort > "$tmp/cur.txt"

if ! [ -s "$tmp/base.txt" ]; then
  echo "check_bench_baseline: baseline BENCH_rounds_vs_n.json has no storm/barrier rows; re-record with tools/bench_baseline.sh" >&2
  exit 1
fi

awk -v tol="$tolerance" '
  NR == FNR { base[$1] = $2; next }
  {
    if (!($1 in base)) {
      printf "check_bench_baseline: no baseline row for %s\n", $1
      bad = 1
      next
    }
    ratio = $2 / base[$1]
    if (ratio > tol || ratio * tol < 1) {
      printf "check_bench_baseline: %s real_time drifted %.2fx vs baseline (%.3f vs %.3f ms, tolerance %.1fx)\n", \
             $1, ratio, $2, base[$1], tol
      bad = 1
    }
  }
  END { exit bad }
' "$tmp/base.txt" "$tmp/cur.txt"

rows "$tmp/current.json" identical | awk '
  $1 ~ /^BM_BarrierScaling/ {
    seen = 1
    if ($2 + 0 != 1.0) {
      printf "check_bench_baseline: %s identical=%s — the parallel barrier diverged from the threads=1 digest\n", $1, $2
      bad = 1
    }
  }
  END {
    if (!seen) {
      print "check_bench_baseline: re-run produced no BM_BarrierScaling rows"
      bad = 1
    }
    exit bad
  }
'

echo "check_bench_baseline: PASS"
