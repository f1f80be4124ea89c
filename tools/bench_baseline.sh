#!/usr/bin/env sh
# Records the performance baseline that tools/check_bench_baseline.sh
# compares against.
#
# Builds the Release tree (bench numbers from unoptimized builds are
# meaningless — the gate rejects them), runs every bench binary under
# bench/, and installs the resulting BENCH_<name>.json files into
# bench/baselines/. Each file carries an rsets_build_type context stamp
# recording how the bench code was compiled; that stamp is how the gate
# tells a Release-recorded baseline from an unoptimized one. Each also
# carries rsets_git_sha, the commit it was recorded at, next to
# google-benchmark's own host_name and num_cpus.
#
# Usage: tools/bench_baseline.sh [build_dir]     (default: build-release)
#
# The full suite takes a few minutes; re-run it whenever a deliberate
# performance change lands, and check the refreshed JSONs in with it.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-release"}
jobs=$(nproc)
sha=$(git -C "$repo_root" rev-parse --short HEAD)

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$jobs"

out_dir="$repo_root/bench/baselines"
mkdir -p "$out_dir"

for bin in "$build_dir"/bench/bench_*; do
  [ -x "$bin" ] || continue
  [ -f "$bin" ] || continue
  echo "=== bench_baseline: $(basename "$bin") ==="
  # Each binary writes BENCH_<experiment>.json into the working directory
  # (see RSETS_BENCH_MAIN in bench/bench_common.hpp).
  (cd "$out_dir" && "$bin" "--benchmark_context=rsets_git_sha=$sha")
done

echo "bench_baseline: recorded $(ls "$out_dir"/BENCH_*.json | wc -l) baseline files in bench/baselines/"
