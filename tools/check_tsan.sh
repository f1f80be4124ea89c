#!/usr/bin/env sh
# Builds the test suite under ThreadSanitizer and runs the tests that
# exercise the round-parallel MPC simulator and its parallel barrier
# pipeline. Guards the threading contract in DESIGN.md ("Threading model"
# and §4.6): round callbacks own their machine, read shared state, never
# write across machines — and the destination-sharded barrier workers own
# disjoint per-destination delivery/inbox/arena state.
#
# Usage: tools/check_tsan.sh [build-dir]       (default: build-tsan)
#
# Notes:
#   * Uses a dedicated build tree so the regular build stays sanitizer-free.
#   * Stage 1 (unit tests): the simulator unit tests, the cross-thread
#     determinism sweep (every MPC algorithm at 1/2/8 workers, including
#     the record-log byte comparison), the barrier-parity suite (thread
#     widths x fault cocktails), the dispatcher integration tests, and the
#     chunk-evaluator oracle suite (ChunkEval.EnginesAtFourWorkersMatch-
#     OrderedLoop scores seed chunks on 4 simulator workers at once).
#   * Stage 2 (chaos soak): a short tools/chaos_soak run. The soak rotates
#     the simulator thread width across schedules, so the parallel barrier
#     runs under crash/corrupt/reorder/quarantine fault pressure with TSan
#     watching the merge, verify/index, and recycle passes.
#   * Stage 3 (churn soak): a short fault+churn soak through the live
#     ruling-set service (incremental repair + region certification +
#     journal crash/recovery), with the same thread-width rotation, so the
#     parallel simulator also runs under TSan from the serving path. Its
#     batches go through a 1-producer ingest front and epoch-pinned query
#     handles, like every churn soak.
#   * Stage 4 (concurrent ingest): the ServeConcurrent* unit tests (real
#     producer threads pushing through the ingest front's mutex/condvar
#     backpressure while a consumer drains) plus a short 4-producer
#     churn soak, so the lock discipline of MultiProducerIngest and the
#     query-handle publish path run under TSan.
#   * Run the full binary under TSan with: ./build-tsan/tests/rsets_tests
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" -DRSETS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" --target rsets_tests chaos_soak -j "$(nproc)"

TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$build_dir/tests/rsets_tests" \
    --gtest_filter='Simulator*:Primitives*:DistGraph*:ThreadedDeterminism*:*/ThreadedDeterminism*:BarrierParity*:*/BarrierParityFaults*:FnvBatch*:Api.*:ServeMpc*:ServeConcurrent*:ChunkEval*'

TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$build_dir/tools/chaos_soak" --schedules=6 --n=400 --machines=8

churn_tmp=$(mktemp -d)
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$build_dir/tools/chaos_soak" --churn --schedules=3 --n=200 \
    --machines=8 --journal_dir="$churn_tmp"
rm -rf "$churn_tmp"

cchurn_tmp=$(mktemp -d)
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    "$build_dir/tools/chaos_soak" --churn --producers=4 --schedules=3 \
    --n=200 --machines=8 --journal_dir="$cchurn_tmp"
rm -rf "$cchurn_tmp"

echo "check_tsan: PASS"
