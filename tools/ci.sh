#!/usr/bin/env sh
# Full local CI: the gates a change must pass before merging.
#
#   1. Regular build + complete test suite (ctest). It carries the
#      degrade-parity (Degrade.*) and integrity-parity (IntegrityAllMpc.*)
#      gates, the E1 configuration included, and claims_golden: every
#      model counter of E1-E11 and A1 (E7's derandomization counters
#      included) must equal bench/claims.golden.jsonl exactly, every row
#      must verify, and every per-machine peak must fit S.
#   2. ThreadSanitizer pass over the round-parallel simulator and its
#      parallel barrier: unit tests, the barrier-parity suite, and a short
#      thread-width-rotating chaos soak (tools/check_tsan.sh).
#   3. AddressSanitizer + UBSan build of the complete test suite
#      (RSETS_SANITIZE=address,undefined), run under halt-on-error; it
#      builds rsets_claims too, so every claim row runs under both.
#   4. Record/recover/replay gate for the fault subsystem
#      (tools/check_replay.sh).
#   5. Fuzz smoke: 30 s each on the edge-list, flag parser, checkpoint
#      decoder, and service update-stream harnesses (fuzz/); the updates
#      harness alternates between the plain stream parser and producer-
#      tagged multi-producer ingest (strikes/ejection/backpressure paths).
#      Any escaping exception or crash fails the gate.
#   6. Chaos soak smoke: 200 seeded mixed-fault schedules across every MPC
#      algorithm; each faulty run must match its fault-free twin
#      bit-for-bit and certify (60 s budget; the soak runs in ~5 s).
#  6b. Churn soak: 100 seeded mixed fault+churn schedules drive a live
#      RulingSetService (greedy + every MPC algorithm) through update
#      batches; after every drained batch the maintained set must be
#      bit-identical to a fault-free from-scratch recompute (set, and the
#      repair ledger + record-log bodies after a single-epoch rerun), every
#      third schedule crashes mid-batch and recovers from its sealed
#      journal, every final state matches an uncrashed twin fed the same
#      batches and certifies in-model + cross-validates, and epoch-pinned
#      point queries must answer from exactly the last committed epoch.
#      The batches go through a 1-producer ingest front.
#  6c. Concurrent churn soak: the same soak through a 4-producer ingest
#      front (bounded queues, backpressure, poisoned-stream
#      quarantine/ejection flavors); taken generations must also equal the
#      canonical per-producer alignment.
#   7. Sharded-generation gate: the cross-shard validator plus a
#      10^7-edge out-of-core smoke run (sharded graph500, spill-backed,
#      certified in-model) through rsets_cli --sharded, then the same run
#      ingested in RAM, whose output must match line for line; a non-MPC
#      algorithm under --sharded must exit 2.
#   8. Bench baseline gate (tools/check_bench_baseline.sh), wall clock
#      only: checked-in bench/baselines/*.json must carry release stamps
#      on both build-type fields (the E12 shard_ooc, E13 serve_churn, and
#      E14 serve_concurrent baselines must exist, the serving rows with
#      certified=1), a Release re-run of the E1b transport-storm and E1c
#      barrier-scaling rows must stay within a generous real_time tolerance
#      (4x) of them, and every E1c row must report identical=1.
#   9. Benchmark parity: one short perfbench/run.py pass per workload
#      (dense_phases, sharded_gather, serve_churn; seed 1). Its last line
#      must report "correct": true and "failed": 0 — a set or ledger digest
#      that differs from perfbench/expected.json sets both. No timing bound:
#      this gates bit-parity of the benchmark workloads only.
#
# Usage: tools/ci.sh
#
# Build trees: build/ (regular), build-tsan/, build-asan/, build-release/ —
# each gate keeps its own tree so reruns are incremental.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=$(nproc)

echo "=== ci: build + ctest ==="
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$jobs"
ctest --test-dir "$repo_root/build" -j "$jobs" --output-on-failure

echo "=== ci: thread sanitizer (simulator contract) ==="
"$repo_root/tools/check_tsan.sh" "$repo_root/build-tsan"

echo "=== ci: address+undefined sanitizers (full suite) ==="
cmake -B "$repo_root/build-asan" -S "$repo_root" \
      -DRSETS_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$repo_root/build-asan" --target rsets_tests rsets_claims \
      -j "$jobs"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ctest --test-dir "$repo_root/build-asan" -j "$jobs" --output-on-failure

echo "=== ci: record/recover/replay gate ==="
"$repo_root/tools/check_replay.sh" "$repo_root/build"

echo "=== ci: fuzz smoke (io + flags + checkpoint + updates harnesses) ==="
"$repo_root/build/fuzz/fuzz_io" --seconds=30
"$repo_root/build/fuzz/fuzz_flags" --seconds=30
"$repo_root/build/fuzz/fuzz_checkpoint" --seconds=30
"$repo_root/build/fuzz/fuzz_updates" --seconds=30

echo "=== ci: chaos soak (200 seeded mixed-fault schedules) ==="
timeout 60 "$repo_root/build/tools/chaos_soak" --schedules=200 --seed=1

echo "=== ci: churn soak (100 mixed fault+churn schedules, journaled) ==="
# Every schedule drives greedy plus all MPC algorithms through a live
# service under edge churn and injected faults; every drained batch must be
# bit-identical to a fault-free from-scratch recompute, every third schedule
# crashes mid-batch and recovers from its sealed journal, and every final
# state must match its uncrashed twin and certify in-model + cross-validate.
churn_tmp=$(mktemp -d)
timeout 600 "$repo_root/build/tools/chaos_soak" --churn --schedules=100 \
    --seed=1 --journal_dir="$churn_tmp"
rm -rf "$churn_tmp"

echo "=== ci: concurrent churn soak (100 schedules, 4-producer ingest) ==="
# The same soak with seeded line-interleavings of 4 producers: generation
# alignment, backpressure, and per-producer quarantine/ejection + tombstone
# journaling on top of the single-producer checks.
cchurn_tmp=$(mktemp -d)
timeout 900 "$repo_root/build/tools/chaos_soak" --churn --producers=4 \
    --schedules=100 --seed=1 --journal_dir="$cchurn_tmp"
rm -rf "$cchurn_tmp"

echo "=== ci: sharded generation (validator + 10^7-edge spilled and in-RAM smoke) ==="
# graph500 scale=20, edgefactor=16: 2^24 ~ 1.7e7 raw edges, streamed and
# spilled — never materialized. The run must validate its shards, complete
# det_ruling, and certify in-model (exit 0 is the whole contract).
shard_tmp=$(mktemp -d)
"$repo_root/build/tools/rsets_cli" \
    --sharded=graph500:scale=20,edgefactor=16 --machines=8 \
    --memory_words=67108864 --validate-shards --spill-dir="$shard_tmp" \
    --algorithm=det_ruling_mpc --beta=2 > "$shard_tmp/out.txt"
grep -q '^shards_valid=1$' "$shard_tmp/out.txt"
grep -q '^certified=1$' "$shard_tmp/out.txt"
# The same input ingested in RAM (each shard streamed once into a buffer)
# must print exactly what the spilled run printed, RSS aside.
"$repo_root/build/tools/rsets_cli" \
    --sharded=graph500:scale=20,edgefactor=16 --machines=8 \
    --memory_words=67108864 --validate-shards \
    --algorithm=det_ruling_mpc --beta=2 > "$shard_tmp/ram.txt"
grep -v '^peak_rss_kb=' "$shard_tmp/out.txt" > "$shard_tmp/out.cmp"
grep -v '^peak_rss_kb=' "$shard_tmp/ram.txt" > "$shard_tmp/ram.cmp"
diff "$shard_tmp/out.cmp" "$shard_tmp/ram.cmp"
rm -rf "$shard_tmp"
# --sharded takes MPC algorithms only; any other is a usage error (exit 2)
# before a shard is streamed.
sharded_rc=0
"$repo_root/build/tools/rsets_cli" --sharded=graph500:scale=10 \
    --algorithm=greedy > /dev/null 2>&1 || sharded_rc=$?
test "$sharded_rc" -eq 2

echo "=== ci: bench baseline (release-recorded, within tolerance) ==="
"$repo_root/tools/check_bench_baseline.sh" "$repo_root/build-release"

echo "=== ci: benchmark parity (perfbench digests, every workload) ==="
for workload in dense_phases sharded_gather serve_churn; do
  (cd "$repo_root" && python3 perfbench/run.py --workload "$workload" \
       --seed 1 --seconds 1 --trace 0) | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print(sys.argv[1], r)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$workload"
done

echo "ci: PASS"
