// E1b and E1c — wall-clock scaling (EXPERIMENTS.md); E1's model counters
// are rows of claims.cpp. E1b (BM_DetRulingThreads) sweeps the simulator's
// worker threads on E1's dense det-ruling configuration; E1c
// (BM_BarrierScaling) sweeps them over a pure communication storm,
// isolating the parallel barrier pipeline.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>

#include "core/det_ruling.hpp"
#include "mpc/simulator.hpp"

namespace rsets::bench {
namespace {

Graph dense_graph(VertexId n) {
  return gen::gnp(n, std::sqrt(static_cast<double>(n)) / n, 77);
}

constexpr std::uint64_t kBudgetPerVertex = 8;  // force real phase work

// E1b — wall-clock scaling of the threaded simulator. Same deterministic
// ruling-set run as E1's dense rows, swept over worker-thread counts. The
// round/word/set counters must be identical across rows of the same n (the
// simulator is bit-deterministic regardless of num_threads; the `identical`
// counter asserts it against the threads=1 row) — only wall_ms may move.
// `speedup` is wall-clock of the threads=1 row over this row, so the
// threads=1 rows read 1.0 and parallel rows should exceed it on multi-core
// hosts. Set RSETS_TRACE_DIR=/some/dir to also dump a per-round JSONL trace
// for every row.
void BM_DetRulingThreads(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const Graph g = dense_graph(n);
  RulingSetResult result;
  double wall_ms = 0.0;
  for (auto _ : state) {
    mpc::MpcConfig cfg = default_mpc();
    cfg.num_threads = threads;
    const JsonlTrace trace(
        trace_path("det_ruling_n" + std::to_string(n) + "_t" +
                   std::to_string(threads) + ".jsonl"));
    cfg.trace_hook = trace.hook();
    DetRulingOptions opt;
    opt.gather_budget_words = kBudgetPerVertex * n;
    const auto start = std::chrono::steady_clock::now();
    result = det_ruling_set_mpc(g, cfg, opt);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  mpc::MpcConfig reported = default_mpc();
  reported.num_threads = threads;
  report(state, g, result, reported);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["wall_ms"] = wall_ms;
  // google-benchmark runs args in registration order, so the threads=1 row
  // of each n executes first and seeds the baselines below.
  static std::map<VertexId, std::pair<double, std::vector<VertexId>>> baseline;
  if (threads == 1) baseline[n] = {wall_ms, result.ruling_set};
  const auto it = baseline.find(n);
  if (it != baseline.end()) {
    state.counters["speedup"] = it->second.first / std::max(wall_ms, 1e-9);
    state.counters["identical"] =
        it->second.second == result.ruling_set ? 1.0 : 0.0;
  }
}

// Shared storm workload for the substrate microbenches: every machine sends
// kMsgsPerPeer tiny messages to every other machine each round — an
// all-to-all barrage with trivial per-machine compute, so wall clock is
// dominated by the barrier pipeline (merge, verify, index), not by callback
// work. Returns an order-insensitive digest of everything delivered.
struct StormRun {
  std::uint64_t digest = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  double wall_ms = 0.0;
};

StormRun run_storm(mpc::MpcConfig cfg, mpc::MachineId machines) {
  constexpr int kRounds = 48;  // long enough to amortize cold-start noise
  constexpr int kMsgsPerPeer = 64;
  StormRun out;
  // Callbacks run concurrently at num_threads > 1, so each accumulates
  // into its own machine's slot; the commutative sum below is
  // order-insensitive, making the digest comparable across thread widths.
  std::vector<std::uint64_t> digests(machines, 0);
  mpc::Simulator sim(cfg);
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    sim.round([&](mpc::Machine& m, const mpc::Inbox& inbox) {
      for (const mpc::MessageView& msg : inbox.all()) {
        digests[m.id()] += msg.payload[0] * (msg.src + 1);
      }
      for (mpc::MachineId dst = 0; dst < machines; ++dst) {
        if (dst == m.id()) continue;
        for (int k = 0; k < kMsgsPerPeer; ++k) {
          m.sender(dst, 1).push(m.id() * kMsgsPerPeer + k);
        }
      }
    });
  }
  sim.drain([&](mpc::Machine& m, const mpc::Inbox& inbox) {
    for (const mpc::MessageView& msg : inbox.all()) {
      digests[m.id()] += msg.payload[0] * (msg.src + 1);
    }
  });
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (const std::uint64_t d : digests) out.digest += d;
  out.messages = sim.metrics().messages;
  out.words = sim.metrics().total_words;
  return out;
}

// E1b storm rows — the aggregated-transport microbench, kept as the absolute
// cost record for the all-to-all barrage. (The original legacy-vs-aggregated
// comparison rows are retired with the legacy transport itself; the recorded
// speedups live on as a historical note in EXPERIMENTS.md E1b.)
void BM_TransportStorm(benchmark::State& state) {
  const auto machines = static_cast<mpc::MachineId>(state.range(0));
  StormRun run;
  for (auto _ : state) {
    mpc::MpcConfig cfg;
    cfg.num_machines = machines;
    cfg.memory_words = std::size_t{1} << 26;
    cfg.seed = 7;
    run = run_storm(cfg, machines);
  }
  state.counters["machines"] = static_cast<double>(machines);
  state.counters["messages"] = static_cast<double>(run.messages);
  state.counters["words"] = static_cast<double>(run.words);
  state.counters["wall_ms"] = run.wall_ms;
}

// E1c — wall-clock scaling of the parallel barrier (DESIGN.md §4.6). The
// same storm as BM_TransportStorm, with integrity checksums on (so the
// verify pass is real work), swept over worker-thread widths at fixed
// machine counts. threads=1 rows run first (registration order) and seed
// the per-machine-count baseline; `speedup` is the threads=1 wall clock
// over this row's, and `identical` asserts the delivered-word digest is
// bit-identical to the threads=1 row — the parallelism contract.
void BM_BarrierScaling(benchmark::State& state) {
  const auto machines = static_cast<mpc::MachineId>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  StormRun run;
  for (auto _ : state) {
    mpc::MpcConfig cfg;
    cfg.num_machines = machines;
    cfg.memory_words = std::size_t{1} << 26;
    cfg.seed = 7;
    cfg.num_threads = threads;
    cfg.integrity = true;
    run = run_storm(cfg, machines);
  }
  state.counters["machines"] = static_cast<double>(machines);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["messages"] = static_cast<double>(run.messages);
  state.counters["words"] = static_cast<double>(run.words);
  state.counters["wall_ms"] = run.wall_ms;
  // threads=1 rows run first (registration order) and seed the baseline.
  static std::map<mpc::MachineId, std::pair<double, std::uint64_t>> baseline;
  if (threads == 1) baseline[machines] = {run.wall_ms, run.digest};
  const auto it = baseline.find(machines);
  if (it != baseline.end()) {
    state.counters["speedup"] = it->second.first / std::max(run.wall_ms, 1e-9);
    state.counters["identical"] = it->second.second == run.digest ? 1.0 : 0.0;
  }
}

void StormSweep(benchmark::internal::Benchmark* b) {
  for (long machines : {16, 32}) b->Args({machines});
}

void BarrierSweep(benchmark::internal::Benchmark* b) {
  for (long machines : {16, 32}) {
    // threads=1 first: it is the baseline the speedup counter divides by.
    for (long threads : {1, 2, 4, 8}) {
      b->Args({machines, threads});
    }
  }
}

void ThreadSweep(benchmark::internal::Benchmark* b) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (VertexId n : {8000, 32000}) {
    // threads=1 first: it is the baseline the speedup counter divides by.
    for (unsigned t : {1u, 2u, 4u, 8u}) {
      if (t != 1 && t > 2 * hw) continue;  // pointless oversubscription
      b->Args({static_cast<long>(n), static_cast<long>(t)});
    }
  }
}

BENCHMARK(BM_DetRulingThreads)->Apply(ThreadSweep)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TransportStorm)->Apply(StormSweep)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BarrierScaling)->Apply(BarrierSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsets::bench

RSETS_BENCH_MAIN(rounds_vs_n);
