// A0 — Substrate micro-benchmarks (appendix).
//
// Classic timing benchmarks (many iterations) for the primitives everything
// else stands on: conditional-probability queries of the marking family,
// seed fixing throughput, simulator round overhead, collective costs, and
// generator throughput. These are the numbers a user sizing a simulation
// actually needs; they complement the round-accounting experiments E1-E8.
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bench_common.hpp"
#include "core/seed_fixing.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "util/hash_family.hpp"

namespace rsets {
namespace {

void BM_HashFamily_ProbOne(benchmark::State& state) {
  PairwiseBitLevel level(20);
  level.fix_bit(3, 1);
  level.fix_bit(17, 0);
  std::uint64_t v = 0;
  double sum = 0.0;
  for (auto _ : state) {
    sum += level.prob_one(v);
    v = (v + 0x9e37) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(sum);
}

void BM_HashFamily_ProbBothOne(benchmark::State& state) {
  PairwiseBitLevel level(20);
  for (int i = 0; i < 10; ++i) level.fix_bit(i * 2, i % 2);
  std::uint64_t v = 1;
  double sum = 0.0;
  for (auto _ : state) {
    sum += level.prob_both_one(v, v + 7);
    v = (v + 0x9e37) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(sum);
}

// The estimator's per-list pair term: pair_sum over an ascending list of
// range(0) ids on a half-fixed level (the low 10 of 20 coefficient bits, the
// order in which the seed-fixing engine fixes them; c free).
void BM_HashFamily_PairSum(benchmark::State& state) {
  PairwiseBitLevel level(20);
  for (int i = 0; i < 10; ++i) level.fix_bit(i, i % 2);
  std::vector<std::uint32_t> ids(static_cast<std::size_t>(state.range(0)));
  std::uint32_t v = 1;
  for (auto& id : ids) {
    id = v;
    v += 1 + (v * 0x9e37u) % 4096;  // gaps up to 4096 ids: mixed free parts
  }
  double sum = 0.0;
  for (auto _ : state) {
    sum += level.pair_sum(ids);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_HashFamily_MarkEval(benchmark::State& state) {
  MarkingFamily family(1 << 20, 8);
  for (int b = 0; b < family.total_seed_bits(); ++b) {
    family.fix_global_bit(b, (b * 5 + 1) % 2);
  }
  std::uint64_t v = 0;
  std::uint64_t marks = 0;
  for (auto _ : state) {
    marks += family.mark(v) ? 1 : 0;
    v = (v + 0x9e37) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(marks);
}

// Full seed fix through the engine on a 1-machine simulator, over a
// target-count estimator of the given size.
void BM_FixSeed(benchmark::State& state) {
  const auto targets = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < targets; ++i) {
    ids.push_back((i * 2654435761u) & 0xFFFF);
  }
  // Each assignment of a chunk fixed in turn on a copy of the family.
  auto count_marked = [&](mpc::MachineId, const MarkingFamily& family,
                          int level, std::span<const int> chunk,
                          std::span<double> out) {
    MarkingFamily local = family;
    for (std::uint32_t a = 0; a < out.size(); ++a) {
      fix_chunk(local.level(level), chunk, a);
      double total = 0.0;
      for (std::uint64_t v : ids) total += local.prob_mark(v, local.levels());
      out[a] = total;
    }
  };
  mpc::MpcConfig cfg;
  cfg.num_machines = 1;
  mpc::Simulator sim(cfg);
  for (auto _ : state) {
    MarkingFamily family(1 << 16, 4);
    const auto report = fix_seed_mpc(sim, family, 4, 1, count_marked);
    benchmark::DoNotOptimize(report.trajectory.back());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(targets));
}

void BM_SimulatorRoundOverhead(benchmark::State& state) {
  mpc::MpcConfig cfg;
  cfg.num_machines = static_cast<mpc::MachineId>(state.range(0));
  cfg.memory_words = 1 << 20;
  mpc::Simulator sim(cfg);
  for (auto _ : state) {
    sim.round([](mpc::Machine&, const mpc::Inbox&) {});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_AllReduceSum(benchmark::State& state) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = 1 << 22;
  mpc::Simulator sim(cfg);
  const auto width = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> contributions(
      8, std::vector<double>(width, 1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(allreduce_sum(sim, contributions));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(width) * 8);
}

void BM_GnpGeneration(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const Graph g = gen::gnp(n, 8.0 / n, seed++);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_DistGraphLoad(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  const Graph g = gen::gnp(n, 8.0 / n, 3);
  mpc::MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = 1 << 24;
  for (auto _ : state) {
    mpc::Simulator sim(cfg);
    mpc::DistGraph dg(sim, g);
    benchmark::DoNotOptimize(dg.active_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

BENCHMARK(BM_HashFamily_ProbOne);
BENCHMARK(BM_HashFamily_ProbBothOne);
BENCHMARK(BM_HashFamily_PairSum)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_HashFamily_MarkEval);
BENCHMARK(BM_FixSeed)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_SimulatorRoundOverhead)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_AllReduceSum)->Arg(16)->Arg(256)->Arg(4096);
BENCHMARK(BM_GnpGeneration)->Arg(10000)->Arg(100000);
BENCHMARK(BM_DistGraphLoad)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace rsets

RSETS_BENCH_MAIN(substrate);
