// The one-pass chunk evaluators against the ordered per-assignment loop
// they replace: MarkShard::chunk_partials (derand_mark's cover and edge
// mass) and PriorityShard::psi_chunk (det_luby, det_matching). For every
// chunk the oracle fixes each of the 2^c assignments on a copy and
// evaluates it in term order; the two must agree bit for bit (memcmp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/derand.hpp"
#include "core/det_matching.hpp"
#include "core/seed_fixing.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_graph.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string lanes_of(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) s += std::to_string(x) + " ";
  return s;
}

// The first `width` unfixed indices of `level`, ascending (the engine's
// chunk order).
std::vector<int> first_unfixed(const PairwiseBitLevel& level, int width) {
  std::vector<int> chunk;
  for (int i = 0; i <= level.bits() && static_cast<int>(chunk.size()) < width;
       ++i) {
    if (!level.bit_fixed(i)) chunk.push_back(i);
  }
  return chunk;
}

std::vector<double> ordered_mark(const MarkShard& shard,
                                 const PairwiseBitLevel& level, int remaining,
                                 std::span<const int> chunk) {
  std::vector<double> out(std::size_t{2} << chunk.size());
  PairwiseBitLevel tentative = level;
  for (std::uint32_t a = 0; a < (1u << chunk.size()); ++a) {
    fix_chunk(tentative, chunk, a);
    const auto [c, x] = shard.partial(tentative, remaining);
    out[2 * a] = c;
    out[2 * a + 1] = x;
  }
  return out;
}

std::vector<double> chunked_mark(const MarkShard& shard,
                                 const PairwiseBitLevel& level, int remaining,
                                 std::span<const int> chunk) {
  std::vector<double> out(std::size_t{2} << chunk.size());
  shard.chunk_partials(level, remaining, chunk, out);
  return out;
}

// Walks `level` chunk by chunk as the engine does, fixing each chunk to a
// pseudo-random word, and compares every chunk; returns the chunks seen.
int walk_level_mark(const MarkShard& shard, PairwiseBitLevel& level,
                    int remaining, int width, Rng& rng) {
  int chunks = 0;
  while (!level.fully_fixed()) {
    const std::vector<int> chunk = first_unfixed(level, width);
    const auto want = ordered_mark(shard, level, remaining, chunk);
    const auto got = chunked_mark(shard, level, remaining, chunk);
    EXPECT_TRUE(same_bits(got, want))
        << "width " << width << " remaining " << remaining << " chunk@"
        << chunk.front() << "\n got  " << lanes_of(got) << "\n want "
        << lanes_of(want);
    fix_chunk(level, chunk,
              static_cast<std::uint32_t>(rng.next()) & ((1u << chunk.size()) - 1));
    ++chunks;
  }
  return chunks;
}

// derand_mark's shard layout over a whole graph: every vertex a target and
// a candidate, T_v = N[v] truncated to `trunc` and sorted, every edge once.
MarkShard shard_of(const Graph& g, std::size_t trunc) {
  MarkShard shard;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<VertexId> t_list = {v};
    for (const VertexId u : g.neighbors(v)) {
      if (t_list.size() >= trunc) break;
      t_list.push_back(u);
    }
    std::sort(t_list.begin(), t_list.end());
    shard.target_lists.push_back(std::move(t_list));
  }
  shard.edges = g.edges();
  return shard;
}

TEST(ChunkEval, MarkChunksAtEveryWidth) {
  // 13 seed bits per level: widths 1..12 all leave a last chunk that ends
  // at the constant bit, and width 12 leaves the constant alone.
  const Graph g = gen::gnp(4100, 3.0 / 4100, 21);
  MarkShard shard = shard_of(g, 8);
  shard.target_lists.resize(300);
  shard.edges.resize(400);
  Rng rng(7);
  for (int width = 1; width <= 12; ++width) {
    PairwiseBitLevel level(13);
    ASSERT_TRUE(shard.counts_exact(2));
    const int chunks = walk_level_mark(shard, level, 2, width, rng);
    EXPECT_EQ(chunks, (14 + width - 1) / width) << width;
  }
}

TEST(ChunkEval, MarkChunksAtEveryLevelOnGnpAndPowerLaw) {
  const Graph graphs[] = {gen::gnp(700, 0.03, 5),
                          gen::power_law(700, 2.3, 12.0, 6)};
  for (const Graph& g : graphs) {
    for (const int width : {2, 4, 5}) {
      const int levels = 4;
      MarkShard shard = shard_of(g, 16);
      Rng rng(static_cast<std::uint64_t>(width));
      MarkingFamily family(g.num_vertices(), levels);
      for (int j = 0; j < levels; ++j) {
        ASSERT_TRUE(shard.counts_exact(levels - 1 - j));
        walk_level_mark(shard, family.level(j), levels - 1 - j, width, rng);
        shard.keep_survivors(family.level(j));
      }
    }
  }
}

TEST(ChunkEval, MarkChunksOnDegenerateLists) {
  MarkShard shard;
  shard.target_lists = {
      {},
      {5},
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},  // shared parts
      {16, 17, 48, 49, 50, 80, 81, 82, 83, 112, 113, 114, 115, 116},
      {255},
      {3, 19, 35, 51, 67, 83, 99, 115},  // equal low bits
  };
  for (VertexId v = 0; v + 1 < 128; v += 3) shard.edges.push_back({v, v + 1});
  shard.edges.push_back({0, 255});
  Rng rng(3);
  for (const int width : {1, 3, 4, 9}) {
    for (const int remaining : {0, 1, 5}) {
      PairwiseBitLevel level(8);
      walk_level_mark(shard, level, remaining, width, rng);
    }
  }
}

TEST(ChunkEval, MarkChunksFromOutOfOrderStates) {
  // Bits fixed out of index order first: chunks are not contiguous, the
  // constant may be fixed before the coefficients, free parts of ascending
  // lists arrive out of order and lists mix determined and free ids.
  const Graph g = gen::gnp(200, 0.06, 9);
  const MarkShard shard = shard_of(g, 12);
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    PairwiseBitLevel level(8);
    for (int i = 0; i <= 8; ++i) {
      if (rng.next() % 3 == 0) level.fix_bit(i, static_cast<int>(rng.next() & 1));
    }
    walk_level_mark(shard, level, trial % 3, 1 + trial % 4, rng);
  }
}

TEST(ChunkEval, MarkBoundFailsAtFiftyLevelsAndTakesTheOrderedPath) {
  const Graph g = gen::gnp(64, 0.15, 4);
  const MarkShard shard = shard_of(g, 1u << 20);
  EXPECT_FALSE(shard.counts_exact(49));
  EXPECT_TRUE(shard.counts_exact(0));
  Rng rng(2);
  PairwiseBitLevel level(6);
  walk_level_mark(shard, level, 49, 4, rng);
}

// derand_mark against the engine run over the same shards with the ordered
// loop in every chunk: same marks, chunks, rounds and estimates. At 50
// levels the low levels fail the exactness bound and the high ones pass it.
struct MarkRun {
  std::vector<VertexId> marked;
  int chunks = 0;
  std::uint64_t rounds = 0;
  double initial = 0.0;
};

MarkRun ordered_derand_mark(const Graph& g, const mpc::MpcConfig& cfg,
                            const DerandMarkOptions& o) {
  mpc::Simulator sim(cfg);
  const mpc::DistGraph dg(sim, g);
  const VertexId n = g.num_vertices();
  const int k = o.levels;
  const std::size_t trunc = std::size_t{1} << std::min(k, 20);
  std::vector<MarkShard> shards(sim.num_machines());
  for (VertexId v = 0; v < n; ++v) {
    std::vector<VertexId> t_list = {v};
    for (const VertexId u : dg.neighbors(v)) {
      if (t_list.size() >= trunc) break;
      t_list.push_back(u);
    }
    std::sort(t_list.begin(), t_list.end());
    shards[dg.owner(v)].target_lists.push_back(std::move(t_list));
  }
  for (mpc::MachineId m = 0; m < sim.num_machines(); ++m) {
    for (const VertexId u : dg.owned(m)) {
      for (const VertexId w : dg.neighbors(u)) {
        if (u < w) shards[m].edges.push_back({u, w});
      }
    }
  }
  const double lambda = 8.0 * n;
  const auto budget = static_cast<double>(o.edge_budget);
  MarkingFamily family(std::max<VertexId>(n, 2), k);
  MarkRun run;
  double cover = 0.0;
  double mass = 0.0;
  for (const MarkShard& shard : shards) {
    const auto [c, x] = shard.partial(family.level(0), k - 1);
    cover += c;
    mass += x;
  }
  run.initial = cover - lambda * mass / budget;
  const std::uint64_t before = sim.metrics().rounds;
  run.chunks =
      fix_seed_mpc(
          sim, family, o.chunk_bits, 2,
          [&](mpc::MachineId m, const MarkingFamily& pre, int level,
              std::span<const int> chunk, std::span<double> out) {
            const auto want =
                ordered_mark(shards[m], pre.level(level), k - 1 - level, chunk);
            std::copy(want.begin(), want.end(), out.begin());
          },
          [&](std::span<const double> t) {
            return t[0] - lambda * t[1] / budget;
          },
          [&](int level) {
            for (MarkShard& shard : shards) {
              shard.keep_survivors(family.level(level));
            }
          })
          .chunks;
  run.rounds = sim.metrics().rounds - before;
  for (VertexId v = 0; v < n; ++v) {
    if (family.mark(v)) run.marked.push_back(v);
  }
  return run;
}

MarkRun derand_mark_run(const Graph& g, const mpc::MpcConfig& cfg,
                        const DerandMarkOptions& o) {
  mpc::Simulator sim(cfg);
  const mpc::DistGraph dg(sim, g);
  std::vector<VertexId> targets(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) targets[v] = v;
  const std::vector<bool> all(g.num_vertices(), true);
  const DerandMarkResult r = derand_mark(sim, dg, all, targets, o);
  return {r.marked, r.chunks, r.rounds, r.initial_estimate};
}

void expect_same_run(const MarkRun& got, const MarkRun& want) {
  EXPECT_EQ(got.marked, want.marked);
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(std::memcmp(&got.initial, &want.initial, sizeof(double)), 0);
}

mpc::MpcConfig machines(mpc::MachineId m, unsigned threads) {
  mpc::MpcConfig cfg;
  cfg.num_machines = m;
  cfg.num_threads = threads;
  cfg.memory_words = 1 << 22;
  return cfg;
}

TEST(ChunkEval, DerandMarkMatchesOrderedEngine) {
  const Graph g = gen::power_law(300, 2.2, 10.0, 8);
  for (const int levels : {3, 50}) {
    DerandMarkOptions o;
    o.levels = levels;
    o.edge_budget = 2000;
    o.chunk_bits = 4;
    expect_same_run(derand_mark_run(g, machines(4, 1), o),
                    ordered_derand_mark(g, machines(4, 1), o));
  }
}

// Four simulator workers evaluate the machines' chunks concurrently (the
// case tools/check_tsan.sh runs under ThreadSanitizer).
TEST(ChunkEval, EnginesAtFourWorkersMatchOrderedLoop) {
  const Graph g = gen::gnp(500, 0.04, 13);
  DerandMarkOptions o;
  o.levels = 4;
  o.edge_budget = 4000;
  o.chunk_bits = 3;
  expect_same_run(derand_mark_run(g, machines(8, 4), o),
                  ordered_derand_mark(g, machines(8, 1), o));

  const DetMatchingResult one = det_matching_mpc(g, machines(8, 1));
  const DetMatchingResult four = det_matching_mpc(g, machines(8, 4));
  EXPECT_EQ(four.matching, one.matching);
  EXPECT_EQ(four.derand_chunks, one.derand_chunks);
  EXPECT_TRUE(four.metrics == one.metrics);
}

// --- PriorityShard --------------------------------------------------------

double psi(const PriorityShard& shard, const MarkingFamily& family) {
  double total = 0.0;
  for (const PriorityShard::Single& s : shard.singles) {
    total += s.w * family.prob_mark(s.id, s.depth);
  }
  for (const PriorityShard::Pair& p : shard.pairs) {
    total -= p.w * family.prob_mark_both(p.beater, p.beater_depth, p.id,
                                         p.depth);
  }
  return total;
}

// Walks every level of `family` chunk by chunk, comparing psi_chunk with
// psi under each assignment; returns the number of chunks.
int walk_family_psi(const PriorityShard& shard, MarkingFamily& family,
                    int width, Rng& rng) {
  int chunks = 0;
  for (int j = 0; j < family.levels(); ++j) {
    while (!family.level(j).fully_fixed()) {
      const std::vector<int> chunk = first_unfixed(family.level(j), width);
      std::vector<double> want(std::size_t{1} << chunk.size());
      MarkingFamily local = family;
      for (std::uint32_t a = 0; a < want.size(); ++a) {
        fix_chunk(local.level(j), chunk, a);
        want[a] = psi(shard, local);
      }
      std::vector<double> got(want.size());
      shard.psi_chunk(family, j, chunk, got);
      EXPECT_TRUE(same_bits(got, want))
          << "width " << width << " level " << j << " chunk@" << chunk.front()
          << "\n got  " << lanes_of(got) << "\n want " << lanes_of(want);
      fix_chunk(family.level(j), chunk,
                static_cast<std::uint32_t>(rng.next()) &
                    ((1u << chunk.size()) - 1));
      ++chunks;
    }
  }
  return chunks;
}

// Priority terms over `g` as det_luby lays them out, with non-integer
// weights and depths spread over [1, k].
PriorityShard priority_shard_of(const Graph& g, int k, Rng& rng) {
  PriorityShard shard;
  auto depth_of = [&](VertexId v) { return 1 + static_cast<int>(v % k); };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double w = 1.0 / 3.0 + 0.1 * static_cast<double>(rng.next() % 50);
    shard.singles.push_back({v, w, depth_of(v)});
    for (const VertexId u : g.neighbors(v)) {
      if (u < v) shard.pairs.push_back({u, v, w * 1.7, depth_of(u), depth_of(v)});
    }
  }
  return shard;
}

TEST(ChunkEval, PsiChunksAtEveryWidth) {
  const Graph g = gen::gnp(4100, 2.0 / 4100, 17);
  Rng rng(19);
  PriorityShard shard = priority_shard_of(g, 2, rng);
  shard.singles.resize(150);
  shard.pairs.resize(150);
  for (int width = 1; width <= 12; ++width) {
    MarkingFamily family(4100, 2);
    const int chunks = walk_family_psi(shard, family, width, rng);
    EXPECT_EQ(chunks, 2 * ((14 + width - 1) / width)) << width;
  }
}

TEST(ChunkEval, PsiChunksOnGnpAndPowerLawWithMixedDepths) {
  const Graph graphs[] = {gen::gnp(300, 0.04, 23),
                          gen::power_law(300, 2.3, 8.0, 24)};
  Rng rng(29);
  for (const Graph& g : graphs) {
    for (const int width : {1, 3, 4}) {
      const PriorityShard shard = priority_shard_of(g, 5, rng);
      MarkingFamily family(g.num_vertices(), 5);
      walk_family_psi(shard, family, width, rng);
    }
  }
}

TEST(ChunkEval, PsiChunksOnSharedFreePartsAndEmptyShards) {
  PriorityShard shard;
  for (std::uint64_t v = 0; v < 32; ++v) {
    shard.singles.push_back({v, 0.3 * static_cast<double>(v) - 2.0,
                             1 + static_cast<int>(v % 3)});
  }
  for (std::uint64_t v = 1; v < 32; ++v) {
    shard.pairs.push_back({v - 1, v, 1.25, 3, 1 + static_cast<int>(v % 3)});
    shard.pairs.push_back({v, (v + 16) % 32, -0.7, 2, 3});
  }
  Rng rng(31);
  for (const int width : {1, 2, 4, 6}) {
    MarkingFamily family(32, 3);
    walk_family_psi(shard, family, width, rng);
    MarkingFamily empty_family(32, 3);
    walk_family_psi(PriorityShard{}, empty_family, width, rng);
  }
}

}  // namespace
}  // namespace rsets
