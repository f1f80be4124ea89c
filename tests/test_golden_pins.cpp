// Golden pins for the three derandomized drivers: exact output set hash,
// phase count, conditional-expectation chunk count, and the full 17-field
// metrics ledger on small seeded graphs. Any change to the per-machine
// estimator partials, the allreduce summation order, the argmax tie-break,
// or the chunk schedule moves at least one of these values. A direct
// derand_mark pin on a degree-128 graph covers target lists longer than 64,
// and a gather-only det_ruling pin (phases = 0) covers the local solve.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/derand.hpp"
#include "core/det_luby.hpp"
#include "core/det_matching.hpp"
#include "core/det_ruling.hpp"
#include "core/replay.hpp"
#include "graph/generators.hpp"
#include "mpc/dist_graph.hpp"

namespace rsets {
namespace {

mpc::MpcConfig config_for() {
  mpc::MpcConfig cfg;
  cfg.num_machines = 4;
  cfg.memory_words = 1 << 22;
  cfg.seed = 1;
  return cfg;
}

// Expected outputs. `ledger` lists rounds, messages, total_words,
// max_send_words, max_recv_words and max_storage_words; the other eleven
// fields (violations, random words, fault/integrity counters) are pinned to
// zero by aggregate initialization.
struct Pin {
  std::uint64_t set_hash;
  std::uint64_t phases;
  std::uint64_t derand_chunks;
  mpc::MpcMetrics ledger;
};

void expect_pin(const std::string& label, std::uint64_t set_hash,
                std::uint64_t phases, std::uint64_t chunks,
                const mpc::MpcMetrics& metrics, const Pin& pin) {
  EXPECT_EQ(set_hash, pin.set_hash) << label;
  EXPECT_EQ(phases, pin.phases) << label;
  EXPECT_EQ(chunks, pin.derand_chunks) << label;
  EXPECT_TRUE(metrics == pin.ledger)
      << label << ": " << metrics_json(metrics) << " vs pinned "
      << metrics_json(pin.ledger);
}

void expect_ruling_pin(const std::string& label, const RulingSetResult& r,
                       const Pin& pin) {
  expect_pin(label, ruling_set_hash(r.ruling_set), r.phases, r.derand_chunks,
             r.metrics, pin);
}

TEST(GoldenPins, DetRulingMpc) {
  struct Case {
    const char* label;
    Graph graph;
    std::uint64_t budget;
    int chunk_bits;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"gnp500", gen::gnp(500, 0.03, 17), 2048, 4,
       {14542395999082519668u, 1, 24, {64, 216, 5957, 294, 280, 2516}}},
      {"power_law600", gen::power_law(600, 2.5, 8.0, 23), 2048, 3,
       {8314787739044594678u, 1, 12, {37, 126, 4351, 507, 475, 2108}}},
      {"regular400", gen::random_regular(400, 12, 5), 1500, 6,
       {11925811199779372386u, 1, 16, {48, 168, 9777, 390, 390, 1750}}},
  };
  for (const Case& c : cases) {
    DetRulingOptions opt;
    opt.gather_budget_words = c.budget;
    opt.chunk_bits = c.chunk_bits;
    const RulingSetResult r = det_ruling_set_mpc(c.graph, config_for(), opt);
    ASSERT_GE(r.phases, 1u) << c.label;  // the marking step actually ran
    expect_ruling_pin(c.label, r, c.pin);
  }
}

// A budget above 2m + 2n skips marking: the whole graph is gathered onto
// machine 0 in one round and solved there. Pins the local CSR build of
// gather_and_mis on the identity-relabel path every phases=0 run takes.
TEST(GoldenPins, DetRulingMpcGatherOnly) {
  struct Case {
    const char* label;
    Graph graph;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"gnp2000", gen::gnp(2000, 0.004, 9),
       {13993963152689346855u, 0, 0, {6, 24, 16664, 3117, 8981, 17440}}},
      {"power_law1500", gen::power_law(1500, 2.5, 6.0, 31),
       {3109546487114714164u, 0, 0, {6, 24, 12017, 1899, 5576, 10335}}},
  };
  for (const Case& c : cases) {
    DetRulingOptions opt;
    opt.gather_budget_words = 1 << 20;
    const RulingSetResult r = det_ruling_set_mpc(c.graph, config_for(), opt);
    ASSERT_EQ(r.phases, 0u) << c.label;  // gathered without marking
    expect_ruling_pin(c.label, r, c.pin);
  }
}

TEST(GoldenPins, DetLubyMisMpc) {
  struct Case {
    const char* label;
    Graph graph;
    int chunk_bits;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"gnp300", gen::gnp(300, 0.03, 7), 4,
       {15021782976194062451u, 4, 45, {103, 396, 10335, 1058, 1058, 875}}},
      {"power_law400", gen::power_law(400, 2.5, 6.0, 11), 3,
       {11908166115316834653u, 4, 60, {133, 468, 9016, 942, 942, 833}}},
      {"grid15x20", gen::grid(15, 20), 5,
       {5115724305392832214u, 2, 10, {27, 132, 5185, 436, 436, 462}}},
  };
  for (const Case& c : cases) {
    DetLubyOptions opt;
    opt.chunk_bits = c.chunk_bits;
    const RulingSetResult r = det_luby_mis_mpc(c.graph, config_for(), opt);
    expect_ruling_pin(c.label, r, c.pin);
  }
}

TEST(GoldenPins, DetMatchingMpc) {
  struct Case {
    const char* label;
    Graph graph;
    int chunk_bits;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"gnp200", gen::gnp(200, 0.04, 3), 4,
       {11086552038158713375u, 5, 66, {143, 506, 8756, 352, 340, 758}}},
      {"barabasi200", gen::barabasi_albert(200, 3, 5), 2,
       {9265187901233403486u, 5, 150, {311, 1001, 7161, 298, 254, 618}}},
      {"torus10x12", gen::torus(10, 12), 6,
       {3665286468816524832u, 4, 24, {57, 225, 6463, 198, 198, 297}}},
  };
  for (const Case& c : cases) {
    DetMatchingOptions opt;
    opt.chunk_bits = c.chunk_bits;
    const DetMatchingResult r = det_matching_mpc(c.graph, config_for(), opt);
    // The matching's fingerprint: its canonical endpoint sequence.
    std::vector<VertexId> endpoints;
    for (const Edge& e : r.matching) {
      endpoints.push_back(e.u);
      endpoints.push_back(e.v);
    }
    expect_pin(c.label, ruling_set_hash(endpoints), r.iterations,
               r.derand_chunks, r.metrics, c.pin);
  }
}

// The d = 64 probe of E7's estimator-integrity bench: targets have degree
// >= 64 and levels = 7 truncates T_v at 128 ids, so the target lists are
// longer than 64 ids.
TEST(GoldenPins, DerandMarkLongLists) {
  const Graph g = gen::random_regular(3000, 128, 104);
  mpc::MpcConfig cfg;
  cfg.num_machines = 8;
  cfg.memory_words = std::size_t{1} << 26;
  cfg.seed = 1;
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  std::vector<VertexId> targets;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) >= 64) targets.push_back(v);
  }
  DerandMarkOptions opt;
  opt.levels = 7;
  opt.edge_budget = 1 << 22;
  const std::vector<bool> all(g.num_vertices(), true);
  const DerandMarkResult r = derand_mark(sim, dg, all, targets, opt);
  // Values of the quadratic pair-loop estimator (the test oracle of
  // PairwiseBitLevel::pair_sum).
  EXPECT_EQ(ruling_set_hash(r.marked), 12107896814292684825u);
  EXPECT_EQ(r.chunks, 28);
  EXPECT_EQ(r.covered_targets, 1950u);
  EXPECT_EQ(r.marked_edges, 7u);
  EXPECT_EQ(r.initial_estimate, 1511.0275807762519);
  EXPECT_EQ(r.final_estimate, 1652.9599456787109);
}

}  // namespace
}  // namespace rsets
