// Oracle test of detail::gather_and_mis: the MIS machine 0 computes from
// the gathered lists must equal the greedy MIS of the member-induced
// subgraph built by induced_subgraph, mapped back to original ids. Covers
// the identity relabel (members are exactly 0..k-1) and the sorted relabel
// (any other member set), at one and at several machines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/greedy.hpp"
#include "core/phase_common.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

std::vector<VertexId> oracle_mis(const Graph& g,
                                 const std::vector<VertexId>& members) {
  const InducedSubgraph sub = induced_subgraph(g, members);
  std::vector<VertexId> out;
  for (VertexId v : greedy_mis(sub.graph)) out.push_back(sub.to_original[v]);
  return out;
}

void expect_gather_matches(const std::string& label, const Graph& g,
                           mpc::MachineId machines,
                           const std::vector<VertexId>& members) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = 1 << 22;
  cfg.seed = 1;
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  std::vector<std::uint8_t> in_members(g.num_vertices(), 0);
  for (VertexId v : members) in_members[v] = 1;
  const std::vector<VertexId> mis =
      detail::gather_and_mis(sim, dg, members, in_members);
  EXPECT_EQ(mis, oracle_mis(g, members))
      << label << " at " << machines << " machines, " << members.size()
      << " members";
}

TEST(GatherAndMis, MatchesGreedyOnInducedSubgraph) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"gnp300", gen::gnp(300, 0.03, 4)},
      {"power_law400", gen::power_law(400, 2.5, 6.0, 8)},
      {"grid12x15", gen::grid(12, 15)},
  };
  for (const auto& [name, g] : graphs) {
    const VertexId n = g.num_vertices();
    std::vector<VertexId> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    // A prefix 0..k-1 also takes the identity path.
    const std::vector<VertexId> prefix(all.begin(), all.begin() + n / 2);
    Rng rng(n);
    std::vector<VertexId> subset;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.flip(0.4)) subset.push_back(v);
    }
    // Owners enumerate members in list order; an unsorted list must not
    // change the result.
    std::vector<VertexId> shuffled(subset.rbegin(), subset.rend());
    const std::vector<std::pair<std::string, std::vector<VertexId>>> masks = {
        {"empty", {}},
        {"singleton", {n / 3}},
        {"all", all},
        {"prefix", prefix},
        {"random", subset},
        {"random-reversed", shuffled},
    };
    for (mpc::MachineId machines : {1u, 4u}) {
      for (const auto& [mask_name, members] : masks) {
        expect_gather_matches(name + "/" + mask_name, g, machines, members);
      }
    }
  }
}

}  // namespace
}  // namespace rsets
