#include "core/derand.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/seed_fixing.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace {

using mpc::MachineId;

// Estimator shard held by one machine: the targets it owns (with truncated
// candidate neighborhoods) and the candidate edges it owns. Lists shrink to
// level survivors as seed levels are finalized.
struct Shard {
  std::vector<std::vector<VertexId>> target_lists;
  std::vector<Edge> edges;
};

// Partial estimator sums over one shard with level `current` of `family`
// in its (tentative) state. Levels below are already folded in (survivor
// lists); each level above contributes 1/2 to a marginal and 1/4 to a
// pairwise joint. The pair term of a target list is one O(|T_v|) class
// count (PairwiseBitLevel::pair_sum).
std::pair<double, double> shard_partial(const Shard& shard,
                                        const MarkingFamily& family,
                                        int current) {
  const PairwiseBitLevel& level = family.level(current);
  const int remaining = family.levels() - 1 - current;
  const double single_factor = std::exp2(-remaining);
  const double pair_factor = std::exp2(-2 * remaining);
  double cover = 0.0;
  for (const auto& t_list : shard.target_lists) {
    double singles = 0.0;
    for (const VertexId u : t_list) singles += level.prob_one(u);
    cover += singles * single_factor - level.pair_sum(t_list) * pair_factor;
  }
  double edge_mass = 0.0;
  for (const Edge& e : shard.edges) {
    edge_mass += level.prob_both_one(e.u, e.v) * pair_factor;
  }
  return {cover, edge_mass};
}

void filter_survivors(Shard& shard, const PairwiseBitLevel& level) {
  for (auto& t_list : shard.target_lists) {
    std::erase_if(t_list, [&](VertexId u) { return level.eval(u) == 0; });
  }
  std::erase_if(shard.edges, [&](const Edge& e) {
    return level.eval(e.u) == 0 || level.eval(e.v) == 0;
  });
}

}  // namespace

DerandMarkResult derand_mark(mpc::Simulator& sim, const mpc::DistGraph& dg,
                             const std::vector<bool>& candidates_mask,
                             const std::vector<VertexId>& targets,
                             const DerandMarkOptions& options) {
  if (options.levels < 1) {
    throw std::invalid_argument("derand_mark: levels must be >= 1");
  }
  check_chunk_bits(options.chunk_bits, "derand_mark");
  if (options.edge_budget == 0) {
    throw std::invalid_argument("derand_mark: edge_budget must be positive");
  }
  const VertexId n = dg.num_vertices();
  const int k = options.levels;
  const std::size_t trunc = std::size_t{1} << std::min(k, 20);
  const MachineId m_count = sim.num_machines();

  auto is_candidate = [&](VertexId v) {
    return v < candidates_mask.size() && candidates_mask[v] && dg.active(v);
  };

  // --- build shards (local work at each owner) -----------------------------
  std::vector<Shard> shards(m_count);
  for (VertexId v : targets) {
    std::vector<VertexId> t_list;
    if (is_candidate(v)) t_list.push_back(v);
    for (VertexId u : dg.neighbors(v)) {
      if (t_list.size() >= trunc) break;
      if (is_candidate(u)) t_list.push_back(u);
    }
    // Ascending ids keep equal free parts contiguous for pair_sum. Order is
    // otherwise immaterial: every singles and pairs term is dyadic, so each
    // list's sums are exact in any order.
    std::sort(t_list.begin(), t_list.end());
    shards[dg.owner(v)].target_lists.push_back(std::move(t_list));
  }
  for (MachineId m = 0; m < m_count; ++m) {
    for (VertexId u : dg.owned(m)) {
      if (!is_candidate(u)) continue;
      for (VertexId w : dg.neighbors(u)) {
        if (u < w && is_candidate(w)) shards[m].edges.push_back({u, w});
      }
    }
  }

  const double lambda =
      8.0 * std::max<double>(1.0, static_cast<double>(targets.size()));
  const double budget = static_cast<double>(options.edge_budget);

  MarkingFamily family(std::max<std::uint64_t>(n, 2), k);
  DerandMarkResult result;
  result.seed_bits = family.total_seed_bits();

  const std::uint64_t rounds_before = sim.metrics().rounds;

  {
    double cover = 0.0;
    double edge_mass = 0.0;
    for (MachineId m = 0; m < m_count; ++m) {
      const auto [c, x] = shard_partial(shards[m], family, 0);
      cover += c;
      edge_mass += x;
    }
    result.initial_estimate = cover - lambda * edge_mass / budget;
  }

  // --- chunked conditional expectations ------------------------------------
  // Two values per assignment (cover, edge mass), evaluated per shard inside
  // the engine's allreduce. Once a level is final every machine filters its
  // shard locally (free).
  const SeedFixReport report = fix_seed_mpc(
      sim, family, options.chunk_bits, /*values_per_assignment=*/2,
      [&](MachineId m, const MarkingFamily& tentative, int level,
          std::span<double> out) {
        const auto [c, x] = shard_partial(shards[m], tentative, level);
        out[0] = c;
        out[1] = x;
      },
      [&](std::span<const double> t) { return t[0] - lambda * t[1] / budget; },
      [&](int level) {
        for (Shard& shard : shards) {
          filter_survivors(shard, family.level(level));
        }
      });
  result.chunks = report.chunks;

  // --- realized outcome (all quantities now deterministic) -----------------
  {
    double cover = 0.0;
    std::uint64_t covered = 0;
    std::uint64_t edges = 0;
    for (const Shard& shard : shards) {
      for (const auto& t_list : shard.target_lists) {
        const double y = static_cast<double>(t_list.size());
        cover += y - y * (y - 1) / 2.0;
        if (!t_list.empty()) ++covered;
      }
      edges += shard.edges.size();
    }
    result.covered_targets = covered;
    result.marked_edges = edges;
    result.final_estimate =
        cover - lambda * static_cast<double>(edges) / budget;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (is_candidate(v) && family.mark(v)) result.marked.push_back(v);
  }

  result.rounds = sim.metrics().rounds - rounds_before;
  RSETS_DEBUG << "derand_mark: |T|=" << targets.size() << " k=" << k
              << " covered=" << result.covered_targets
              << " |M|=" << result.marked.size()
              << " edges(M)=" << result.marked_edges << "/"
              << options.edge_budget << " Phi " << result.initial_estimate
              << " -> " << result.final_estimate;
  return result;
}

}  // namespace rsets
