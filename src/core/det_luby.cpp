#include "core/det_luby.hpp"

#include <algorithm>

#include "core/seed_fixing.hpp"
#include "mpc/dist_graph.hpp"
#include "util/bits.hpp"
#include "util/hash_family.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace {

using mpc::MachineId;
using mpc::Word;

// Priority: higher active degree wins; ties go to the lower id.
bool beats(std::uint32_t deg_u, VertexId u, std::uint32_t deg_v, VertexId v) {
  if (deg_u != deg_v) return deg_u > deg_v;
  return u < v;
}

}  // namespace

RulingSetResult det_luby_mis_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                 const DetLubyOptions& options) {
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  check_chunk_bits(options.chunk_bits, "det_luby");
  const VertexId n = dg.num_vertices();
  const MachineId m_count = sim.num_machines();

  RulingSetResult result;
  result.beta = 1;
  std::vector<VertexId>& mis = result.ruling_set;

  std::vector<std::uint32_t> adeg(n, 0);

  // Checkpointable driver state: everything that survives across rounds.
  sim.register_snapshotable("dist_graph", &dg);
  auto driver_state =
      mpc::snapshot_of(result.ruling_set, result.phases, result.mark_steps,
                       result.derand_chunks, adeg);
  sim.register_snapshotable("det_luby", &driver_state);

  while (dg.active_count() > 0) {
    ++result.phases;
    // Degrees: owners compute their own; one all-to-all ships each active
    // vertex's degree to its neighbors' owners (mirrors Luby's priority
    // exchange; 1 round, O(sum active degrees) words).
    std::uint32_t max_deg = 0;
    for (MachineId m = 0; m < m_count; ++m) {
      for (VertexId v : dg.owned(m)) {
        if (!dg.active(v)) continue;
        adeg[v] = dg.active_degree(v);
        max_deg = std::max(max_deg, adeg[v]);
      }
    }
    sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
      const MachineId m = machine.id();
      std::vector<std::vector<Word>> buckets(m_count);
      for (VertexId v : dg.owned(m)) {
        if (!dg.active(v)) continue;
        for (VertexId u : dg.neighbors(v)) {
          if (dg.active(u)) {
            auto& b = buckets[dg.owner(u)];
            b.push_back(v);
            b.push_back(adeg[v]);
          }
        }
      }
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != m && !buckets[dst].empty()) {
          machine.send(dst, 0x90, buckets[dst]);
        }
      }
    });
    sim.drain([](mpc::Machine&, const mpc::Inbox&) {});

    // Isolated actives join immediately (no estimator work needed).
    std::vector<bool> joined(n, false);
    bool any_positive_degree = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!dg.active(v)) continue;
      if (adeg[v] == 0) {
        joined[v] = true;
      } else {
        any_positive_degree = true;
      }
    }

    if (any_positive_degree) {
      // Per-vertex truncation depths: p_v = 2^-k_v in
      // (1/(4 deg v), 1/(2 deg v)].
      auto depth_of = [&](VertexId v) {
        return ceil_log2(2ull * std::max<std::uint32_t>(adeg[v], 1));
      };
      const int k_max = ceil_log2(2ull * max_deg);
      MarkingFamily family(std::max<VertexId>(n, 2), std::max(k_max, 1));

      // Estimator terms, sharded by owner: singleton (v, w_v, k_v) and pair
      // (u, v, w_v, k_u, k_v) for u in N(v) with u beating v.
      std::vector<PriorityShard> shards(m_count);
      for (MachineId m = 0; m < m_count; ++m) {
        for (VertexId v : dg.owned(m)) {
          if (!dg.active(v) || adeg[v] == 0) continue;
          const double w = static_cast<double>(adeg[v]) + 1.0;
          shards[m].singles.push_back({v, w, depth_of(v)});
          for (VertexId u : dg.neighbors(v)) {
            if (dg.active(u) && beats(adeg[u], u, adeg[v], v)) {
              shards[m].pairs.push_back({u, v, w, depth_of(u), depth_of(v)});
            }
          }
        }
      }

      // Chunked conditional expectations; a machine's one value per
      // assignment is its shard of Psi.
      result.derand_chunks +=
          fix_seed_mpc(sim, family, options.chunk_bits, 1,
                       [&](MachineId m, const MarkingFamily& pre, int level,
                           std::span<const int> chunk, std::span<double> out) {
                         shards[m].psi_chunk(pre, level, chunk, out);
                       })
              .chunks;
      ++result.mark_steps;

      // Joins: marked vertices with no marked beating neighbor. Marks and
      // neighbor degrees are locally known to owners.
      for (MachineId m = 0; m < m_count; ++m) {
        for (VertexId v : dg.owned(m)) {
          if (!dg.active(v) || adeg[v] == 0) continue;
          if (!family.mark_depth(v, depth_of(v))) continue;
          bool blocked = false;
          for (VertexId u : dg.neighbors(v)) {
            if (dg.active(u) && beats(adeg[u], u, adeg[v], v) &&
                family.mark_depth(u, depth_of(u))) {
              blocked = true;
              break;
            }
          }
          if (!blocked) joined[v] = true;
        }
      }
    }

    // Announce joins (1 round); owners retire joiners + dominated.
    std::vector<std::vector<Word>> join_lists(m_count);
    for (MachineId m = 0; m < m_count; ++m) {
      for (VertexId v : dg.owned(m)) {
        if (joined[v]) join_lists[m].push_back(v);
      }
    }
    sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
      const MachineId src = machine.id();
      if (join_lists[src].empty()) return;
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != src) machine.send(dst, 0x91, join_lists[src]);
      }
    });
    sim.drain([](mpc::Machine&, const mpc::Inbox&) {});

    std::vector<std::vector<VertexId>> removals(m_count);
    for (MachineId m = 0; m < m_count; ++m) {
      for (VertexId v : dg.owned(m)) {
        if (!dg.active(v)) continue;
        bool leave = joined[v];
        if (!leave) {
          for (VertexId u : dg.neighbors(v)) {
            if (dg.active(u) && joined[u]) {
              leave = true;
              break;
            }
          }
        }
        if (leave) removals[m].push_back(v);
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      if (joined[v]) mis.push_back(v);
    }
    dg.deactivate(sim, removals);
  }

  std::sort(mis.begin(), mis.end());
  sim.sync_metrics();
  result.metrics = sim.metrics();
  RSETS_INFO << "det_luby: n=" << n << " |MIS|=" << mis.size()
             << " iterations=" << result.phases
             << " rounds=" << result.metrics.rounds
             << " random_words=" << result.metrics.random_words;
  return result;
}

}  // namespace rsets
