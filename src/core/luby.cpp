#include "core/luby.hpp"

#include <algorithm>

#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace {

using mpc::MachineId;
using mpc::Word;

}  // namespace

RulingSetResult luby_mis_mpc(const Graph& g, const mpc::MpcConfig& cfg) {
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  const VertexId n = dg.num_vertices();
  const MachineId m_count = sim.num_machines();

  RulingSetResult result;
  result.beta = 1;
  std::vector<VertexId>& mis = result.ruling_set;

  std::vector<std::uint64_t> priority(n, 0);

  // Checkpointable driver state: everything that survives across rounds.
  sim.register_snapshotable("dist_graph", &dg);
  auto driver_state =
      mpc::snapshot_of(result.ruling_set, result.phases, priority);
  sim.register_snapshotable("luby", &driver_state);

  while (dg.active_count() > 0) {
    ++result.phases;
    // Round A: owners draw priorities and route each owned active vertex's
    // priority to the owners of its active neighbors.
    std::vector<std::vector<std::vector<Word>>> out(
        m_count, std::vector<std::vector<Word>>(m_count));
    sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
      const MachineId m = machine.id();
      for (VertexId v : dg.owned(m)) {
        if (!dg.active(v)) continue;
        priority[v] = machine.rng().next();
      }
      for (VertexId v : dg.owned(m)) {
        if (!dg.active(v)) continue;
        for (VertexId u : dg.neighbors(v)) {
          if (!dg.active(u)) continue;
          const MachineId dst = dg.owner(u);
          out[m][dst].push_back(u);
          out[m][dst].push_back(priority[v]);
          out[m][dst].push_back(v);
        }
      }
      // Ship this machine's buckets.
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != m && !out[m][dst].empty()) {
          machine.send(dst, 0x70, out[m][dst]);
        }
      }
    });
    // Boundary: owners fold received neighbor priorities into join
    // decisions (smallest (priority, id) in closed neighborhood wins).
    std::vector<bool> joined(n, false);
    {
      // Byte-per-vertex: written from inside the drain callback (each owner
      // writes only vertices it owns, but bit-packed elements share bytes
      // across owners).
      std::vector<std::uint8_t> blocked(n, 0);
      auto consider = [&](VertexId target, std::uint64_t prio,
                          VertexId from) {
        if (prio < priority[target] ||
            (prio == priority[target] && from < target)) {
          blocked[target] = 1;
        }
      };
      sim.drain([&](mpc::Machine& machine, const mpc::Inbox& inbox) {
        const MachineId m = machine.id();
        // Local (same-owner) neighbor pairs never left the machine.
        const auto& local = out[m][m];
        for (std::size_t i = 0; i + 3 <= local.size(); i += 3) {
          consider(static_cast<VertexId>(local[i]), local[i + 1],
                   static_cast<VertexId>(local[i + 2]));
        }
        for (const mpc::MessageView& msg : inbox.with_tag(0x70)) {
          for (std::size_t i = 0; i + 3 <= msg.payload.size(); i += 3) {
            consider(static_cast<VertexId>(msg.payload[i]),
                     msg.payload[i + 1],
                     static_cast<VertexId>(msg.payload[i + 2]));
          }
        }
      });
      for (MachineId m = 0; m < m_count; ++m) {
        for (VertexId v : dg.owned(m)) {
          if (dg.active(v) && !blocked[v]) joined[v] = true;
        }
      }
    }
    // Round B: announce joiners cluster-wide (replicated knowledge), then
    // owners retire joiners and their neighbors in one deactivation round.
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
        if (dst != src) machine.send(dst, 0x71, join_lists[src]);
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
  RSETS_INFO << "luby_mpc: n=" << n << " |MIS|=" << mis.size()
             << " iterations=" << result.phases
             << " rounds=" << result.metrics.rounds;
  return result;
}

}  // namespace rsets
