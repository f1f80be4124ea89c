#include "core/det_matching.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/seed_fixing.hpp"
#include "mpc/dist_graph.hpp"
#include "util/bits.hpp"
#include "util/hash_family.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace {

using mpc::MachineId;
using mpc::Word;

// Priority: higher edge degree wins; ties go to the lower edge id.
bool beats(std::uint32_t deg_f, std::uint32_t f, std::uint32_t deg_e,
           std::uint32_t e) {
  if (deg_f != deg_e) return deg_f > deg_e;
  return f < e;
}

}  // namespace

bool is_matching(const Graph& g, const std::vector<Edge>& matching) {
  std::vector<bool> used(g.num_vertices(), false);
  for (const Edge& e : matching) {
    if (e.u >= g.num_vertices() || e.v >= g.num_vertices()) return false;
    if (!g.has_edge(e.u, e.v)) return false;
    if (used[e.u] || used[e.v]) return false;
    used[e.u] = true;
    used[e.v] = true;
  }
  return true;
}

bool is_maximal_matching(const Graph& g, const std::vector<Edge>& matching) {
  if (!is_matching(g, matching)) return false;
  std::vector<bool> used(g.num_vertices(), false);
  for (const Edge& e : matching) {
    used[e.u] = true;
    used[e.v] = true;
  }
  for (const Edge& e : g.edges()) {
    if (!used[e.u] && !used[e.v]) return false;  // augmentable edge
  }
  return true;
}

DetMatchingResult det_matching_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                   const DetMatchingOptions& options) {
  check_chunk_bits(options.chunk_bits, "det_matching");
  mpc::Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  const MachineId m_count = sim.num_machines();

  // Canonical edge ids: position in the sorted (u < v) edge list. An edge
  // is owned by owner(u) — the machine that stores u's adjacency row.
  const std::vector<Edge> edges = g.edges();
  const auto num_edges = static_cast<std::uint32_t>(edges.size());
  // Storage for edge-id bookkeeping at owners (already covered by the
  // adjacency charge shape-wise; charge the id words explicitly).
  for (MachineId m = 0; m < m_count; ++m) {
    std::size_t words = 0;
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (dg.owner(edges[e].u) == m) ++words;
    }
    sim.machine(m).charge_storage(words);
  }

  std::vector<bool> vertex_matched(g.num_vertices(), false);
  std::vector<bool> edge_active(num_edges, true);
  DetMatchingResult result;

  // Per-vertex incident edge ids, for edge-degree and adjacency scans.
  std::vector<std::vector<std::uint32_t>> incident(g.num_vertices());
  for (std::uint32_t e = 0; e < num_edges; ++e) {
    incident[edges[e].u].push_back(e);
    incident[edges[e].v].push_back(e);
  }

  std::vector<std::uint32_t> edge_deg(num_edges, 0);

  // Checkpointable driver state: everything that survives across rounds.
  sim.register_snapshotable("dist_graph", &dg);
  auto driver_state =
      mpc::snapshot_of(result.matching, result.iterations,
                       result.derand_chunks, vertex_matched, edge_active);
  sim.register_snapshotable("det_matching", &driver_state);

  std::uint64_t active_edges = num_edges;
  while (active_edges > 0) {
    ++result.iterations;
    // Edge degrees: active edges sharing an endpoint. Owners compute these
    // after a degree exchange mirroring det_luby's (1 round; each owner
    // ships its endpoints' active incident counts to the co-owner).
    std::vector<std::uint32_t> active_at(g.num_vertices(), 0);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (!edge_active[e]) continue;
      ++active_at[edges[e].u];
      ++active_at[edges[e].v];
    }
    std::uint32_t max_deg = 1;
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (!edge_active[e]) continue;
      edge_deg[e] = active_at[edges[e].u] + active_at[edges[e].v] - 2;
      max_deg = std::max(max_deg, std::max(edge_deg[e], 1u));
    }
    sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
      const MachineId m = machine.id();
      std::vector<std::vector<Word>> buckets(m_count);
      for (std::uint32_t e = 0; e < num_edges; ++e) {
        if (!edge_active[e] || dg.owner(edges[e].u) != m) continue;
        const MachineId other = dg.owner(edges[e].v);
        if (other != m) {
          buckets[other].push_back(e);
          buckets[other].push_back(edge_deg[e]);
        }
      }
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != m && !buckets[dst].empty()) {
          machine.send(dst, 0xA5, buckets[dst]);
        }
      }
    });
    sim.drain([](mpc::Machine&, const mpc::Inbox&) {});

    auto depth_of = [&](std::uint32_t e) {
      return ceil_log2(2ull * std::max<std::uint32_t>(edge_deg[e], 1));
    };
    const int k_max = std::max(ceil_log2(2ull * max_deg), 1);
    MarkingFamily family(std::max<std::uint32_t>(num_edges, 2), k_max);

    // Estimator shards by owner: singleton per active edge; pair terms per
    // adjacent active edge pair (f beats e), assigned to e's owner.
    std::vector<PriorityShard> shards(m_count);
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (!edge_active[e]) continue;
      PriorityShard& shard = shards[dg.owner(edges[e].u)];
      const double w = static_cast<double>(edge_deg[e]) + 1.0;
      shard.singles.push_back({e, w, depth_of(e)});
      for (VertexId endpoint : {edges[e].u, edges[e].v}) {
        for (std::uint32_t f : incident[endpoint]) {
          if (f == e || !edge_active[f]) continue;
          if (beats(edge_deg[f], f, edge_deg[e], e)) {
            shard.pairs.push_back({f, e, w, depth_of(f), depth_of(e)});
          }
        }
      }
    }

    // Chunked conditional expectations (same engine as the ruling-set
    // marking step); a machine's one value per assignment is its shard of
    // Psi.
    result.derand_chunks +=
        fix_seed_mpc(sim, family, options.chunk_bits, 1,
                     [&](MachineId m, const MarkingFamily& pre, int level,
                         std::span<const int> chunk, std::span<double> out) {
                       shards[m].psi_chunk(pre, level, chunk, out);
                     })
            .chunks;

    // Winners: marked edges with no marked beating adjacent edge; locally
    // evaluable from the shared seed + exchanged degrees.
    std::vector<std::uint32_t> winners;
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (!edge_active[e] || !family.mark_depth(e, depth_of(e))) continue;
      bool blocked = false;
      for (VertexId endpoint : {edges[e].u, edges[e].v}) {
        for (std::uint32_t f : incident[endpoint]) {
          if (f == e || !edge_active[f]) continue;
          if (beats(edge_deg[f], f, edge_deg[e], e) &&
              family.mark_depth(f, depth_of(f))) {
            blocked = true;
            break;
          }
        }
        if (blocked) break;
      }
      if (!blocked) winners.push_back(e);
    }
    // Guard against an estimator bug: Psi_final > 0 forces a winner
    // whenever an active edge remains.
    if (winners.empty()) {
      throw std::logic_error("det_matching: no winner in an iteration");
    }

    // Announce winners (1 round) so all owners retire touched edges.
    std::vector<std::vector<Word>> lists(m_count);
    for (std::uint32_t e : winners) {
      lists[dg.owner(edges[e].u)].push_back(e);
    }
    sim.round([&](mpc::Machine& machine, const mpc::Inbox&) {
      const MachineId src = machine.id();
      if (lists[src].empty()) return;
      for (MachineId dst = 0; dst < m_count; ++dst) {
        if (dst != src) machine.send(dst, 0xA6, lists[src]);
      }
    });
    sim.drain([](mpc::Machine&, const mpc::Inbox&) {});

    for (std::uint32_t e : winners) {
      result.matching.push_back(edges[e]);
      vertex_matched[edges[e].u] = true;
      vertex_matched[edges[e].v] = true;
    }
    active_edges = 0;
    for (std::uint32_t e = 0; e < num_edges; ++e) {
      if (!edge_active[e]) continue;
      if (vertex_matched[edges[e].u] || vertex_matched[edges[e].v]) {
        edge_active[e] = false;
      } else {
        ++active_edges;
      }
    }
  }

  std::sort(result.matching.begin(), result.matching.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  sim.sync_metrics();
  result.metrics = sim.metrics();
  RSETS_INFO << "det_matching: m=" << num_edges
             << " |M|=" << result.matching.size()
             << " iterations=" << result.iterations
             << " rounds=" << result.metrics.rounds
             << " random_words=" << result.metrics.random_words;
  return result;
}

}  // namespace rsets
