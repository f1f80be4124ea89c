#include "core/phase_common.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "core/greedy.hpp"
#include "graph/ops.hpp"
#include "mpc/primitives.hpp"

namespace rsets::detail {

using mpc::MachineId;
using mpc::Simulator;
using mpc::Word;

// Total active edges (2 rounds: one u64 allreduce).
std::uint64_t count_active_edges(Simulator& sim, const mpc::DistGraph& dg) {
  std::vector<std::uint64_t> local(sim.num_machines(), 0);
  for (MachineId m = 0; m < sim.num_machines(); ++m) {
    for (VertexId v : dg.owned(m)) {
      if (dg.active(v)) local[m] += dg.active_degree(v);
    }
  }
  return allreduce_sum_u64(sim, local) / 2;
}

// Gathers the active induced subgraph restricted to `members` onto machine
// 0 (1 round), computes a greedy MIS there, and broadcasts it (1 round).
// `in_members` must be consistent with `members`.
std::vector<VertexId> gather_and_mis(Simulator& sim,
                                     const mpc::DistGraph& dg,
                                     const std::vector<VertexId>& members,
                                     const std::vector<std::uint8_t>& in_members) {
  const MachineId m_count = sim.num_machines();
  // Owners serialize their members' member-restricted adjacency:
  // v, deg, neighbors...
  std::vector<std::vector<Word>> contributions(m_count);
  for (VertexId v : members) {
    auto& payload = contributions[dg.owner(v)];
    payload.push_back(v);
    const std::size_t deg_slot = payload.size();
    payload.push_back(0);
    std::uint64_t deg = 0;
    for (VertexId u : dg.neighbors(v)) {
      if (u < v && in_members[u]) {  // each edge shipped once (by higher id)
        payload.push_back(u);
        ++deg;
      }
    }
    payload[deg_slot] = deg;
  }
  auto at_root = gather_to(sim, 0, contributions, 0xF1);

  // Machine 0: decode each record as (v, its lower-neighbor list, deg) and
  // charge the transient storage. Each list is strictly increasing with
  // every entry below v (a filtered slice of a deduplicated CSR row).
  struct Record {
    VertexId v;
    Word* lower;
    std::uint64_t deg;
  };
  std::size_t gathered_words = 0;
  std::vector<Record> records;
  VertexId max_id = 0;
  for (auto& payload : at_root) {
    gathered_words += payload.size();
    std::size_t i = 0;
    while (i < payload.size()) {
      const auto v = static_cast<VertexId>(payload[i]);
      const std::uint64_t deg = payload[i + 1];
      records.push_back({v, payload.data() + i + 2, deg});
      max_id = std::max(max_id, v);
      i += 2 + deg;
    }
  }
  sim.machine(0).charge_storage(gathered_words);

  // Relabel to local ids 0..k-1 in id order. Ids are unique, so max id ==
  // k-1 means they are exactly 0..k-1 (every phases=0 run): place each
  // record at its id and keep every arc as it is. Otherwise sort the
  // records and rewrite each arc once by binary search over the k ids —
  // machine 0 holds nothing n-sized.
  const std::size_t k = records.size();
  InducedSubgraph sub;
  sub.to_original.resize(k);
  if (k != 0 && max_id == k - 1) {
    std::vector<Record> by_id(k);
    for (const Record& r : records) by_id[r.v] = r;
    records = std::move(by_id);
    std::iota(sub.to_original.begin(), sub.to_original.end(), VertexId{0});
  } else {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) { return a.v < b.v; });
    for (std::size_t i = 0; i < k; ++i) sub.to_original[i] = records[i].v;
    for (const Record& r : records) {
      for (Word& u : std::span(r.lower, r.deg)) {
        u = static_cast<Word>(
            std::lower_bound(sub.to_original.begin(), sub.to_original.end(),
                             static_cast<VertexId>(u)) -
            sub.to_original.begin());
      }
    }
  }

  // Local CSR in two sweeps, no sort: count degrees, then in ascending i
  // write i's lower neighbors into its bucket and append i to each lower
  // neighbor's bucket. Bucket j receives its own lower list at step j and
  // then its upper neighbors in ascending order, so every bucket comes out
  // strictly increasing.
  std::vector<std::uint64_t> offsets(k + 1, 0);
  for (std::size_t i = 0; i < k; ++i) {
    offsets[i + 1] += records[i].deg;
    for (Word j : std::span(records[i].lower, records[i].deg)) ++offsets[j + 1];
  }
  for (std::size_t i = 0; i < k; ++i) offsets[i + 1] += offsets[i];
  std::vector<VertexId> adjacency(offsets[k]);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < k; ++i) {
    for (Word j : std::span(records[i].lower, records[i].deg)) {
      adjacency[cursor[i]++] = static_cast<VertexId>(j);
      adjacency[cursor[j]++] = static_cast<VertexId>(i);
    }
  }
  sub.graph = Graph::from_csr(std::move(offsets), std::move(adjacency));

  const std::vector<VertexId> local_mis = greedy_mis(sub.graph);
  std::vector<VertexId> mis;
  mis.reserve(local_mis.size());
  for (VertexId v : local_mis) mis.push_back(sub.to_original[v]);
  sim.machine(0).release_storage(gathered_words);

  // Broadcast the MIS (1 round).
  std::vector<Word> packed(mis.begin(), mis.end());
  broadcast(sim, 0, packed, 0xF2);
  return mis;
}

// Deactivates every active vertex within `radius` hops of the marked set
// `in_marked` (hop 1 is locally decidable because marks are seed-evaluable
// everywhere; further hops cost one notification round each) and then one
// deactivation round. Returns the number of removed vertices.
std::uint64_t remove_ball(Simulator& sim, mpc::DistGraph& dg,
                          const std::vector<std::uint8_t>& in_marked,
                          std::uint32_t radius) {
  const MachineId m_count = sim.num_machines();
  const VertexId n = dg.num_vertices();
  std::vector<std::uint8_t> removed(n, 0);
  std::vector<VertexId> frontier;
  // Hop 0 and 1: local evaluation at each owner.
  for (MachineId m = 0; m < m_count; ++m) {
    for (VertexId v : dg.owned(m)) {
      if (!dg.active(v)) continue;
      bool hit = in_marked[v];
      if (!hit) {
        for (VertexId u : dg.neighbors(v)) {
          if (dg.active(u) && in_marked[u]) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        removed[v] = true;
        frontier.push_back(v);
      }
    }
  }
  // Hops 2..radius: frontier owners notify neighbors' owners (1 round/hop).
  for (std::uint32_t hop = 2; hop <= radius; ++hop) {
    std::vector<std::vector<std::vector<Word>>> out(
        m_count, std::vector<std::vector<Word>>(m_count));
    for (VertexId v : frontier) {
      for (VertexId u : dg.neighbors(v)) {
        if (dg.active(u) && !removed[u]) {
          out[dg.owner(v)][dg.owner(u)].push_back(u);
        }
      }
    }
    const auto in = all_to_all(sim, out, 0xF3);
    std::vector<VertexId> next;
    for (MachineId m = 0; m < m_count; ++m) {
      for (const auto& payload : in[m]) {
        for (Word w : payload) {
          const auto u = static_cast<VertexId>(w);
          if (!removed[u]) {
            removed[u] = true;
            next.push_back(u);
          }
        }
      }
    }
    frontier = std::move(next);
  }
  // One deactivation round.
  std::vector<std::vector<VertexId>> batches(m_count);
  std::uint64_t count = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (removed[v]) {
      batches[dg.owner(v)].push_back(v);
      ++count;
    }
  }
  dg.deactivate(sim, batches);
  return count;
}

}  // namespace rsets::detail
