#include "mpc/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/hash_family.hpp"

namespace rsets::mpc {

DistGraph::DistGraph(Simulator& sim, const Graph& g,
                     std::uint64_t partition_salt)
    : graph_(&g),
      num_vertices_(g.num_vertices()),
      num_edges_(g.num_edges()),
      num_machines_(sim.num_machines()),
      salt_(partition_salt),
      owned_(sim.num_machines()),
      active_(g.num_vertices(), true),
      active_count_(g.num_vertices()),
      charged_words_(sim.num_machines(), 0) {
  for (VertexId v = 0; v < num_vertices_; ++v) {
    owned_[owner(v)].push_back(v);
  }
  // Charge storage: per owned vertex, its id + degree + adjacency words,
  // plus the replicated activity bitset (n bits -> n/64 words).
  const std::size_t bitset_words = (num_vertices_ + 63) / 64;
  for (MachineId m = 0; m < num_machines_; ++m) {
    std::size_t words = bitset_words;
    for (VertexId v : owned_[m]) {
      words += 2 + degree(v);
    }
    charged_words_[m] = words;
    sim.machine(m).charge_storage(words);
  }
  // The initial shuffle that routes each adjacency row to its owner costs
  // one round; the simulation builds the partition directly, so the round is
  // charged explicitly.
  sim.charge_rounds(1);
  sim.sync_metrics();
}

DistGraph::DistGraph(Simulator& sim, const shard::ShardedSource& src,
                     const shard::IngestOptions& ingest,
                     std::uint64_t partition_salt)
    : DistGraph(sim,
                std::make_unique<const Graph>(
                    shard::build_shard_csr(src, ingest)),
                partition_salt) {}

DistGraph::DistGraph(Simulator& sim, std::unique_ptr<const Graph> owned,
                     std::uint64_t partition_salt)
    : DistGraph(sim, *owned, partition_salt) {
  graph_owner_ = std::move(owned);
}

MachineId DistGraph::owner(VertexId v) const {
  return static_cast<MachineId>(mix_hash(v, salt_) % num_machines_);
}

std::uint32_t DistGraph::active_degree(VertexId v) const {
  std::uint32_t d = 0;
  for (VertexId u : neighbors(v)) {
    if (active_[u]) ++d;
  }
  return d;
}

std::uint32_t DistGraph::active_max_degree(Simulator& sim) const {
  std::vector<std::uint64_t> local_max(num_machines_, 0);
  // Local scan per machine (free), then a 2-round allreduce.
  for (MachineId m = 0; m < num_machines_; ++m) {
    for (VertexId v : owned_[m]) {
      if (!active_[v]) continue;
      local_max[m] =
          std::max<std::uint64_t>(local_max[m], active_degree(v));
    }
  }
  return static_cast<std::uint32_t>(allreduce_max(sim, local_max));
}

void DistGraph::deactivate(
    Simulator& sim,
    const std::vector<std::vector<VertexId>>& per_machine_removals) {
  if (per_machine_removals.size() != num_machines_) {
    throw std::invalid_argument("deactivate: need one batch per machine");
  }
  // Validate ownership (catches driver bugs early).
  for (MachineId m = 0; m < num_machines_; ++m) {
    for (VertexId v : per_machine_removals[m]) {
      if (owner(v) != m) {
        throw std::logic_error("deactivate: machine announced a vertex it "
                               "does not own");
      }
    }
  }
  // One round: every machine broadcasts its removal list to all others.
  sim.round([&](Machine& machine, const Inbox&) {
    const MachineId src = machine.id();
    if (per_machine_removals[src].empty()) return;
    std::vector<Word> payload;
    payload.reserve(per_machine_removals[src].size());
    for (VertexId v : per_machine_removals[src]) payload.push_back(v);
    for (MachineId dst = 0; dst < num_machines_; ++dst) {
      if (dst != src) machine.send(dst, 0xDE, payload);
    }
  });
  sim.drain([](Machine&, const Inbox&) {});
  // Apply to the replicated bitset (identical update on every machine).
  for (MachineId m = 0; m < num_machines_; ++m) {
    for (VertexId v : per_machine_removals[m]) {
      if (active_[v]) {
        active_[v] = false;
        --active_count_;
      }
    }
  }
}

void DistGraph::save(SnapshotWriter& w) const {
  w.vec(active_);
  w.u64(active_count_);
}

void DistGraph::restore(SnapshotReader& r) {
  std::vector<bool> active;
  r.vec(active);
  const std::uint64_t count = r.u64();
  if (active.size() != num_vertices_) {
    throw CheckpointError("DistGraph::restore: vertex count mismatch");
  }
  active_ = std::move(active);
  active_count_ = count;
}

std::vector<VertexId> DistGraph::active_vertices() const {
  std::vector<VertexId> out;
  out.reserve(active_count_);
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (active_[v]) out.push_back(v);
  }
  return out;
}

}  // namespace rsets::mpc
