// Vertex-partitioned distributed graph storage for the MPC simulator.
//
// Each vertex is owned by machine mix_hash(v, salt) % M; the owner stores the
// vertex's full adjacency list. This is the standard input layout for
// vertex-centric MPC graph algorithms: loading charges one round for the
// initial shuffle and counts its words, and per-machine storage is charged
// against the memory budget S (so an undersized configuration fails loudly).
//
// An *activity* bitset over all vertices is replicated on every machine
// (n bits each = n/64 words; this is the near-linear-memory regime the
// paper's main algorithm lives in). Deactivations are announced via an
// all-to-all broadcast costing one round per batch; total announcement
// traffic over a whole run is O(n * M) words since each vertex deactivates
// once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"

namespace rsets::mpc {

class DistGraph : public Snapshotable {
 public:
  // Loads `g` into `sim`, charging storage and the distribution round. `g`
  // must outlive this DistGraph. A sharded input is loaded the same way,
  // from the Graph shard::build_shard_csr returns.
  DistGraph(Simulator& sim, const Graph& g, std::uint64_t partition_salt = 0);

  // Builds the Graph with shard::build_shard_csr(src, ingest), owns it, and
  // loads it as above. perfbench/ calls this form; its sources change only
  // together with the benchmark definition.
  DistGraph(Simulator& sim, const shard::ShardedSource& src,
            const shard::IngestOptions& ingest = {},
            std::uint64_t partition_salt = 0);

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_edges() const { return num_edges_; }

  // Stateless ownership function — every machine can evaluate it locally.
  MachineId owner(VertexId v) const;

  // Vertices owned by machine m (sorted).
  std::span<const VertexId> owned(MachineId m) const {
    return owned_[m];
  }

  // Adjacency of an owned vertex; caller must be (conceptually) machine
  // owner(v).
  std::span<const VertexId> neighbors(VertexId v) const {
    return graph_->neighbors(v);
  }
  std::uint32_t degree(VertexId v) const { return graph_->degree(v); }

  // --- replicated activity ------------------------------------------------
  bool active(VertexId v) const { return active_[v]; }
  std::uint64_t active_count() const { return active_count_; }

  // Current max degree *within the active subgraph* — computed with one
  // allreduce (2 rounds): owners scan their active vertices' active
  // neighbors locally.
  std::uint32_t active_max_degree(Simulator& sim) const;

  // Active degree of an owned vertex (local scan).
  std::uint32_t active_degree(VertexId v) const;

  // Deactivates a batch of vertices cluster-wide. `per_machine_removals[m]`
  // is what machine m announces (they must own those vertices). Costs one
  // round. Words sent by machine m: |removals_m| * (M-1) + headers.
  void deactivate(Simulator& sim,
                  const std::vector<std::vector<VertexId>>& per_machine_removals);

  // All currently active vertices (driver-side convenience; owners know
  // their own, and the replicated bitset makes this consistent).
  std::vector<VertexId> active_vertices() const;

  // --- Snapshotable --------------------------------------------------------
  // The mutable state is the replicated activity bitset; the graph itself,
  // ownership map, and storage charges are immutable after construction and
  // reconstructible from the input, so they stay out of checkpoints.
  void save(SnapshotWriter& w) const override;
  void restore(SnapshotReader& r) override;

 private:
  DistGraph(Simulator& sim, std::unique_ptr<const Graph> owned,
            std::uint64_t partition_salt);

  std::unique_ptr<const Graph> graph_owner_;  // set by the sharded ctor
  const Graph* graph_;  // simulation backing store; per-machine slices are
                        // what is *charged*, access discipline is by owner
  VertexId num_vertices_ = 0;
  std::uint64_t num_edges_ = 0;
  MachineId num_machines_ = 1;
  std::uint64_t salt_ = 0;
  std::vector<std::vector<VertexId>> owned_;
  std::vector<bool> active_;  // replicated (identical on all machines)
  std::uint64_t active_count_ = 0;
  std::vector<std::size_t> charged_words_;  // per machine, for release
};

}  // namespace rsets::mpc
