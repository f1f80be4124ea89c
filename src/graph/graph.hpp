// Immutable simple undirected graphs in compressed sparse row form.
//
// Vertices are dense ids [0, n). Graphs are simple: no self-loops, no
// parallel edges; the builder deduplicates and symmetrizes. Neighbor lists
// are sorted, so adjacency tests are O(log d) and set operations are merges.
//
// The offsets always live in RAM. The adjacency array lives either in a
// vector or, for a spilled shard::build_shard_csr, in a memory-mapped spill
// file. Copying an in-RAM Graph copies its adjacency; copies of a spilled
// Graph share the immutable mapping, which lives until the last copy goes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace rsets {

using VertexId = std::uint32_t;

struct Edge {
  VertexId u;
  VertexId v;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph;

namespace shard {
class ShardedSource;
struct IngestOptions;
// Defined in graph/shard/shard_csr.cpp; declared here to be a friend.
Graph build_shard_csr(const ShardedSource& src, const IngestOptions& options);
}  // namespace shard

class Graph {
 public:
  Graph() = default;
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  // Builds from an edge list; symmetrizes and drops duplicates. Self-loops
  // are dropped before the range check, so {7, 7} at n = 5 is ignored; any
  // other endpoint >= num_vertices throws std::out_of_range. Counting sort
  // by source, then a sort + dedup of each bucket: O(n + m + sum d log d)
  // time, no scratch beyond the CSR itself.
  static Graph from_edges(VertexId num_vertices, std::span<const Edge> edges);

  // Fast path for callers that already maintain per-vertex sorted adjacency
  // (the serving layer's DynamicGraph): one O(n + m) copy, no sort and no
  // dedup pass. Each list must be strictly increasing, free of self-loops,
  // and in range — violations throw std::invalid_argument — and symmetry
  // (u in adj[v] iff v in adj[u]) is the caller's contract: DynamicGraph
  // maintains it structurally, and the serve tests pin snapshot() equality
  // against from_edges on the same edge set.
  static Graph from_sorted_adjacency(
      const std::vector<std::vector<VertexId>>& adjacency);

  // Adopts a CSR the caller built (the gathered subgraph of
  // detail::gather_and_mis) without copying it. offsets must have n + 1
  // non-decreasing entries from 0 to adjacency.size(), and each list obeys
  // from_sorted_adjacency's rules; violations throw std::invalid_argument.
  // Symmetry is again the caller's contract.
  static Graph from_csr(std::vector<std::uint64_t> offsets,
                        std::vector<VertexId> adjacency);

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t num_edges() const { return adjacency().size() / 2; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_ + offsets_[v], adj_ + offsets_[v + 1]};
  }

  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::uint32_t max_degree() const;
  double average_degree() const;

  // O(log degree(u)).
  bool has_edge(VertexId u, VertexId v) const;

  // All edges with u < v, in sorted order.
  std::vector<Edge> edges() const;

  // Sum over vertices of degree^2 — the cost driver of the pairwise
  // estimators; benches report it.
  std::uint64_t degree_square_sum() const;

  // The raw CSR: offsets has n + 1 entries (empty for a default-constructed
  // Graph) and neighbors(v) is adjacency[offsets[v], offsets[v + 1]).
  std::span<const std::uint64_t> offsets() const { return offsets_; }
  std::span<const VertexId> adjacency() const {
    return {adj_, offsets_.empty() ? 0 : offsets_.back()};
  }

  // Compares contents, whatever backs the adjacency.
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend Graph shard::build_shard_csr(const shard::ShardedSource&,
                                      const shard::IngestOptions&);

  // Adopt a CSR finished by from_edges or build_shard_csr, without
  // check_row.
  static Graph in_ram(std::vector<std::uint64_t> offsets,
                      std::vector<VertexId> adjacency);
  static Graph mapped(std::vector<std::uint64_t> offsets,
                      std::shared_ptr<const void> mapping,
                      const VertexId* adjacency);

  std::vector<std::uint64_t> offsets_;   // size n+1
  std::vector<VertexId> ram_;            // in-RAM adjacency; empty if mapped
  std::shared_ptr<const void> mapping_;  // owns a spilled adjacency
  // The adjacency, in ram_ or the mapping: 2m entries, sorted per vertex.
  const VertexId* adj_ = nullptr;
};

// Incremental edge-list accumulator for generators.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  // Ignores self-loops; duplicates are fine (deduplicated at build).
  void add_edge(VertexId u, VertexId v) {
    if (u != v) edges_.push_back({u, v});
  }

  VertexId num_vertices() const { return num_vertices_; }
  std::size_t pending_edges() const { return edges_.size(); }

  Graph build() &&;

 private:
  VertexId num_vertices_;
  std::vector<Edge> edges_;
};

}  // namespace rsets
