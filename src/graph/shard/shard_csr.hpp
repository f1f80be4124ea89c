// Out-of-core CSR ingest for sharded sources.
//
// build_shard_csr counts degrees, scatters both arc directions at
// per-vertex cursors and finishes with an in-place per-vertex sort + dedup
// pass, producing exactly the CSR Graph::from_edges would build from the
// same raw edges: self-loops dropped, symmetrized, neighbor lists sorted and
// duplicate-free. That exactness is what makes a sharded DistGraph
// indistinguishable from a materialized one — identical degrees mean
// identical storage charges, identical rounds, identical metrics ledgers.
//
// In RAM, every shard is streamed once into its own raw edge buffer (8 bytes
// per raw edge); the count and scatter passes read those buffers, and they
// are freed before the sort + dedup.
//
// With a spill directory, the adjacency array lives in a memory-mapped
// ShardSpill instead of RAM, no edge buffer is held, and every shard is
// streamed twice (count, then scatter). The build passes evict dirty pages
// on a cadence, so peak RSS during ingest is the offsets array plus the
// eviction window — not the edge list. The round hot path reads the mapping
// in place (no allocation); evicted pages fault back in on demand.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shard/shard_spill.hpp"
#include "graph/shard/sharded_source.hpp"

namespace rsets::shard {

struct IngestOptions {
  // Directory for the adjacency spill file; empty keeps the CSR in RAM.
  std::string spill_dir;
  // Pass-B/C eviction cadence in processed edges (spilled builds only).
  std::uint64_t evict_stride_edges = std::uint64_t{1} << 24;
};

// Throws rsets::Error(kBadFlag) unless `dir` names an existing writable
// directory (probed by creating a temp file). The CLI calls this when
// parsing --spill-dir, so a bad path is a usage error before any work runs.
void validate_spill_dir(const std::string& dir);

class ShardCsr {
 public:
  ShardCsr() = default;
  ShardCsr(ShardCsr&&) = default;
  ShardCsr& operator=(ShardCsr&&) = default;
  ShardCsr(const ShardCsr&) = delete;
  ShardCsr& operator=(const ShardCsr&) = delete;

  VertexId num_vertices() const { return n_; }
  // Simple undirected edges after dedup, matching Graph::num_edges().
  std::uint64_t num_edges() const { return half_edges_; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adj_ + offsets_[v], adj_ + offsets_[v + 1]};
  }
  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  bool spilled() const { return spill_.valid(); }

  // Drops the spill mapping's pages from RSS (no-op for in-RAM builds);
  // later reads fault them back in on demand.
  void evict() {
    if (spill_.valid()) spill_.evict_all();
  }

 private:
  friend ShardCsr build_shard_csr(const ShardedSource&, const IngestOptions&);

  VertexId n_ = 0;
  std::uint64_t half_edges_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<VertexId> adj_ram_;       // in-RAM builds
  ShardSpill spill_;                    // spilled builds
  VertexId* adj_ = nullptr;             // points into adj_ram_ or spill_
};

// Streams all shards of `src` into a CSR. Endpoints >= num_vertices() are
// rejected with rsets::Error(kVertexIdOverflow) before any adjacency write
// — the stream contract makes them a generator bug, not a recoverable
// condition.
ShardCsr build_shard_csr(const ShardedSource& src,
                         const IngestOptions& options = {});

}  // namespace rsets::shard
