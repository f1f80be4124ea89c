// Out-of-core CSR ingest for sharded sources.
//
// build_shard_csr counts degrees, scatters both arc directions at
// per-vertex cursors and finishes with an in-place per-vertex sort + dedup
// pass, producing the Graph that Graph::from_edges would build from the
// same raw edges: self-loops dropped, symmetrized, neighbor lists sorted and
// duplicate-free. Every algorithm, the certifier and the validator then take
// that Graph as they take a materialized one, so identical degrees mean
// identical storage charges, identical rounds, identical metrics ledgers.
//
// In RAM, every shard is streamed once into its own raw edge buffer (8 bytes
// per raw edge); the count and scatter passes read those buffers, and they
// are freed before the sort + dedup.
//
// With a spill directory, the Graph's adjacency array lives in a
// memory-mapped ShardSpill instead of RAM, no edge buffer is held, and every
// shard is streamed twice (count, then scatter). The build passes evict
// dirty pages on a cadence, so peak RSS during ingest is the offsets array
// plus the eviction window — not the edge list. Reads go to the mapping in
// place (no allocation); evicted pages fault back in on demand.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
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

// Streams all shards of `src` into a Graph. Endpoints >= num_vertices() are
// rejected with rsets::Error(kVertexIdOverflow) before any adjacency write
// — the stream contract makes them a generator bug, not a recoverable
// condition. The Graph adopts the finished CSR without re-checking it, so a
// spilled build is not faulted back into RAM.
Graph build_shard_csr(const ShardedSource& src,
                      const IngestOptions& options = {});

}  // namespace rsets::shard
