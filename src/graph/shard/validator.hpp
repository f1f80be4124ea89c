// Cross-shard validation of a ShardedSource.
//
// Proves (by exhaustive streaming, not by trusting the generator) that a
// sharded input upholds the stream contract before an expensive run spends
// hours on it:
//   * ownership/range: every emitted endpoint is < num_vertices();
//   * edge-count invariants: per-shard counts sum to the same total under
//     every probed shard count, and for counter-based families match the
//     advertised raw_edges();
//   * shard-union invariance: the multiset of raw edges — compared through
//     an order-independent 128-bit accumulator (sum + xor of per-edge
//     mixes) — is identical at 1 shard, at the source's own shard count,
//     and at an unaligned probe count;
//   * sampled cross-check: at small n, the Graph built by the out-of-core
//     ingest pipeline must equal (==) the global generator's
//     (shard::materialize).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/shard/sharded_source.hpp"

namespace rsets::shard {

struct ShardValidationReport {
  bool ok() const { return failures.empty(); }

  std::uint64_t raw_edges = 0;        // streamed at the source's shard count
  std::uint64_t shard_counts_probed = 0;
  bool cross_checked = false;         // exact small-n CSR comparison ran
  VertexId cross_check_n = 0;
  std::vector<std::string> failures;  // empty == green

  std::string to_string() const;
};

// `cross_check_max_n`: run the exact materialized comparison only when the
// input has at most this many vertices (it builds the global graph).
ShardValidationReport validate_sharded_source(
    const ShardedSource& src, VertexId cross_check_max_n = 1 << 15);

}  // namespace rsets::shard
