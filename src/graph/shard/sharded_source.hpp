// Sharded streaming graph generation: per-machine edge shards without a
// global edge list.
//
// Every input family here is a *counter-based* generator: edge (or cell) k
// is a pure function of (spec, k), never of a sequential RNG cursor. That
// makes contiguous index ranges independently streamable, so machine i of M
// can generate exactly its own shard — and the multiset union of all shards
// is bit-identical no matter how many machines the run uses (1, 4, 16, ...).
// This is the KaGen-style input path ROADMAP item 1 asks for: the low-memory
// MPC regime only becomes interesting once no single process ever holds the
// whole edge list.
//
// Contract (checked by shard/validator.cpp and tests/test_shard.cpp):
//   * stream_shard(s, sink) emits a deterministic edge sequence for shard s;
//     re-streaming the same shard yields the same sequence.
//   * The multiset of edges emitted across all shards is invariant under the
//     shard count — union at M machines == union at 1 machine.
//   * Emitted edges are *raw*: self-loops and duplicates may appear exactly
//     as a global generator would produce them; symmetrize/dedup happens at
//     ingest (shard_csr.hpp) with the same semantics as Graph::from_edges,
//     so build_shard_csr returns a Graph equal (==) to the materialized one.
//   * Every endpoint is < num_vertices().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace rsets::shard {

enum class ShardFamily : std::uint8_t {
  kGraph500,    // Kronecker/R-MAT descent at the Graph500 corner weights
                // (0.57, 0.19, 0.19) with a multiplicative vertex scramble
  kRmat,        // plain R-MAT descent with user corner weights, no scramble
  kGeometric3d, // random points in the unit cube, edges within `radius`
};

const char* shard_family_name(ShardFamily family);

// Parameters of one sharded input. The canonical flag spelling is
//   FAMILY:key=value,key=value,...
// e.g. "graph500:scale=20,edgefactor=16", "rmat:scale=18,a=0.45,b=0.22,c=0.22",
// "geometric3d:n=100000,radius=0.01". parse_shard_spec rejects malformed
// specs with rsets::Error(kBadFlag) and a 1-based token position, matching
// the parse_fault_spec taxonomy.
struct ShardSpec {
  ShardFamily family = ShardFamily::kGraph500;

  // kGraph500 / kRmat: n = 2^scale vertices, edgefactor * n raw edges.
  std::uint32_t scale = 16;
  std::uint32_t edgefactor = 16;

  // kRmat only: corner probabilities (d = 1 - a - b - c).
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;

  // kGeometric3d: n points in [0,1)^3, an edge per pair within `radius`.
  std::uint64_t n = 0;
  double radius = 0.0;

  std::uint64_t seed = 1;

  VertexId num_vertices() const;
  // Canonical spec string; parse_shard_spec(to_string()) round-trips.
  std::string to_string() const;
};

// Throws rsets::Error(ErrorCode::kBadFlag) on malformed input, with the
// failing 1-based token position and a diagnostic. `default_seed` is used
// when the spec carries no explicit seed=K token (the CLI passes --seed).
ShardSpec parse_shard_spec(const std::string& text,
                           std::uint64_t default_seed = 1);

// Receives batches of raw edges from a shard stream. Batches are sized by
// the source (a few ten thousand edges) to amortize the virtual call; a
// span is only valid for the duration of the call.
class EdgeSink {
 public:
  virtual ~EdgeSink() = default;
  virtual void consume(std::span<const Edge> batch) = 0;
};

// One deterministic input split into `num_shards` streams. Shard s is what
// simulated machine s generates locally; nothing global is ever built.
class ShardedSource {
 public:
  virtual ~ShardedSource() = default;

  virtual const ShardSpec& spec() const = 0;
  virtual VertexId num_vertices() const = 0;
  virtual std::uint32_t num_shards() const = 0;

  // Raw edge emissions across all shards, before symmetrize/dedup. Zero
  // means data-dependent (geometric3d: the count depends on point
  // positions, so it is only known after streaming).
  virtual std::uint64_t raw_edges() const = 0;

  // Streams shard `s` (0 <= s < num_shards()) into `sink`.
  virtual void stream_shard(std::uint32_t s, EdgeSink& sink) const = 0;
};

std::unique_ptr<ShardedSource> make_sharded_source(const ShardSpec& spec,
                                                   std::uint32_t num_shards);

// Shard s's raw edges in emission order, reserved at its balanced share of
// raw_edges() (enough for every Kronecker shard, whose sizes differ by at
// most one).
std::vector<Edge> collect_shard(const ShardedSource& src, std::uint32_t s);

// The global reference: streams the 1-shard split of `spec` into
// Graph::from_edges. This is what "bit-identical to the global generator"
// means for the streaming families — the validator and the determinism
// tests compare shard unions against exactly this graph.
Graph materialize(const ShardSpec& spec);

// Internal helper for implementing stream_shard: buffers edges and flushes
// them to the sink in batches. The caller flushes the tail explicitly; the
// destructor does not, because a sink may throw (an out-of-range endpoint
// is rsets::Error(kVertexIdOverflow)) and a throwing destructor would
// terminate the process instead of unwinding.
class EdgeBatcher {
 public:
  explicit EdgeBatcher(EdgeSink& sink, std::size_t capacity = 1 << 16)
      : sink_(sink) {
    buffer_.reserve(capacity);
    capacity_ = capacity;
  }
  EdgeBatcher(const EdgeBatcher&) = delete;
  EdgeBatcher& operator=(const EdgeBatcher&) = delete;

  void push(VertexId u, VertexId v) {
    buffer_.push_back({u, v});
    if (buffer_.size() == capacity_) flush();
  }

  void flush() {
    if (!buffer_.empty()) {
      sink_.consume(buffer_);
      buffer_.clear();
    }
  }

 private:
  EdgeSink& sink_;
  std::vector<Edge> buffer_;
  std::size_t capacity_;
};

}  // namespace rsets::shard
