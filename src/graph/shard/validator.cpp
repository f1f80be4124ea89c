#include "graph/shard/validator.hpp"

#include "graph/shard/shard_csr.hpp"
#include "util/hash_family.hpp"

namespace rsets::shard {
namespace {

// Order-independent multiset accumulator over raw directed edge emissions.
// Sum and xor of per-edge mixes commute, so any interleaving of shards —
// and any shard count — producing the same multiset lands on the same
// fingerprint; a dropped, duplicated, or altered edge moves it.
struct MultisetSink final : EdgeSink {
  VertexId n = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t out_of_range = 0;

  void consume(std::span<const Edge> batch) override {
    for (const Edge& e : batch) {
      if (e.u >= n || e.v >= n) {
        ++out_of_range;
        continue;
      }
      const std::uint64_t key =
          (static_cast<std::uint64_t>(e.u) << 32) | e.v;
      const std::uint64_t h = mix_hash(key, 0x5eedf00dULL);
      ++count;
      sum += h;
      xr ^= h;
    }
  }
};

struct StreamDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t out_of_range = 0;
  std::vector<std::uint64_t> per_shard_counts;
};

StreamDigest digest_all_shards(const ShardedSource& src) {
  StreamDigest d;
  MultisetSink sink;
  sink.n = src.num_vertices();
  for (std::uint32_t s = 0; s < src.num_shards(); ++s) {
    const std::uint64_t before = sink.count + sink.out_of_range;
    src.stream_shard(s, sink);
    d.per_shard_counts.push_back(sink.count + sink.out_of_range - before);
  }
  d.count = sink.count;
  d.sum = sink.sum;
  d.xr = sink.xr;
  d.out_of_range = sink.out_of_range;
  return d;
}

}  // namespace

std::string ShardValidationReport::to_string() const {
  std::string out = ok() ? "shard validation: OK" : "shard validation: FAIL";
  out += " raw_edges=" + std::to_string(raw_edges);
  out += " shard_counts_probed=" + std::to_string(shard_counts_probed);
  out += " cross_checked=";
  out += cross_checked ? "1" : "0";
  for (const std::string& f : failures) out += "\n  " + f;
  return out;
}

ShardValidationReport validate_sharded_source(const ShardedSource& src,
                                              VertexId cross_check_max_n) {
  ShardValidationReport report;
  const ShardSpec& spec = src.spec();

  // Reference digest at the source's own shard count.
  const StreamDigest own = digest_all_shards(src);
  report.raw_edges = own.count;
  if (own.out_of_range != 0) {
    report.failures.push_back(
        "ownership: " + std::to_string(own.out_of_range) +
        " emitted endpoints out of [0, n)");
  }
  if (const std::uint64_t advertised = src.raw_edges();
      advertised != 0 && advertised != own.count + own.out_of_range) {
    report.failures.push_back(
        "edge count: streamed " +
        std::to_string(own.count + own.out_of_range) + " raw edges, source "
        "advertises " + std::to_string(advertised));
  }

  // Shard-union invariance: 1 shard, and an unaligned probe count that
  // shares no divisor structure with the source's own split.
  const std::uint32_t own_shards = src.num_shards();
  std::vector<std::uint32_t> probes = {1, own_shards == 5 ? 7u : 5u};
  for (const std::uint32_t shards : probes) {
    if (shards == own_shards) continue;
    const std::unique_ptr<ShardedSource> other =
        make_sharded_source(spec, shards);
    const StreamDigest d = digest_all_shards(*other);
    ++report.shard_counts_probed;
    if (d.count != own.count || d.sum != own.sum || d.xr != own.xr ||
        d.out_of_range != own.out_of_range) {
      report.failures.push_back(
          "union invariance: multiset of raw edges differs between " +
          std::to_string(own_shards) + " and " + std::to_string(shards) +
          " shards (" + std::to_string(own.count) + " vs " +
          std::to_string(d.count) + " in-range edges)");
    }
  }
  ++report.shard_counts_probed;  // the source's own count, streamed above

  // Per-shard counts must sum to the total (each edge owned by exactly one
  // shard; a double emission would also move the multiset fingerprint, this
  // localizes it).
  std::uint64_t shard_sum = 0;
  for (const std::uint64_t c : own.per_shard_counts) shard_sum += c;
  if (shard_sum != own.count + own.out_of_range) {
    report.failures.push_back("per-shard counts do not sum to the total");
  }

  // Sampled cross-check against the global generator at small n: the
  // ingest pipeline's CSR must equal shard::materialize bit for bit.
  if (src.num_vertices() <= cross_check_max_n && own.out_of_range == 0) {
    report.cross_checked = true;
    report.cross_check_n = src.num_vertices();
    const Graph global = materialize(spec);
    const Graph csr = build_shard_csr(src);
    if (csr != global) {
      report.failures.push_back(
          "cross-check: sharded CSR (n=" + std::to_string(csr.num_vertices()) +
          ", m=" + std::to_string(csr.num_edges()) +
          ") differs from the global generator (n=" +
          std::to_string(global.num_vertices()) + ", m=" +
          std::to_string(global.num_edges()) + ")");
    }
  }
  return report;
}

}  // namespace rsets::shard
