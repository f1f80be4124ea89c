#include "graph/shard/shard_csr.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "graph/shard/shard_spill.hpp"
#include "util/error.hpp"

namespace rsets::shard {
namespace {

// Counts raw symmetric degrees and validates endpoints.
struct CountSink final : EdgeSink {
  std::vector<std::uint64_t>* deg;
  VertexId n;

  void consume(std::span<const Edge> batch) override {
    for (const Edge& e : batch) {
      if (e.u >= n || e.v >= n) {
        throw Error(ErrorCode::kVertexIdOverflow,
                    "sharded stream emitted endpoint " +
                        std::to_string(std::max(e.u, e.v)) + " >= n=" +
                        std::to_string(n));
      }
      if (e.u == e.v) continue;  // self-loops dropped, like Graph::from_edges
      ++(*deg)[e.u];
      ++(*deg)[e.v];
    }
  }
};

// Scatters both arc directions at the per-vertex write cursors. Periodic
// whole-mapping eviction keeps the dirty-page footprint of the scattered
// writes bounded during spilled builds.
struct ScatterSink final : EdgeSink {
  VertexId* adj;
  std::vector<std::uint64_t>* cursor;
  ShardSpill* spill;  // null for in-RAM builds
  std::uint64_t stride;
  std::uint64_t since_evict = 0;

  void consume(std::span<const Edge> batch) override {
    std::vector<std::uint64_t>& cur = *cursor;
    for (const Edge& e : batch) {
      if (e.u == e.v) continue;
      adj[cur[e.u]++] = e.v;
      adj[cur[e.v]++] = e.u;
    }
    if (spill != nullptr) {
      since_evict += batch.size();
      if (since_evict >= stride) {
        spill->evict_all();
        since_evict = 0;
      }
    }
  }
};

}  // namespace

void validate_spill_dir(const std::string& dir) {
  if (dir.empty()) {
    throw Error(ErrorCode::kBadFlag, "--spill-dir: empty path");
  }
  std::string probe = dir + "/rsets-spill-probe-XXXXXX";
  std::vector<char> buf(probe.begin(), probe.end());
  buf.push_back('\0');
  const int fd = mkstemp(buf.data());
  if (fd < 0) {
    throw Error(ErrorCode::kBadFlag,
                "--spill-dir: '" + dir +
                    "' is not a writable directory (cannot create files "
                    "there)");
  }
  close(fd);
  unlink(buf.data());
}

Graph build_shard_csr(const ShardedSource& src,
                      const IngestOptions& options) {
  const VertexId n = src.num_vertices();
  const std::uint32_t shards = src.num_shards();

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  if (n == 0) return Graph::in_ram(std::move(offsets), {});

  // In RAM, every shard is streamed once into its own raw edge buffer and
  // passes A and B read those buffers. A spilled build is the out-of-core
  // path, which must not hold the edge list, so it streams the shards once
  // per pass instead.
  const bool spilled = !options.spill_dir.empty();
  std::vector<std::vector<Edge>> shard_edges;
  if (!spilled) {
    shard_edges.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      shard_edges.push_back(collect_shard(src, s));
    }
  }
  const auto run_pass = [&](EdgeSink& sink) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      if (spilled) {
        src.stream_shard(s, sink);
      } else {
        sink.consume(shard_edges[s]);
      }
    }
  };

  // Pass A: raw symmetric degree of every vertex (duplicates included).
  // It validates every endpoint before pass B writes anything.
  {
    std::vector<std::uint64_t> deg(n, 0);
    CountSink count;
    count.deg = &deg;
    count.n = n;
    run_pass(count);
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] = deg[v];
  }
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  const std::uint64_t raw_words = offsets[n];

  // Adjacency storage: RAM vector or memory-mapped spill.
  std::vector<VertexId> ram;
  ShardSpill spill;
  VertexId* adj = nullptr;
  if (spilled) {
    spill = ShardSpill::create(options.spill_dir, raw_words * sizeof(VertexId));
    adj = static_cast<VertexId*>(spill.data());
  } else {
    ram.resize(raw_words);
    adj = ram.data();
  }

  // Pass B: scattered symmetrized writes at the running cursors.
  {
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    ScatterSink scatter;
    scatter.adj = adj;
    scatter.cursor = &cursor;
    scatter.spill = spilled ? &spill : nullptr;
    scatter.stride = std::max<std::uint64_t>(options.evict_stride_edges, 1);
    run_pass(scatter);
  }
  // The raw edges are no longer needed; free them before the sort + dedup.
  std::vector<std::vector<Edge>>().swap(shard_edges);

  // Pass C: per-vertex sort + dedup, compacting in place. The write head w
  // never passes the read head (deduped words <= raw words at every
  // prefix), so one sweep suffices; offsets are rewritten to the compacted
  // positions as it goes.
  std::uint64_t w = 0;
  std::uint64_t prev_lo = 0;
  std::uint64_t since_evict = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t lo = prev_lo;
    const std::uint64_t hi = offsets[v + 1];
    prev_lo = hi;
    std::sort(adj + lo, adj + hi);
    offsets[v] = w;
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (i == lo || adj[i] != adj[w - 1]) adj[w++] = adj[i];
    }
    if (spilled) {
      since_evict += hi - lo;
      if (since_evict >= std::max<std::uint64_t>(options.evict_stride_edges,
                                                 1)) {
        // Everything below the write head is final; evict it.
        spill.evict(0, w * sizeof(VertexId));
        since_evict = 0;
      }
    }
  }
  offsets[n] = w;

  // Shrink to the deduped size and drop build-time pages from RSS.
  if (spilled) {
    spill.resize(w * sizeof(VertexId));
    spill.evict_all();
    auto mapping = std::make_shared<const ShardSpill>(std::move(spill));
    const auto* data = static_cast<const VertexId*>(mapping->data());
    return Graph::mapped(std::move(offsets), std::move(mapping), data);
  }
  ram.resize(w);
  ram.shrink_to_fit();
  return Graph::in_ram(std::move(offsets), std::move(ram));
}

}  // namespace rsets::shard
