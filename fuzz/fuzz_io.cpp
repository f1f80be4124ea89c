// Fuzz harness for the edge-list parser.
//
// Contract under test: read_edge_list either returns a well-formed Graph or
// throws rsets::Error with a specific code. Any other exception (or a crash)
// escaping the parser is a bug, so only rsets::Error is caught here. A
// returned Graph must satisfy every CSR invariant; a violation traps:
//   - offsets has n + 1 entries, starts at 0, never decreases, and ends at
//     2m = adjacency.size();
//   - every neighbor list is strictly increasing, in range, and loop-free;
//   - every listed arc is symmetric: v in N(u) implies has_edge(v, u), and
//     has_edge(u, v) holds.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "graph/io.hpp"
#include "util/error.hpp"

namespace {

void check_csr(const rsets::Graph& g) {
  const auto offsets = g.offsets();
  const auto adjacency = g.adjacency();
  const rsets::VertexId n = g.num_vertices();
  if (offsets.size() != std::size_t{n} + 1 || offsets[0] != 0) {
    __builtin_trap();
  }
  for (rsets::VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) __builtin_trap();
  }
  if (offsets[n] != 2 * g.num_edges() || offsets[n] != adjacency.size()) {
    __builtin_trap();
  }
  for (rsets::VertexId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const rsets::VertexId v = nbrs[i];
      if (v >= n || v == u) __builtin_trap();
      if (i > 0 && nbrs[i - 1] >= v) __builtin_trap();
      if (!g.has_edge(u, v) || !g.has_edge(v, u)) __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    check_csr(rsets::read_edge_list(in));
  } catch (const rsets::Error&) {
    // Structured rejection is the expected path for malformed input.
  }
  return 0;
}
