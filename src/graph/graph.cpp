#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace rsets {

Graph::Graph(const Graph& other)
    : offsets_(other.offsets_),
      ram_(other.ram_),
      mapping_(other.mapping_),
      adj_(mapping_ ? other.adj_ : ram_.data()) {}

// Member-wise, so the vectors reuse their capacity as the defaulted copy
// did; self-assignment is safe.
Graph& Graph::operator=(const Graph& other) {
  offsets_ = other.offsets_;
  ram_ = other.ram_;
  mapping_ = other.mapping_;
  adj_ = mapping_ ? other.adj_ : ram_.data();
  return *this;
}

bool operator==(const Graph& a, const Graph& b) {
  return a.offsets_ == b.offsets_ &&
         std::ranges::equal(a.adjacency(), b.adjacency());
}

Graph Graph::in_ram(std::vector<std::uint64_t> offsets,
                    std::vector<VertexId> adjacency) {
  Graph g;
  g.offsets_ = std::move(offsets);
  g.ram_ = std::move(adjacency);
  g.adj_ = g.ram_.data();
  return g;
}

Graph Graph::mapped(std::vector<std::uint64_t> offsets,
                    std::shared_ptr<const void> mapping,
                    const VertexId* adjacency) {
  Graph g;
  g.offsets_ = std::move(offsets);
  g.mapping_ = std::move(mapping);
  g.adj_ = adjacency;
  return g;
}

Graph Graph::from_edges(VertexId num_vertices, std::span<const Edge> edges) {
  // Count each vertex's raw arcs into offsets[v], then prefix-sum so that
  // offsets[v] is the end of v's bucket.
  std::vector<std::uint64_t> offsets(std::size_t{num_vertices} + 1, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw std::out_of_range("Graph::from_edges: endpoint out of range");
    }
    ++offsets[e.u];
    ++offsets[e.v];
  }
  for (VertexId v = 1; v < num_vertices; ++v) offsets[v] += offsets[v - 1];
  const std::uint64_t raw = num_vertices == 0 ? 0 : offsets[num_vertices - 1];

  // Scatter both directions, filling each bucket from its end; afterwards
  // offsets[v] is the start of v's bucket.
  std::vector<VertexId> adj(raw);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    adj[--offsets[e.u]] = e.v;
    adj[--offsets[e.v]] = e.u;
  }
  offsets[num_vertices] = raw;

  // Sort + dedup each bucket, compacting in place. The write head never
  // passes the read head, and offsets[v + 1] is read before it is rewritten.
  std::uint64_t w = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::uint64_t lo = offsets[v];
    const std::uint64_t hi = offsets[v + 1];
    offsets[v] = w;
    std::sort(adj.begin() + lo, adj.begin() + hi);
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (i == lo || adj[i] != adj[w - 1]) adj[w++] = adj[i];
    }
  }
  offsets[num_vertices] = w;
  if (w != raw) {
    adj.resize(w);
    adj.shrink_to_fit();
  }
  return in_ram(std::move(offsets), std::move(adj));
}

namespace {

// Throws std::invalid_argument unless v's list is strictly increasing,
// free of self-loops, and below n.
void check_row(const char* builder, VertexId v, VertexId n,
               std::span<const VertexId> row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char* fault = nullptr;
    if (row[i] >= n) {
      fault = "neighbor out of range";
    } else if (row[i] == v) {
      fault = "self-loop";
    } else if (i > 0 && row[i] <= row[i - 1]) {
      fault = "list not strictly increasing";
    }
    if (fault != nullptr) {
      throw std::invalid_argument(std::string(builder) + ": " + fault);
    }
  }
}

}  // namespace

Graph Graph::from_sorted_adjacency(
    const std::vector<std::vector<VertexId>>& adjacency) {
  const VertexId n = static_cast<VertexId>(adjacency.size());
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::uint64_t arcs = 0;
  for (VertexId v = 0; v < n; ++v) {
    arcs += adjacency[v].size();
    offsets[v + 1] = arcs;
  }
  std::vector<VertexId> adj;
  adj.reserve(arcs);
  for (VertexId v = 0; v < n; ++v) {
    check_row("Graph::from_sorted_adjacency", v, n, adjacency[v]);
    adj.insert(adj.end(), adjacency[v].begin(), adjacency[v].end());
  }
  return in_ram(std::move(offsets), std::move(adj));
}

Graph Graph::from_csr(std::vector<std::uint64_t> offsets,
                      std::vector<VertexId> adjacency) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != adjacency.size() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("Graph::from_csr: malformed offsets");
  }
  Graph g = in_ram(std::move(offsets), std::move(adjacency));
  const VertexId n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    check_row("Graph::from_csr", v, n, g.neighbors(v));
  }
  return g;
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::average_degree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::uint64_t Graph::degree_square_sum() const {
  std::uint64_t sum = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const std::uint64_t d = degree(v);
    sum += d * d;
  }
  return sum;
}

Graph GraphBuilder::build() && {
  return Graph::from_edges(num_vertices_, edges_);
}

}  // namespace rsets
