#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, IsolatedVertices) {
  const Graph g = Graph::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(Graph, TriangleBasics) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, DeduplicatesAndSymmetrizes) {
  const std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, DropsSelfLoops) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}, {1, 1}};
  const Graph g = Graph::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, NeighborsAreSorted) {
  const std::vector<Edge> edges = {{2, 5}, {2, 1}, {2, 9}, {2, 0}};
  const Graph g = Graph::from_edges(10, edges);
  const auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 5u);
  EXPECT_EQ(nbrs[3], 9u);
}

TEST(Graph, EdgesReturnsCanonicalList) {
  const std::vector<Edge> input = {{3, 1}, {0, 2}};
  const Graph g = Graph::from_edges(4, input);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  const std::vector<Edge> edges = {{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), std::out_of_range);
}

TEST(Graph, DegreeSquareSum) {
  // Star on 4 vertices: center degree 3, leaves 1. Sum = 9 + 3 = 12.
  const std::vector<Edge> edges = {{0, 1}, {0, 2}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.degree_square_sum(), 12u);
}

TEST(GraphBuilder, IgnoresSelfLoopsAndBuilds) {
  GraphBuilder b(3);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  EXPECT_EQ(b.pending_edges(), 2u);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, RoundTripThroughEdges) {
  const std::vector<Edge> input = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph g = Graph::from_edges(4, input);
  const Graph h = Graph::from_edges(4, g.edges());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
}

// The global-sort builder from_edges replaced, kept as its oracle:
// symmetrize into an arc list, comparison-sort all arcs, unique, and lay
// them out by source.
Graph sort_unique_reference(VertexId n, std::span<const Edge> edges) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) {
      throw std::out_of_range("reference: endpoint out of range");
    }
    arcs.emplace_back(e.u, e.v);
    arcs.emplace_back(e.v, e.u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  std::vector<std::vector<VertexId>> adjacency(n);
  for (const auto& [u, v] : arcs) adjacency[u].push_back(v);
  return Graph::from_sorted_adjacency(adjacency);
}

void expect_matches_reference(const std::string& label, VertexId n,
                              const std::vector<Edge>& edges) {
  const Graph g = Graph::from_edges(n, edges);
  const Graph expect = sort_unique_reference(n, edges);
  // operator== compares the offsets and adjacency arrays exactly.
  EXPECT_TRUE(g == expect) << label << ": n=" << n << ", " << edges.size()
                           << " input edges";
}

TEST(Graph, FromEdgesMatchesSortUniqueOracle) {
  Rng rng(42);
  for (VertexId n : {2u, 7u, 50u, 400u}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{n}, std::size_t{8} * n}) {
      // Random endpoints; every third edge is repeated, alternately in the
      // same and in the reverse orientation, and self-loops occur freely.
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < m; ++i) {
        const Edge e{static_cast<VertexId>(rng.below(n)),
                     static_cast<VertexId>(rng.below(n))};
        edges.push_back(e);
        if (i % 3 == 0) edges.push_back(i % 2 == 0 ? e : Edge{e.v, e.u});
      }
      expect_matches_reference("random", n, edges);
    }
  }
}

TEST(Graph, FromEdgesOracleEdgeCases) {
  expect_matches_reference("n=0", 0, {});
  expect_matches_reference("n=1", 1, {});
  expect_matches_reference("n=1 self-loop", 1, {{0, 0}});
  expect_matches_reference("isolated", 9, {{2, 6}});
  expect_matches_reference("in-range self-loops", 4,
                           {{1, 1}, {0, 3}, {3, 3}, {2, 1}});
  // A self-loop is dropped before the range check: out of range is fine.
  expect_matches_reference("out-of-range self-loops", 5,
                           {{7, 7}, {0, 1}, {5, 5}, {4, 2}});
  expect_matches_reference("all duplicates", 6,
                           {{4, 1}, {1, 4}, {4, 1}, {1, 4}, {4, 1}});
  expect_matches_reference("one vertex adjacent to all", 300, [] {
    std::vector<Edge> star;
    for (VertexId v = 299; v > 0; --v) star.push_back({v, 0});
    return star;
  }());
  // A dense gnp fed back in both orientations, reverse-ordered.
  const Graph dense = gen::gnp(300, 0.3, 5);
  std::vector<Edge> both;
  for (const Edge& e : dense.edges()) {
    both.push_back({e.v, e.u});
    both.push_back(e);
  }
  std::reverse(both.begin(), both.end());
  expect_matches_reference("dense gnp", 300, both);
  EXPECT_TRUE(Graph::from_edges(300, both) == dense);
}

TEST(Graph, FromEdgesThrowsOnOutOfRangeNonLoop) {
  const std::vector<Edge> tail = {{0, 1}, {1, 2}, {2, 5}};
  EXPECT_THROW(Graph::from_edges(5, tail), std::out_of_range);
  const std::vector<Edge> head = {{5, 0}};
  EXPECT_THROW(Graph::from_edges(5, head), std::out_of_range);
}

}  // namespace
}  // namespace rsets
