#include "core/greedy.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace rsets {

std::vector<VertexId> greedy_mis(const Graph& g) {
  std::vector<VertexId> mis;
  std::vector<bool> blocked(g.num_vertices(), false);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (blocked[v]) continue;
    mis.push_back(v);
    for (VertexId u : g.neighbors(v)) blocked[u] = true;
  }
  return mis;
}

std::vector<VertexId> greedy_ruling_set(const Graph& g, std::uint32_t beta) {
  if (beta == 0) {
    throw std::invalid_argument("greedy_ruling_set: beta must be >= 1");
  }
  if (beta == 1) return greedy_mis(g);
  // A (beta+1, beta)-ruling set: members pairwise farther than beta apart.
  return greedy_alpha_beta_ruling_set(g, beta + 1, beta);
}

std::vector<VertexId> greedy_alpha_beta_ruling_set(const Graph& g,
                                                   std::uint32_t alpha,
                                                   std::uint32_t beta) {
  if (alpha < 1 || beta < 1 || alpha > beta + 1) {
    throw std::invalid_argument(
        "greedy_alpha_beta_ruling_set: need 1 <= alpha <= beta + 1");
  }
  // Greedy by id with distance-to-set tracking capped at alpha-1 for the
  // addability test; a separate cap at beta certifies domination. One
  // array capped at max(alpha - 1, beta) serves both.
  const VertexId n = g.num_vertices();
  const std::uint32_t cap = std::max(alpha - 1, beta);
  const std::uint32_t kFar = cap + 1;
  std::vector<std::uint32_t> dist_to_set(n, kFar);
  std::vector<VertexId> set;
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (dist_to_set[v] <= alpha - 1) continue;  // too close to the set
    set.push_back(v);
    dist_to_set[v] = 0;
    queue.push_back(v);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      if (dist_to_set[u] >= cap) continue;
      for (VertexId w : g.neighbors(u)) {
        if (dist_to_set[w] > dist_to_set[u] + 1) {
          dist_to_set[w] = dist_to_set[u] + 1;
          queue.push_back(w);
        }
      }
    }
  }
  return set;
}

}  // namespace rsets
