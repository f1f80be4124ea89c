// The deterministic sampling step: distributed method of conditional
// expectations over a pairwise-independent marking family.
//
// Given an active graph, a candidate set C (potential marks) and a target
// set T (vertices that must end up with a marked closed neighbor), this step
// deterministically fixes a seed such that the marked set M = {v in C :
// mark(v)} satisfies, unconditionally:
//
//   (1) at least |T|/8 targets have a marked vertex in their (truncated)
//       closed neighborhood, and
//   (2) the number of edges inside M is below the gather budget.
//
// Pessimistic estimator (all terms exact conditional expectations, see
// hash_family.hpp):
//
//   Phi = sum_{v in T} Z_v  -  lambda * X / budget
//   Z_v = sum_{u in T_v} P(mark u)  -  sum_{u<w in T_v} P(mark u AND mark w)
//   X   = sum_{(u,w) in E, u,w in C} P(mark u AND mark w)
//
// where T_v is a truncation of N[v] ∩ C to 2^k vertices (so that
// p*|T_v| <= 1, keeping the Bonferroni bound Z_v <= 1[some T_v member
// marked] tight), p = 2^-k is the marking probability, and lambda = 8|T|.
// With p*|T_v| in (1/2, 1] and E[X] <= budget/32 these give E[Phi] >= |T|/8,
// and the seed-fixing engine (core/seed_fixing.hpp) turns that expectation
// into a certainty. See DESIGN.md §3.1 for the derivation.
//
// Distribution: every machine holds estimator shards for the targets and
// candidate edges it owns; one chunk of seed bits costs one width-2*2^c
// allreduce (2 MPC rounds) in which all 2^c candidate assignments are
// evaluated at once (cover and edge mass per assignment). A machine scores
// the whole chunk in one pass over its shard, in exact integer counts
// (MarkShard::chunk_partials): edges and single marks land in one 2^c
// histogram read off by a Walsh-Hadamard transform, and each T_v's pair
// term is PairwiseBitLevel::pair_sum's class count with the determined-ones
// count and per-class parities kept in 2^c lanes. The chosen seed is known
// everywhere, so marks are locally evaluable with zero further
// communication — the property the whole deterministic algorithm leans on.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "mpc/dist_graph.hpp"
#include "util/hash_family.hpp"

namespace rsets {

struct DerandMarkOptions {
  int chunk_bits = 4;
  // Levels k of the marking family, i.e. marking probability 2^-k.
  int levels = 1;
  // Cap on E[edges within M] enforcement; see header comment.
  std::uint64_t edge_budget = 1;
};

struct DerandMarkResult {
  std::vector<VertexId> marked;  // M, sorted
  double initial_estimate = 0.0;
  double final_estimate = 0.0;
  std::uint64_t covered_targets = 0;  // targets with a marked T_v member
  std::uint64_t marked_edges = 0;     // edges inside M (exact)
  int seed_bits = 0;
  int chunks = 0;          // allreduce super-steps spent
  std::uint64_t rounds = 0;  // MPC rounds consumed (2 per chunk)
};

// Estimator shard held by one machine: the targets it owns (truncated
// candidate neighborhoods, each ascending) and the candidate edges it owns.
// Lists shrink to level survivors as seed levels are finalized. Levels
// below the current one are folded in (survivor lists); each of the
// `remaining` levels above contributes 1/2 to a marginal and 1/4 to a
// pairwise joint.
struct MarkShard {
  std::vector<std::vector<VertexId>> target_lists;
  std::vector<Edge> edges;

  // (cover, edge mass) with `level` in its (tentative) state, summed in
  // order: lists, then edges.
  std::pair<double, double> partial(const PairwiseBitLevel& level,
                                    int remaining) const;

  // True iff every partial sum of partial() is a multiple of
  // u = 2^-(2*remaining+2) below 2^53 * u, whatever the level state:
  // sum over lists of (|T_v| * 2^(remaining+2) + 2 |T_v|^2) < 2^53 and
  // 4 |edges| < 2^53. Then partial() equals an integer count of u exactly.
  bool counts_exact(int remaining) const;

  // partial() under every assignment of `chunk` (see SeedChunkFn), as
  // out[2a] (cover) and out[2a + 1] (edge mass). From exact integer class
  // counts when counts_exact(remaining), else by fixing each assignment
  // and calling partial(); the two agree bit for bit.
  void chunk_partials(const PairwiseBitLevel& level, int remaining,
                      std::span<const int> chunk,
                      std::span<double> out) const;

  // Drops every id whose bit at the fully fixed `level` is 0.
  void keep_survivors(const PairwiseBitLevel& level);
};

// Runs the derandomized marking over `dg`'s active subgraph inside `sim`.
// `candidates_mask[v]` marks candidate vertices, `targets` lists the
// vertices that need coverage (must be active candidates' neighbors or
// candidates themselves). Charges 2 MPC rounds per chunk via real
// allreduce traffic.
DerandMarkResult derand_mark(mpc::Simulator& sim, const mpc::DistGraph& dg,
                             const std::vector<bool>& candidates_mask,
                             const std::vector<VertexId>& targets,
                             const DerandMarkOptions& options);

}  // namespace rsets
