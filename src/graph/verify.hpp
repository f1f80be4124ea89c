// Independent verification of ruling-set outputs.
//
// Every algorithm result in tests, benches, and examples is passed through
// these checkers; nothing is trusted on the algorithm's say-so. The checkers
// use plain BFS and adjacency scans, sharing no code with the algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace rsets {

// True iff no two vertices of `set` are adjacent in g.
bool is_independent_set(const Graph& g, std::span<const VertexId> set);

// Max over vertices of the hop distance to the nearest member of `set`;
// UINT32_MAX if some vertex is unreachable from every member (e.g. empty
// set on a non-empty graph).
std::uint32_t domination_radius(const Graph& g,
                                std::span<const VertexId> set);

// True iff `set` is independent and every vertex is within `beta` hops.
bool is_beta_ruling_set(const Graph& g, std::span<const VertexId> set,
                        std::uint32_t beta);

// True iff `set` is an MIS: independent and every vertex is in the set or
// adjacent to it AND no vertex can be added (equivalent for MIS).
bool is_maximal_independent_set(const Graph& g,
                                std::span<const VertexId> set);

// The literature's general notion: an (alpha, beta)-ruling set has members
// pairwise at distance >= alpha and every vertex within beta hops of one.
// (alpha = 2 recovers the plain beta-ruling set.)
bool is_alpha_beta_ruling_set(const Graph& g, std::span<const VertexId> set,
                              std::uint32_t alpha, std::uint32_t beta);

// Minimum pairwise distance among set members (UINT32_MAX for |set| < 2 or
// members in different components).
std::uint32_t min_pairwise_distance(const Graph& g,
                                    std::span<const VertexId> set);

struct RulingSetReport {
  bool independent = false;
  std::uint32_t radius = 0;       // measured domination radius
  std::uint64_t size = 0;         // |set|
  bool valid = false;             // independent && radius <= beta
  std::uint32_t beta_claimed = 0;
  std::string to_string() const;
};

RulingSetReport check_ruling_set(const Graph& g,
                                 std::span<const VertexId> set,
                                 std::uint32_t beta);

// A machine-checkable certificate of ruling-set validity, produced in-model
// by mpc::certify_ruling_set (edge-exchange independence check + β-hop
// domination BFS, O(β) extra MPC rounds). The certificate commits to exact
// counts, not just a verdict, so an independent sequential recomputation
// (cross_validate_certificate) can confirm every field.
struct RulingSetCertificate {
  std::uint32_t beta = 0;
  std::uint64_t set_size = 0;       // claimed members, before screening
  std::uint64_t malformed = 0;      // out-of-range ids + duplicate entries
  std::uint64_t conflict_edges = 0; // edges with both endpoints in the set
  std::uint64_t uncovered = 0;      // vertices farther than beta from the set
  // Largest BFS level (1..beta) that covered a new vertex; 0 when the set
  // already covers everything at distance 0 (or covers nothing).
  std::uint32_t radius = 0;
  // level_counts[d] = vertices first covered at distance d (level 0 = valid
  // members); size beta + 1.
  std::vector<std::uint64_t> level_counts;
  // MPC rounds the certification pass spent (informational; not part of
  // cross-validation).
  std::uint64_t rounds = 0;

  bool valid() const {
    return malformed == 0 && conflict_edges == 0 && uncovered == 0;
  }
  std::string to_string() const;
  friend bool operator==(const RulingSetCertificate&,
                         const RulingSetCertificate&) = default;
};

// Recomputes every certificate field from scratch with sequential BFS and
// adjacency scans (sharing no code with the MPC pass) and compares. True iff
// the certificate describes exactly this graph and set — a forged or stale
// certificate fails even when its verdict happens to be right.
bool cross_validate_certificate(const Graph& g, std::span<const VertexId> set,
                                const RulingSetCertificate& cert);

}  // namespace rsets
