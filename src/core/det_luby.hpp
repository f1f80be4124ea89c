// Derandomized Luby MIS in MPC — the deterministic O(log n)-round baseline
// that the paper's algorithm improves upon.
//
// Each iteration derandomizes one Luby step with the same machinery as the
// ruling-set algorithm (pairwise-independent marking family + distributed
// conditional expectations), but with *per-vertex* marking probabilities
// p_v = 2^-k_v in (1/(4 deg v), 1/(2 deg v)] realized as per-vertex
// truncation depths of one shared seed. The pessimistic estimator is
//
//   Psi = sum_v w_v * ( P(M_v) - sum_{u in N(v), u > v} P(M_u AND M_v) )
//
// with priority order (higher active degree, then lower id) and weights
// w_v = deg(v) + 1. E[Psi] > 0 whenever any active vertex remains, and a
// realized Psi > 0 guarantees at least one vertex joins the MIS each
// iteration, so termination is deterministic. Empirically the iteration
// count tracks Luby's O(log n).
#pragma once

#include "core/ruling_set.hpp"

namespace rsets {

struct DetLubyOptions {
  int chunk_bits = 4;
};

RulingSetResult det_luby_mis_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                 const DetLubyOptions& options = {});

}  // namespace rsets
