// Luby's randomized MIS in the MPC model (vertex-centric).
//
// Per iteration (4 rounds): owners draw 64-bit priorities for their active
// vertices and route them to neighbors' owners (all-to-all); local minima
// join the MIS; joiners are announced cluster-wide; owners locally derive
// dominated vertices and a deactivation round retires both. O(log n)
// iterations w.h.p. — this is the classical bound the paper's deterministic
// algorithm beats.
#pragma once

#include "core/ruling_set.hpp"

namespace rsets {

RulingSetResult luby_mis_mpc(const Graph& g, const mpc::MpcConfig& cfg);

}  // namespace rsets
