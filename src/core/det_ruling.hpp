// Deterministic MPC beta-ruling sets — the paper's headline algorithm.
//
// Phase loop (near-linear memory regime; budget B words for gathers):
//   1. If the active subgraph fits in B, gather it and finish with a local
//      greedy MIS (distance <= 1 for all remaining vertices).
//   2. Otherwise pick the degree threshold d = ceil(sqrt(32 m / B)) — the
//      largest threshold whose derandomized marking provably fits the
//      budget — and repeat the derandomized marking step (derand.hpp) on the
//      targets {v : active degree >= d} until none remain. After each
//      marking: gather G[M], add a local MIS I of it to the output, and
//      deactivate every vertex within beta-1 hops of M (such vertices are
//      within beta hops of I).
// Each phase drives the max active degree below d ~ sqrt(Delta), so the
// number of phases is O(log log Delta) — claim C1.
//
// The algorithm consumes zero random bits (claim C2, checkable via
// MpcMetrics::random_words) and never exceeds machine memory or per-round
// bandwidth (claim C3, enforced by the simulator).
#pragma once

#include <cstdint>
#include <vector>

#include "core/ruling_set.hpp"
#include "graph/graph.hpp"
#include "mpc/message.hpp"

namespace rsets::mpc {
class DistGraph;
class Simulator;
}  // namespace rsets::mpc

namespace rsets {

struct DetRulingOptions {
  std::uint32_t beta = 2;
  std::uint64_t gather_budget_words = 0;  // 0 -> 32 * n
  int chunk_bits = 4;
  int max_mark_steps_per_phase = 200;
};

RulingSetResult det_ruling_set_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                   const DetRulingOptions& options = {});

// Runs the phase loop on an already-loaded distributed graph; the overload
// above is a thin wrapper around this one. perfbench/ calls this form
// directly; its sources change only together with the benchmark definition.
RulingSetResult det_ruling_set_mpc(mpc::Simulator& sim, mpc::DistGraph& dg,
                                   const DetRulingOptions& options = {});

}  // namespace rsets
