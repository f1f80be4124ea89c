#include "core/det_ruling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/derand.hpp"
#include "core/phase_common.hpp"
#include "core/greedy.hpp"
#include "graph/ops.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "util/bits.hpp"
#include "util/logging.hpp"

namespace rsets {
using detail::count_active_edges;
using detail::gather_and_mis;
using detail::remove_ball;
using mpc::MachineId;
using mpc::Simulator;

RulingSetResult det_ruling_set_mpc(const Graph& g, const mpc::MpcConfig& cfg,
                                   const DetRulingOptions& options) {
  Simulator sim(cfg);
  mpc::DistGraph dg(sim, g);
  return det_ruling_set_mpc(sim, dg, options);
}

RulingSetResult det_ruling_set_mpc(Simulator& sim, mpc::DistGraph& dg,
                                   const DetRulingOptions& options) {
  if (options.beta < 2) {
    throw std::invalid_argument(
        "det_ruling_set_mpc: beta must be >= 2 (use det_luby for MIS)");
  }
  const VertexId n = dg.num_vertices();

  std::uint64_t budget = options.gather_budget_words;
  if (budget == 0) budget = 32ull * std::max<VertexId>(n, 1);
  budget = std::min<std::uint64_t>(budget, sim.config().memory_words);

  RulingSetResult result;
  result.beta = options.beta;
  std::vector<VertexId>& ruling = result.ruling_set;

  // Checkpointable driver state: everything that survives across rounds.
  sim.register_snapshotable("dist_graph", &dg);
  auto driver_state =
      mpc::snapshot_of(result.ruling_set, result.phases, result.mark_steps,
                       result.derand_chunks, result.degree_trajectory);
  sim.register_snapshotable("det_ruling", &driver_state);

  std::uint64_t clamped_phases = 0;
  while (dg.active_count() > 0) {
    const std::uint64_t m_active = count_active_edges(sim, dg);
    if (m_active == 0) {
      // Only isolated active vertices remain: all of them join (they have
      // no active neighbors, and active vertices never neighbor the set).
      std::vector<std::vector<VertexId>> batches(sim.num_machines());
      for (VertexId v : dg.active_vertices()) {
        ruling.push_back(v);
        batches[dg.owner(v)].push_back(v);
      }
      dg.deactivate(sim, batches);
      break;
    }
    if (2 * m_active + 2 * dg.active_count() <= budget) {
      // Final gather: solve the small residual exactly.
      const std::vector<VertexId> members = dg.active_vertices();
      std::vector<std::uint8_t> mask(n, 0);
      for (VertexId v : members) mask[v] = 1;
      const auto mis = gather_and_mis(sim, dg, members, mask);
      ruling.insert(ruling.end(), mis.begin(), mis.end());
      std::vector<std::vector<VertexId>> batches(sim.num_machines());
      for (VertexId v : members) batches[dg.owner(v)].push_back(v);
      dg.deactivate(sim, batches);
      break;
    }

    const std::uint32_t delta = dg.active_max_degree(sim);
    result.degree_trajectory.push_back(delta);
    std::uint32_t d = static_cast<std::uint32_t>(std::ceil(
        std::sqrt(32.0 * static_cast<double>(m_active) /
                  static_cast<double>(budget))));
    d = std::max<std::uint32_t>(d, 2);
    if (d > delta) {
      // Budget too small for the near-linear analysis; degrade gracefully.
      // Warned once per run; the final INFO line counts the phases.
      if (clamped_phases++ == 0) {
        RSETS_WARN << "det_ruling: threshold " << d << " exceeds Delta "
                   << delta << " (budget too small for regime); clamping";
      }
      d = delta;
    }
    // k from the threshold, raised if needed so that E[sampled edges]
    // = 4^-k * m <= budget/32 holds even when d was clamped above.
    const int k_budget = static_cast<int>(std::ceil(
        0.5 * std::log2(32.0 * static_cast<double>(m_active) /
                        static_cast<double>(budget))));
    const int k = std::max(ceil_log2(d + 1), k_budget);

    ++result.phases;
    int steps = 0;
    while (steps < options.max_mark_steps_per_phase) {
      // Targets: active vertices with active degree >= d (owners scan
      // locally).
      std::vector<VertexId> targets;
      for (MachineId m = 0; m < sim.num_machines(); ++m) {
        for (VertexId v : dg.owned(m)) {
          if (dg.active(v) && dg.active_degree(v) >= d) targets.push_back(v);
        }
      }
      if (targets.empty()) break;
      std::sort(targets.begin(), targets.end());
      ++steps;
      ++result.mark_steps;

      DerandMarkOptions mark_options;
      mark_options.chunk_bits = options.chunk_bits;
      mark_options.levels = std::max(k, 1);
      mark_options.edge_budget = budget;
      std::vector<bool> all_active(n, true);
      const DerandMarkResult mark =
          derand_mark(sim, dg, all_active, targets, mark_options);
      result.derand_chunks += static_cast<std::uint64_t>(mark.chunks);
      if (mark.marked.empty()) {
        // Cannot happen when targets is non-empty (Phi_final >= |T|/8 > 0
        // forces marks); guard against estimator bugs.
        throw std::logic_error("det_ruling: empty marked set");
      }

      std::vector<std::uint8_t> in_marked(n, 0);
      for (VertexId v : mark.marked) in_marked[v] = 1;
      const auto mis = gather_and_mis(sim, dg, mark.marked, in_marked);
      ruling.insert(ruling.end(), mis.begin(), mis.end());
      remove_ball(sim, dg, in_marked, options.beta - 1);
    }
  }

  std::sort(ruling.begin(), ruling.end());
  sim.sync_metrics();
  result.metrics = sim.metrics();
  RSETS_INFO << "det_ruling: n=" << n << " beta=" << options.beta
             << " |R|=" << ruling.size() << " phases=" << result.phases
             << " mark_steps=" << result.mark_steps
             << " clamped_phases=" << clamped_phases
             << " rounds=" << result.metrics.rounds
             << " random_words=" << result.metrics.random_words;
  return result;
}

}  // namespace rsets
