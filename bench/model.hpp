// The simulated-model defaults every bench shares: the MPC configuration a
// row runs on unless it says otherwise, and the model_rounds rescaling.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/ruling_set.hpp"
#include "util/bits.hpp"

namespace rsets::bench {

inline mpc::MpcConfig default_mpc(mpc::MachineId machines = 8) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.memory_words = std::size_t{1} << 26;
  cfg.seed = 1;
  return cfg;
}

// Our simulator decides `chunk_bits` seed bits per 2-round aggregation,
// because scoring 2^c candidate assignments costs 2^c lanes per estimator
// term. The real algorithm affords c = Theta(log n) bits per chunk (the
// 2^c partial sums still fit bandwidth; the evaluations parallelize across
// machines), which the paper's O(1)-rounds-per-phase accounting assumes.
// model_rounds rescales only the derandomization chunks to that width.
inline double model_rounds(const RulingSetResult& result, VertexId n,
                           int chunk_bits) {
  if (result.derand_chunks == 0) {
    return static_cast<double>(result.metrics.rounds);
  }
  const double bits = static_cast<double>(result.derand_chunks) * chunk_bits;
  const double wide = std::max(1, ceil_log2(std::max<VertexId>(n, 2)));
  const double wide_chunks = std::ceil(bits / wide);
  return static_cast<double>(result.metrics.rounds) -
         2.0 * static_cast<double>(result.derand_chunks) + 2.0 * wide_chunks;
}

}  // namespace rsets::bench
