// The seed-fixing engine: the distributed method of conditional expectations
// over a MarkingFamily seed, shared by derand_mark, det_luby_mis_mpc and
// det_matching_mpc.
//
// Bits are fixed level by level in index order, `chunk_bits` at a time; a
// chunk never straddles a level. Per chunk of c bits, every machine
// evaluates its estimator shard under all 2^c assignments inside one
// allreduce_sum_compute (2 MPC rounds), each on a private copy of the
// family; the summed totals are scored and the first strict maximum wins, so
// ties go to the smallest assignment word. With an exact estimator (see
// hash_family.hpp) the final value is at least the unconditional
// expectation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mpc/simulator.hpp"
#include "util/hash_family.hpp"

namespace rsets {

// Throws std::invalid_argument("<who>: chunk_bits must be in [1, 12]").
// Drivers call it on entry, so inputs that never reach a chunk still
// reject a bad option.
void check_chunk_bits(int chunk_bits, const char* who);

// Machine m's partials with one tentative assignment applied to level
// `level` of `family`; fills `out` (values_per_assignment doubles). Runs
// concurrently for distinct machines and must touch only their state.
using SeedPartialFn = std::function<void(
    mpc::MachineId m, const MarkingFamily& family, int level,
    std::span<double> out)>;
// Score of one assignment's summed totals; empty = totals[0].
using SeedScoreFn = std::function<double(std::span<const double> totals)>;
// Runs once per level, in order, as soon as the level is fully fixed.
using LevelFixedFn = std::function<void(int level)>;

struct SeedFixReport {
  int chunks = 0;                  // allreduces spent (2 MPC rounds each)
  std::vector<double> trajectory;  // winning score of each chunk
};

// One machine's shard of the depth-aware priority estimator shared by
// det_luby_mis_mpc and det_matching_mpc:
//   Psi = sum_singles w * P(mark id) - sum_pairs w * P(mark beater AND id),
// every mark at its own truncation depth. psi() sums in list order.
struct PriorityShard {
  struct Single {
    std::uint64_t id;
    double w;
    int depth;
  };
  struct Pair {
    std::uint64_t beater;
    std::uint64_t id;
    double w;
    int beater_depth;
    int depth;
  };
  std::vector<Single> singles;
  std::vector<Pair> pairs;

  double psi(const MarkingFamily& family) const;
};

// Fixes every unfixed bit of `family`. The allreduce width per chunk is
// values_per_assignment * 2^c, laid out as [a * values_per_assignment + i].
SeedFixReport fix_seed_mpc(mpc::Simulator& sim, MarkingFamily& family,
                           int chunk_bits, std::size_t values_per_assignment,
                           const SeedPartialFn& partial,
                           const SeedScoreFn& score = {},
                           const LevelFixedFn& on_level_fixed = {});

}  // namespace rsets
