// The seed-fixing engine: the distributed method of conditional expectations
// over a MarkingFamily seed, shared by derand_mark, det_luby_mis_mpc and
// det_matching_mpc.
//
// Bits are fixed level by level in index order, `chunk_bits` at a time; a
// chunk never straddles a level, so it is a contiguous run of the level's
// indices, the last one possibly the constant bit. Per chunk of c bits,
// every machine scores its estimator shard under all 2^c assignments in one
// pass over its terms (ChunkForms reads each id's class once per chunk),
// inside one allreduce_sum_compute (2 MPC rounds); the summed totals are
// scored and the first strict maximum wins, so ties go to the smallest
// assignment word. With an exact estimator (see hash_family.hpp) the final
// value is at least the unconditional expectation.
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

// Machine m's partials for every assignment of `chunk` (ascending unfixed
// indices of level `level`; `family` is in its pre-chunk state). Fills
// `out` (2^c * values_per_assignment doubles, zeroed) as
// [a * values_per_assignment + i], bit b of a assigned to chunk[b] (see
// fix_chunk). Runs concurrently for distinct machines and must touch only
// their state.
using SeedChunkFn = std::function<void(
    mpc::MachineId m, const MarkingFamily& family, int level,
    std::span<const int> chunk, std::span<double> out)>;
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
// every mark at its own truncation depth.
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

  // Psi under every assignment of `chunk` (see SeedChunkFn): out[a]. Each
  // term's levels other than `level` fold into one constant per chunk, and
  // each lane sums the terms in list order (singles, then pairs) as
  // w * P(...) with the same exact dyadic P as MarkingFamily::prob_mark and
  // prob_mark_both, so a lane equals that ordered sum under assignment a bit
  // for bit. Terms whose other levels already give P = 0 are skipped: with
  // finite weights they add a signed zero, and a sum that starts at +0.0
  // never changes by one.
  void psi_chunk(const MarkingFamily& family, int level,
                 std::span<const int> chunk, std::span<double> out) const;
};

// Fixes every unfixed bit of `family`. The allreduce width per chunk is
// values_per_assignment * 2^c, laid out as [a * values_per_assignment + i].
SeedFixReport fix_seed_mpc(mpc::Simulator& sim, MarkingFamily& family,
                           int chunk_bits, std::size_t values_per_assignment,
                           const SeedChunkFn& chunk_partials,
                           const SeedScoreFn& score = {},
                           const LevelFixedFn& on_level_fixed = {});

}  // namespace rsets
