#include "core/seed_fixing.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

#include "mpc/primitives.hpp"

namespace rsets {
namespace {

// The next chunk of level `level`: its first `chunk_bits` unfixed bit
// indices, ascending.
std::vector<int> next_chunk(const PairwiseBitLevel& level, int chunk_bits) {
  std::vector<int> out;
  for (int i = 0; i <= level.bits(); ++i) {
    if (static_cast<int>(out.size()) == chunk_bits) break;
    if (!level.bit_fixed(i)) out.push_back(i);
  }
  return out;
}

// Bit b of assignment word `a` goes to chunk[b].
void fix_chunk(PairwiseBitLevel& level, const std::vector<int>& chunk,
               std::uint32_t a) {
  for (std::size_t b = 0; b < chunk.size(); ++b) {
    level.fix_bit(chunk[b], (a >> b) & 1u);
  }
}

}  // namespace

void check_chunk_bits(int chunk_bits, const char* who) {
  if (chunk_bits < 1 || chunk_bits > 12) {
    throw std::invalid_argument(std::string(who) +
                                ": chunk_bits must be in [1, 12]");
  }
}

double PriorityShard::psi(const MarkingFamily& family) const {
  double total = 0.0;
  for (const Single& s : singles) {
    total += s.w * family.prob_mark(s.id, s.depth);
  }
  for (const Pair& p : pairs) {
    total -= p.w * family.prob_mark_both(p.beater, p.beater_depth, p.id,
                                         p.depth);
  }
  return total;
}

SeedFixReport fix_seed_mpc(mpc::Simulator& sim, MarkingFamily& family,
                           int chunk_bits, std::size_t values_per_assignment,
                           const SeedPartialFn& partial,
                           const SeedScoreFn& score,
                           const LevelFixedFn& on_level_fixed) {
  check_chunk_bits(chunk_bits, "fix_seed_mpc");
  const std::size_t w = values_per_assignment;
  SeedFixReport report;
  for (int j = 0; j < family.levels(); ++j) {
    while (!family.level(j).fully_fixed()) {
      const std::vector<int> chunk = next_chunk(family.level(j), chunk_bits);
      const std::uint32_t assignments = 1u << chunk.size();
      const std::vector<double> totals = mpc::allreduce_sum_compute(
          sim, w * assignments, [&](mpc::MachineId m) {
            MarkingFamily local = family;
            const PairwiseBitLevel saved = local.level(j);
            std::vector<double> partials(w * assignments, 0.0);
            for (std::uint32_t a = 0; a < assignments; ++a) {
              fix_chunk(local.level(j), chunk, a);
              partial(m, local, j,
                      std::span<double>(partials).subspan(a * w, w));
              local.level(j) = saved;
            }
            return partials;
          });

      double best = 0.0;
      std::uint32_t best_a = 0;
      for (std::uint32_t a = 0; a < assignments; ++a) {
        const std::span<const double> t =
            std::span<const double>(totals).subspan(a * w, w);
        const double s = score ? score(t) : t[0];
        if (a == 0 || s > best) {
          best = s;
          best_a = a;
        }
      }
      fix_chunk(family.level(j), chunk, best_a);
      ++report.chunks;
      report.trajectory.push_back(best);
    }
    if (on_level_fixed) on_level_fixed(j);
  }
  return report;
}

}  // namespace rsets
