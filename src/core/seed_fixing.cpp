#include "core/seed_fixing.hpp"

#include <algorithm>
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

// The current level's factor f of one term in lane a is table[i], where
// bit 0 of i is p ^ parity(a & s) and bit 1 is q ^ parity(a & t).
struct LaneFactor {
  double table[4] = {1.0, 1.0, 1.0, 1.0};
  std::uint32_t s = 0;
  std::uint32_t t = 0;
  int p = 0;
  int q = 0;
};

// One mark (prob_one): 1/2 while free, else its bit.
LaneFactor mark_factor(const ChunkForms::Form& f) {
  if (!f.determined) return {{0.5, 0.5, 0.5, 0.5}};
  return {{0.0, 1.0, 0.0, 1.0}, f.s, 0, f.p0, 0};
}

// Two marks (prob_both_one): both determined, the AND of their bits; one,
// 1/2 times its bit; free with different free parts, 1/4; free with equal
// ones, 1/2 where their p0 ^ parity(a & s) agree (their XOR is fixed).
LaneFactor joint_factor(const ChunkForms::Form& u, const ChunkForms::Form& v) {
  if (!u.determined && !v.determined && u.free_part != v.free_part) {
    return {{0.25, 0.25, 0.25, 0.25}};
  }
  LaneFactor x{{0.0, 0.0, 0.0, 0.0}, u.s, v.s, u.p0, v.p0};
  if (u.determined && v.determined) {
    x.table[3] = 1.0;
  } else if (u.determined) {
    x.table[1] = x.table[3] = 0.5;
  } else if (v.determined) {
    x.table[2] = x.table[3] = 0.5;
  } else {
    x.table[0] = x.table[3] = 0.5;
  }
  return x;
}

// Adds (kAdd) or subtracts w * (k * f) in every lane of `out`. k * f is
// exact (every factor is 0 or a power of two), so it is the P the ordered
// sum multiplies by w.
template <bool kAdd>
void add_lanes(std::span<double> out, double w, double k,
               const LaneFactor& f) {
  const double v[4] = {w * (k * f.table[0]), w * (k * f.table[1]),
                       w * (k * f.table[2]), w * (k * f.table[3])};
  const auto lanes = static_cast<std::uint32_t>(out.size());
  if (f.s == 0 && f.t == 0) {  // the same term in every lane
    for (std::uint32_t a = 0; a < lanes; ++a) {
      if constexpr (kAdd) {
        out[a] += v[f.p | (f.q << 1)];
      } else {
        out[a] -= v[f.p | (f.q << 1)];
      }
    }
    return;
  }
  for (std::uint32_t a = 0; a < lanes; ++a) {
    const int idx = (f.p ^ ChunkForms::parity(a, f.s)) |
                    ((f.q ^ ChunkForms::parity(a, f.t)) << 1);
    if constexpr (kAdd) {
      out[a] += v[idx];
    } else {
      out[a] -= v[idx];
    }
  }
}

}  // namespace

void check_chunk_bits(int chunk_bits, const char* who) {
  if (chunk_bits < 1 || chunk_bits > 12) {
    throw std::invalid_argument(std::string(who) +
                                ": chunk_bits must be in [1, 12]");
  }
}

void PriorityShard::psi_chunk(const MarkingFamily& family, int level,
                              std::span<const int> chunk,
                              std::span<double> out) const {
  const ChunkForms forms(family.level(level), chunk);
  std::fill(out.begin(), out.end(), 0.0);
  for (const Single& t : singles) {
    double k = 1.0;
    for (int j = 0; j < t.depth && k != 0.0; ++j) {
      if (j != level) k *= family.level(j).prob_one(t.id);
    }
    if (k == 0.0) continue;  // see psi_chunk's header comment
    add_lanes<true>(out, t.w, k,
                    level < t.depth ? mark_factor(forms.form(t.id))
                                    : LaneFactor{});
  }
  for (const Pair& t : pairs) {
    const int shared = std::min(t.beater_depth, t.depth);
    const int hi = std::max(t.beater_depth, t.depth);
    const std::uint64_t deeper = t.beater_depth > t.depth ? t.beater : t.id;
    double k = 1.0;
    for (int j = 0; j < hi && k != 0.0; ++j) {
      if (j == level) continue;
      const PairwiseBitLevel& lvl = family.level(j);
      k *= j < shared ? lvl.prob_both_one(t.beater, t.id)
                      : lvl.prob_one(deeper);
    }
    if (k == 0.0) continue;
    LaneFactor f;
    if (level < shared) {
      f = joint_factor(forms.form(t.beater), forms.form(t.id));
    } else if (level < hi) {
      f = mark_factor(forms.form(deeper));
    }
    add_lanes<false>(out, t.w, k, f);
  }
}

SeedFixReport fix_seed_mpc(mpc::Simulator& sim, MarkingFamily& family,
                           int chunk_bits, std::size_t values_per_assignment,
                           const SeedChunkFn& chunk_partials,
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
            std::vector<double> partials(w * assignments, 0.0);
            chunk_partials(m, family, j, chunk, partials);
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
