#include "util/hash_family.hpp"

#include <algorithm>
#include <stdexcept>

namespace rsets {

PairwiseBitLevel::PairwiseBitLevel(int bits) : bits_(bits) {
  if (bits < 1 || bits > 63) {
    throw std::invalid_argument("PairwiseBitLevel: bits must be in [1, 63]");
  }
  id_mask_ = (std::uint64_t{1} << bits) - 1;
}

void PairwiseBitLevel::fix_bit(int index, int value) {
  if (index < 0 || index > bits_) {
    throw std::out_of_range("PairwiseBitLevel::fix_bit: bad index");
  }
  if (value != 0 && value != 1) {
    throw std::invalid_argument("PairwiseBitLevel::fix_bit: bad value");
  }
  if (index == bits_) {
    c_fixed_ = true;
    c_val_ = value;
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << index;
  fixed_mask_ |= bit;
  if (value) {
    fixed_vals_ |= bit;
  } else {
    fixed_vals_ &= ~bit;
  }
}

bool PairwiseBitLevel::bit_fixed(int index) const {
  if (index == bits_) return c_fixed_;
  return (fixed_mask_ >> index) & 1;
}

bool PairwiseBitLevel::fully_fixed() const {
  return c_fixed_ && fixed_mask_ == id_mask_;
}

int PairwiseBitLevel::fixed_count() const {
  return std::popcount(fixed_mask_) + (c_fixed_ ? 1 : 0);
}

double PairwiseBitLevel::prob_one(std::uint64_t v) const {
  const std::uint64_t x = v & id_mask_;
  // The constant c always participates; if it (or any coefficient position
  // with x-bit 1) is free, the form is uniform.
  if (!c_fixed_ || free_coeff(x) != 0) return 0.5;
  return fixed_part(x) ? 1.0 : 0.0;
}

double PairwiseBitLevel::prob_both_one(std::uint64_t u,
                                       std::uint64_t v) const {
  const std::uint64_t xu = u & id_mask_;
  const std::uint64_t xv = v & id_mask_;
  const std::uint64_t au = free_coeff(xu);
  const std::uint64_t av = free_coeff(xv);
  const bool u_free = !c_fixed_ || au != 0;
  const bool v_free = !c_fixed_ || av != 0;
  if (!u_free && !v_free) {
    return (fixed_part(xu) && fixed_part(xv)) ? 1.0 : 0.0;
  }
  if (!u_free) return fixed_part(xu) ? 0.5 : 0.0;
  if (!v_free) return fixed_part(xv) ? 0.5 : 0.0;
  // Both forms depend on free seed bits. Including the free constant c, the
  // free-coefficient vectors are (au, !c_fixed) and (av, !c_fixed); since c's
  // coefficient is 1 in both forms, the vectors differ iff au != av.
  if (au != av) return 0.25;  // linearly independent -> jointly uniform
  // Equal free parts: b(u) XOR b(v) is determined (= XOR of fixed parts; the
  // constants cancel). Pair is uniform on the corresponding coset.
  const int diff = parity64((xu ^ xv) & fixed_vals_);
  return diff == 0 ? 0.5 : 0.0;
}

double PairwiseBitLevel::pair_sum(std::span<const std::uint32_t> ids) const {
  auto pairs = [](std::uint64_t n) { return n * (n - 1) / 2; };
  std::uint64_t free = 0;
  std::uint64_t det_ones = 0;
  std::uint64_t same_part = 0;   // sum_a C(n_a, 2)
  std::uint64_t same_class = 0;  // sum_{a,q} C(n_{a,q}, 2)
  // The current run of free ids sharing free part `part`; `odd` of them have
  // fixed-part parity 1.
  std::uint64_t part = 0;
  std::uint64_t run = 0;
  std::uint64_t odd = 0;
  auto close_run = [&] {
    same_part += pairs(run);
    same_class += pairs(run - odd) + pairs(odd);
    run = 0;
    odd = 0;
  };
  for (const std::uint32_t id : ids) {
    const std::uint64_t x = id & id_mask_;
    const std::uint64_t a = free_coeff(x);
    if (c_fixed_ && a == 0) {
      det_ones += static_cast<std::uint64_t>(fixed_part(x));
      continue;
    }
    if (run > 0 && a != part) {
      if (a < part) {
        // Free parts out of order, so a class may be split across runs:
        // count a copy ordered by free part instead.
        std::vector<std::uint32_t> sorted(ids.begin(), ids.end());
        std::ranges::sort(sorted, {}, [&](std::uint32_t v) {
          return free_coeff(v & id_mask_);
        });
        return pair_sum(sorted);
      }
      close_run();
    }
    part = a;
    ++run;
    ++free;
    odd += static_cast<std::uint64_t>(parity64(x & fixed_vals_));
  }
  close_run();
  const std::uint64_t quarters = pairs(free) - same_part + 2 * same_class +
                                 2 * det_ones * free + 4 * pairs(det_ones);
  return static_cast<double>(quarters) * 0.25;
}

int PairwiseBitLevel::eval(std::uint64_t v) const {
  if (!fully_fixed()) {
    throw std::logic_error("PairwiseBitLevel::eval: seed not fully fixed");
  }
  return fixed_part(v & id_mask_);
}

int PairwiseBitLevel::seed_bit(int index) const {
  if (!bit_fixed(index)) {
    throw std::logic_error("PairwiseBitLevel::seed_bit: bit not fixed");
  }
  if (index == bits_) return c_val_;
  return (fixed_vals_ >> index) & 1;
}

void fix_chunk(PairwiseBitLevel& level, std::span<const int> chunk,
               std::uint32_t a) {
  for (std::size_t b = 0; b < chunk.size(); ++b) {
    level.fix_bit(chunk[b], static_cast<int>((a >> b) & 1u));
  }
}

ChunkForms::ChunkForms(const PairwiseBitLevel& level,
                       std::span<const int> chunk)
    : width_(static_cast<int>(chunk.size())),
      id_mask_(level.id_mask_),
      free_mask_(level.id_mask_ & ~level.fixed_mask_),
      fixed_vals_(level.fixed_vals_),
      c_val_(level.c_fixed_ ? level.c_val_ : 0),
      c_fixed_after_(level.c_fixed_) {
  if (width_ > kMaxWidth) {
    throw std::invalid_argument("ChunkForms: chunk wider than 12 bits");
  }
  for (int b = 0; b < width_; ++b) {
    const int index = chunk[static_cast<std::size_t>(b)];
    if (index < 0 || index > level.bits() || level.bit_fixed(index) ||
        (b > 0 && index <= chunk[static_cast<std::size_t>(b) - 1])) {
      throw std::invalid_argument(
          "ChunkForms: chunk must list ascending unfixed bits");
    }
    if (index == level.bits()) {  // the constant: last, since ascending
      c_fixed_after_ = true;
      c_lane_ = std::uint32_t{1} << b;
      continue;
    }
    free_mask_ &= ~(std::uint64_t{1} << index);
    positions_[static_cast<std::size_t>(coef_bits_)] = index;
    if (coef_bits_ > 0 && index != positions_[0] + coef_bits_) {
      contiguous_ = false;
    }
    ++coef_bits_;
  }
  lo_ = positions_[0];
  coef_lanes_ = (std::uint32_t{1} << coef_bits_) - 1;
}

MarkingFamily::MarkingFamily(std::uint64_t n_ids, int k)
    : id_bits_(bit_width_for(n_ids)) {
  if (k < 1) throw std::invalid_argument("MarkingFamily: k must be >= 1");
  levels_.reserve(static_cast<std::size_t>(k));
  for (int j = 0; j < k; ++j) levels_.emplace_back(id_bits_);
}

std::pair<int, int> MarkingFamily::locate(int global_bit) const {
  const int per_level = id_bits_ + 1;
  if (global_bit < 0 || global_bit >= total_seed_bits()) {
    throw std::out_of_range("MarkingFamily::locate: bad bit index");
  }
  return {global_bit / per_level, global_bit % per_level};
}

void MarkingFamily::fix_global_bit(int global_bit, int value) {
  const auto [lvl, idx] = locate(global_bit);
  levels_[static_cast<std::size_t>(lvl)].fix_bit(idx, value);
}

bool MarkingFamily::fully_fixed() const {
  for (const auto& lvl : levels_) {
    if (!lvl.fully_fixed()) return false;
  }
  return true;
}

int MarkingFamily::fixed_levels() const {
  int count = 0;
  for (const auto& lvl : levels_) {
    if (!lvl.fully_fixed()) break;
    ++count;
  }
  return count;
}

bool MarkingFamily::mark_depth(std::uint64_t v, int depth) const {
  for (int j = 0; j < depth; ++j) {
    if (levels_[static_cast<std::size_t>(j)].eval(v) == 0) return false;
  }
  return true;
}

double MarkingFamily::prob_mark(std::uint64_t v, int depth) const {
  double p = 1.0;
  for (int j = 0; j < depth && p > 0.0; ++j) {
    p *= levels_[static_cast<std::size_t>(j)].prob_one(v);
  }
  return p;
}

double MarkingFamily::prob_mark_both(std::uint64_t u, int du, std::uint64_t v,
                                     int dv) const {
  if (u == v) {
    throw std::invalid_argument("prob_mark_both: ids must differ");
  }
  const int shared = du < dv ? du : dv;
  double p = 1.0;
  for (int j = 0; j < shared && p > 0.0; ++j) {
    p *= levels_[static_cast<std::size_t>(j)].prob_both_one(u, v);
  }
  const std::uint64_t deeper = du > dv ? u : v;
  const int hi = du > dv ? du : dv;
  for (int j = shared; j < hi && p > 0.0; ++j) {
    p *= levels_[static_cast<std::size_t>(j)].prob_one(deeper);
  }
  return p;
}

std::vector<std::uint8_t> MarkingFamily::seed() const {
  if (!fully_fixed()) {
    throw std::logic_error("MarkingFamily::seed: seed not fully fixed");
  }
  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(total_seed_bits()));
  for (const auto& lvl : levels_) {
    for (int i = 0; i <= id_bits_; ++i) {
      out.push_back(static_cast<std::uint8_t>(lvl.seed_bit(i)));
    }
  }
  return out;
}

std::uint64_t mix_hash(std::uint64_t x, std::uint64_t salt) {
  std::uint64_t z = x ^ (salt + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rsets
