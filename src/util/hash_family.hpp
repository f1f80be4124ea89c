// GF(2)-linear pairwise-independent marking families with *exact*
// conditional probability queries under partially fixed seeds.
//
// This is the deterministic-sampling primitive behind the paper's
// derandomized MPC algorithms. A vertex v in [0, 2^L) is marked iff k
// independent "level bits" all equal 1, where level j's bit is the affine
// form
//
//     b_j(v) = <r_j, x_v> XOR c_j          (inner product over GF(2))
//
// with x_v the L-bit encoding of v and seed (r_j in GF(2)^L, c_j in GF(2)).
// Over a uniform seed:
//   * P(mark v) = 2^-k exactly, and the marks are pairwise independent:
//     for u != v, P(mark u AND mark v) = 4^-k.
//   * Per-vertex truncation depth k_v <= k yields non-uniform marking
//     probabilities 2^-k_v from the *same* seed (used by derandomized Luby).
//
// The seed has k*(L+1) bits total. The point of this class — and what makes
// the method of conditional expectations implementable — is that with any
// subset of seed bits fixed, the marginal P(b_j(v)=1 | fixed bits) and the
// joint P(b_j(u)=1 AND b_j(v)=1 | fixed bits) are exactly computable in
// O(1) word operations:
//   * the free-coefficient vector of b_j(v) is x_v restricted to the unfixed
//     positions of r_j (plus c_j if unfixed);
//   * a single affine form with a nonzero free part is uniform;
//   * two affine forms with nonzero free parts are either equal (then their
//     XOR is determined and the pair is uniform on a coset) or linearly
//     independent (then jointly uniform on {0,1}^2).
//
// pair_sum(ids) answers the list query sum_{i<j} P(b(ids[i]) AND
// b(ids[j])) — the Bonferroni pair term of the derandomization estimator —
// by counting ids per class instead of visiting every pair. An id is either
// determined (c fixed, free part 0: its bit is a known 0 or 1) or free; a
// free id's class is its free part plus the parity of its fixed part. With F
// free ids, D1 determined ids of value 1, n_a free ids sharing free part a
// and n_{a,q} of those with parity q, the sum in quarters is
//
//   C(F,2) - sum_a C(n_a,2) + 2 sum_{a,q} C(n_{a,q},2) + 2 D1 F + 4 C(D1,2)
//
// (distinct free parts: 1/4; equal free parts: 1/2 at equal parity, else 0;
// determined-1 with free: 1/2; two determined 1s: 1). Every term of the
// pairwise sum is dyadic, so for lists below 2^26 ids (every partial sum a
// multiple of 1/4 below 2^51) the integer quarter count equals the in-order
// double sum of prob_both_one bit for bit. Cost: one O(|ids|) pass when the
// free parts arrive in non-decreasing order — true for ascending ids while
// the fixed coefficients are a low prefix, the order in which
// core/seed_fixing fixes them — and a sort of a copy of the ids otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bits.hpp"

namespace rsets {

// One level: the affine form b(v) = <r, x_v> XOR c with partial assignment
// state. Small value type; copyable for tentative chunk evaluation.
class PairwiseBitLevel {
 public:
  // `bits` = L, the id width; ids must lie in [0, 2^L). L <= 63.
  explicit PairwiseBitLevel(int bits);

  int bits() const { return bits_; }
  // Total seed bits of this level: L coefficients + 1 constant.
  int seed_bits() const { return bits_ + 1; }

  // Index i in [0, bits()) fixes coefficient r_i; index bits() fixes c.
  void fix_bit(int index, int value);
  bool bit_fixed(int index) const;
  bool fully_fixed() const;
  int fixed_count() const;

  // P(b(v) = 1 | fixed bits): one of {0, 0.5, 1}.
  double prob_one(std::uint64_t v) const;

  // P(b(u) = 1 AND b(v) = 1 | fixed bits) for u != v:
  // one of {0, 0.25, 0.5, 1}.
  double prob_both_one(std::uint64_t u, std::uint64_t v) const;

  // sum_{i<j} prob_both_one(ids[i], ids[j]), exactly, by class counts (see
  // the header comment).
  double pair_sum(std::span<const std::uint32_t> ids) const;

  // Evaluates b(v); requires fully_fixed().
  int eval(std::uint64_t v) const;

  // Seed bit value; requires bit_fixed(index).
  int seed_bit(int index) const;

 private:
  friend class ChunkForms;

  // Determined XOR contribution of already-fixed coefficient bits.
  int fixed_part(std::uint64_t x) const {
    return parity64(x & fixed_vals_) ^ (c_fixed_ ? c_val_ : 0);
  }
  // Coefficients of v over the free r-bits.
  std::uint64_t free_coeff(std::uint64_t x) const { return x & ~fixed_mask_; }

  int bits_;
  std::uint64_t id_mask_;
  std::uint64_t fixed_mask_ = 0;  // which r-bits are fixed
  std::uint64_t fixed_vals_ = 0;  // their values (subset of fixed_mask_)
  bool c_fixed_ = false;
  int c_val_ = 0;
};

// Fixes chunk[b] to bit b of the assignment word `a`, for every b.
void fix_chunk(PairwiseBitLevel& level, std::span<const int> chunk,
               std::uint32_t a);

// One chunk of a level's unfixed bits, seen from the level's state before
// the chunk is fixed. Under every assignment word a (as fix_chunk applies
// it) an id keeps the same free part and is either determined or not; a
// determined id's bit is p0 XOR parity(a & s), where s is its chunk
// projection (the constant bit projects to 1 for every id). So an id's
// class under all 2^c assignments is read once per chunk, and the
// conditionals above become functions of a few Walsh characters of a.
class ChunkForms {
 public:
  static constexpr int kMaxWidth = 12;

  // `chunk`: ascending unfixed indices of `level`, at most kMaxWidth.
  // Throws std::invalid_argument otherwise.
  ChunkForms(const PairwiseBitLevel& level, std::span<const int> chunk);

  int width() const { return width_; }
  std::uint32_t lanes() const { return std::uint32_t{1} << width_; }

  struct Form {
    std::uint64_t free_part;  // coefficients still free after the chunk
    std::uint32_t s;          // chunk projection
    int p0;                   // fixed part before the chunk
    bool determined;          // bit known once the chunk is fixed
  };
  Form form(std::uint64_t v) const {
    const std::uint64_t x = v & id_mask_;
    return {free_part(x), project(x), parity64(x & fixed_vals_) ^ c_val_,
            determined(free_part(x))};
  }
  // The parts of form() that cost no projection.
  std::uint64_t free_part(std::uint64_t v) const { return v & free_mask_; }
  bool determined(std::uint64_t free_part) const {
    return c_fixed_after_ && free_part == 0;
  }

  // parity(a & s) for chunk words a and s.
  static int parity(std::uint32_t a, std::uint32_t s) {
    return kParity[(a & s) & ((1u << kMaxWidth) - 1)];
  }

 private:
  static constexpr std::array<std::uint8_t, (1u << kMaxWidth)> kParity = [] {
    std::array<std::uint8_t, (1u << kMaxWidth)> t{};
    for (std::uint32_t x = 1; x < t.size(); ++x) {
      t[x] = static_cast<std::uint8_t>(t[x >> 1] ^ (x & 1u));
    }
    return t;
  }();

  std::uint32_t project(std::uint64_t x) const {
    if (contiguous_) {
      return static_cast<std::uint32_t>((x >> lo_) & coef_lanes_) | c_lane_;
    }
    std::uint32_t s = c_lane_;
    for (int b = 0; b < coef_bits_; ++b) {
      s |= static_cast<std::uint32_t>((x >> positions_[b]) & 1u) << b;
    }
    return s;
  }

  int width_;
  std::uint64_t id_mask_;
  std::uint64_t free_mask_;   // coefficients unfixed after the chunk
                              // (within id_mask_)
  std::uint64_t fixed_vals_;  // coefficient values fixed before it
  int c_val_;                 // the constant, if fixed before the chunk
  bool c_fixed_after_;
  int coef_bits_ = 0;  // chunk coefficient positions, ascending
  std::array<int, kMaxWidth> positions_{};
  bool contiguous_ = true;
  int lo_ = 0;
  std::uint32_t coef_lanes_ = 0;  // (1 << coef_bits_) - 1
  std::uint32_t c_lane_ = 0;      // lane bit of the constant, if chunked
};

// A k-level marking family over ids in [0, n_ids). Marking probability is
// 2^-k, or 2^-depth with per-id truncation depth <= k.
class MarkingFamily {
 public:
  MarkingFamily(std::uint64_t n_ids, int k);

  int levels() const { return static_cast<int>(levels_.size()); }
  int id_bits() const { return id_bits_; }
  int total_seed_bits() const { return levels() * (id_bits_ + 1); }

  PairwiseBitLevel& level(int j) { return levels_.at(static_cast<std::size_t>(j)); }
  const PairwiseBitLevel& level(int j) const {
    return levels_.at(static_cast<std::size_t>(j));
  }

  // Global seed-bit index -> (level, index within level).
  std::pair<int, int> locate(int global_bit) const;
  void fix_global_bit(int global_bit, int value);
  bool fully_fixed() const;
  int fixed_levels() const;

  // Full-depth mark; requires fully_fixed().
  bool mark(std::uint64_t v) const { return mark_depth(v, levels()); }
  // Truncated mark: AND of the first `depth` level bits.
  bool mark_depth(std::uint64_t v, int depth) const;

  // P(mark_depth(v, depth)=1 | current partial assignment), exact.
  double prob_mark(std::uint64_t v, int depth) const;
  // Exact pairwise joint for u != v at depths du, dv.
  double prob_mark_both(std::uint64_t u, int du, std::uint64_t v,
                        int dv) const;

  // The fixed seed as a bit vector (for logging / replication); requires
  // fully_fixed().
  std::vector<std::uint8_t> seed() const;

 private:
  int id_bits_;
  std::vector<PairwiseBitLevel> levels_;
};

// Deterministic stateless 64-bit mixer used for data partitioning in the MPC
// substrate (NOT for the derandomized sampling — that is what MarkingFamily
// is for). splitmix64 finalizer over (x ^ salt).
std::uint64_t mix_hash(std::uint64_t x, std::uint64_t salt);

}  // namespace rsets
