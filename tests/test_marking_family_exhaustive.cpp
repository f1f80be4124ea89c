// Exhaustive validation of MarkingFamily's multi-level conditional
// probabilities: for a tiny family, enumerate ALL seed completions and
// compare against prob_mark / prob_mark_both under randomly chosen partial
// assignments. This closes the gap left by the per-level tests in
// test_hash_family.cpp — multi-level products and per-vertex truncation
// depths are exercised here.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "util/hash_family.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

// All unfixed global seed bits.
std::vector<int> free_bits(const MarkingFamily& family) {
  std::vector<int> out;
  for (int b = 0; b < family.total_seed_bits(); ++b) {
    const auto [lvl, idx] = family.locate(b);
    if (!family.level(lvl).bit_fixed(idx)) out.push_back(b);
  }
  return out;
}

double brute_prob_mark(const MarkingFamily& family, std::uint64_t v,
                       int depth) {
  const auto free_list = free_bits(family);
  const int f = static_cast<int>(free_list.size());
  int hits = 0;
  for (std::uint32_t assign = 0; assign < (1u << f); ++assign) {
    MarkingFamily copy = family;
    for (int b = 0; b < f; ++b) {
      copy.fix_global_bit(free_list[b], (assign >> b) & 1u);
    }
    hits += copy.mark_depth(v, depth) ? 1 : 0;
  }
  return static_cast<double>(hits) / std::exp2(f);
}

double brute_prob_both(const MarkingFamily& family, std::uint64_t u, int du,
                       std::uint64_t v, int dv) {
  const auto free_list = free_bits(family);
  const int f = static_cast<int>(free_list.size());
  int hits = 0;
  for (std::uint32_t assign = 0; assign < (1u << f); ++assign) {
    MarkingFamily copy = family;
    for (int b = 0; b < f; ++b) {
      copy.fix_global_bit(free_list[b], (assign >> b) & 1u);
    }
    hits += (copy.mark_depth(u, du) && copy.mark_depth(v, dv)) ? 1 : 0;
  }
  return static_cast<double>(hits) / std::exp2(f);
}

TEST(MarkingFamilyExhaustive, MarginalsMatchUnderPartialSeeds) {
  // ids in [0, 8) -> 3 id bits; 2 levels -> 8 seed bits total.
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    MarkingFamily family(8, 2);
    const int to_fix = static_cast<int>(rng.below(5));
    for (int i = 0; i < to_fix; ++i) {
      family.fix_global_bit(
          static_cast<int>(rng.below(family.total_seed_bits())),
          static_cast<int>(rng.below(2)));
    }
    for (std::uint64_t v = 0; v < 8; ++v) {
      for (int depth : {1, 2}) {
        ASSERT_DOUBLE_EQ(family.prob_mark(v, depth),
                         brute_prob_mark(family, v, depth))
            << "trial " << trial << " v " << v << " depth " << depth;
      }
    }
  }
}

TEST(MarkingFamilyExhaustive, JointsMatchUnderPartialSeeds) {
  // NOTE on exactness: prob_mark_both multiplies per-level joints, which is
  // exact because levels have disjoint seed bits; within a level the O(1)
  // coset formulas are validated against enumeration here.
  Rng rng(72);
  for (int trial = 0; trial < 20; ++trial) {
    MarkingFamily family(4, 2);  // 2 id bits, 2 levels -> 6 seed bits
    const int to_fix = static_cast<int>(rng.below(4));
    for (int i = 0; i < to_fix; ++i) {
      family.fix_global_bit(
          static_cast<int>(rng.below(family.total_seed_bits())),
          static_cast<int>(rng.below(2)));
    }
    for (std::uint64_t u = 0; u < 4; ++u) {
      for (std::uint64_t v = u + 1; v < 4; ++v) {
        for (int du : {1, 2}) {
          for (int dv : {1, 2}) {
            ASSERT_DOUBLE_EQ(family.prob_mark_both(u, du, v, dv),
                             brute_prob_both(family, u, du, v, dv))
                << "trial " << trial << " (" << u << "," << v << ") depths ("
                << du << "," << dv << ")";
          }
        }
      }
    }
  }
}

TEST(MarkingFamilyExhaustive, PairSumsMatchEnumeration) {
  // For every level of a tiny family under random partial seeds, pair_sum
  // must equal the expected number of list pairs whose level bits are both
  // 1, averaged over every completion of the free seed bits.
  Rng rng(73);
  for (int trial = 0; trial < 30; ++trial) {
    MarkingFamily family(8, 2);  // 3 id bits, 2 levels -> 8 seed bits
    const int to_fix = static_cast<int>(rng.below(8));
    for (int i = 0; i < to_fix; ++i) {
      family.fix_global_bit(
          static_cast<int>(rng.below(family.total_seed_bits())),
          static_cast<int>(rng.below(2)));
    }
    std::vector<std::uint32_t> ids;
    for (std::uint32_t v = 0; v < 8; ++v) {
      if (rng.below(3) != 0) ids.push_back(v);
    }
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.below(i)]);
    }
    const auto free_list = free_bits(family);
    const int f = static_cast<int>(free_list.size());
    for (int j = 0; j < family.levels(); ++j) {
      int hits = 0;
      for (std::uint32_t assign = 0; assign < (1u << f); ++assign) {
        MarkingFamily copy = family;
        for (int b = 0; b < f; ++b) {
          copy.fix_global_bit(free_list[b], (assign >> b) & 1u);
        }
        for (std::size_t a = 0; a < ids.size(); ++a) {
          for (std::size_t b = a + 1; b < ids.size(); ++b) {
            hits += copy.level(j).eval(ids[a]) & copy.level(j).eval(ids[b]);
          }
        }
      }
      ASSERT_EQ(family.level(j).pair_sum(ids),
                static_cast<double>(hits) / std::exp2(f))
          << "trial " << trial << " level " << j;
    }
  }
}

TEST(MarkingFamilyExhaustive, TruncationDepthsGiveDyadicMarginals) {
  MarkingFamily family(16, 4);
  for (std::uint64_t v : {0ull, 7ull, 15ull}) {
    for (int depth = 1; depth <= 4; ++depth) {
      EXPECT_DOUBLE_EQ(family.prob_mark(v, depth), std::exp2(-depth));
    }
  }
}

}  // namespace
}  // namespace rsets
