// Exactness tests for the pairwise-independent marking family. These are the
// load-bearing tests of the whole derandomization stack: if the conditional
// probabilities here are exact, the method of conditional expectations'
// guarantee is sound.
#include "util/hash_family.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace rsets {
namespace {

// Enumerates all completions of the free seed bits of `level` and counts
// outcomes; used as ground truth for the O(1) conditional formulas.
double brute_prob_one(const PairwiseBitLevel& level, std::uint64_t v) {
  std::vector<int> free_bits;
  for (int i = 0; i <= level.bits(); ++i) {
    if (!level.bit_fixed(i)) free_bits.push_back(i);
  }
  const int f = static_cast<int>(free_bits.size());
  int ones = 0;
  for (std::uint32_t assign = 0; assign < (1u << f); ++assign) {
    PairwiseBitLevel copy = level;
    for (int b = 0; b < f; ++b) copy.fix_bit(free_bits[b], (assign >> b) & 1);
    ones += copy.eval(v);
  }
  return static_cast<double>(ones) / std::exp2(f);
}

double brute_prob_both(const PairwiseBitLevel& level, std::uint64_t u,
                       std::uint64_t v) {
  std::vector<int> free_bits;
  for (int i = 0; i <= level.bits(); ++i) {
    if (!level.bit_fixed(i)) free_bits.push_back(i);
  }
  const int f = static_cast<int>(free_bits.size());
  int both = 0;
  for (std::uint32_t assign = 0; assign < (1u << f); ++assign) {
    PairwiseBitLevel copy = level;
    for (int b = 0; b < f; ++b) copy.fix_bit(free_bits[b], (assign >> b) & 1);
    both += copy.eval(u) & copy.eval(v);
  }
  return static_cast<double>(both) / std::exp2(f);
}

TEST(PairwiseBitLevel, UnconditionalMarginalIsHalf) {
  PairwiseBitLevel level(4);
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(level.prob_one(v), 0.5);
    EXPECT_DOUBLE_EQ(brute_prob_one(level, v), 0.5);
  }
}

TEST(PairwiseBitLevel, UnconditionalJointIsQuarter) {
  PairwiseBitLevel level(4);
  for (std::uint64_t u = 0; u < 8; ++u) {
    for (std::uint64_t v = u + 1; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(level.prob_both_one(u, v), 0.25);
      EXPECT_DOUBLE_EQ(brute_prob_both(level, u, v), 0.25);
    }
  }
}

TEST(PairwiseBitLevel, ConditionalMarginalsMatchBruteForce) {
  // Sweep many random partial assignments; formulas must match enumeration
  // exactly (these are dyadic rationals — no tolerance needed).
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    PairwiseBitLevel level(5);
    const int to_fix = static_cast<int>(rng.below(6));
    for (int i = 0; i < to_fix; ++i) {
      level.fix_bit(static_cast<int>(rng.below(6)),
                    static_cast<int>(rng.below(2)));
    }
    for (std::uint64_t v = 0; v < 32; v += 3) {
      ASSERT_DOUBLE_EQ(level.prob_one(v), brute_prob_one(level, v))
          << "trial " << trial << " v " << v;
    }
  }
}

TEST(PairwiseBitLevel, ConditionalJointsMatchBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 120; ++trial) {
    PairwiseBitLevel level(4);
    const int to_fix = static_cast<int>(rng.below(6));
    for (int i = 0; i < to_fix; ++i) {
      level.fix_bit(static_cast<int>(rng.below(5)),
                    static_cast<int>(rng.below(2)));
    }
    for (std::uint64_t u = 0; u < 16; u += 2) {
      for (std::uint64_t v = u + 1; v < 16; v += 3) {
        ASSERT_DOUBLE_EQ(level.prob_both_one(u, v),
                         brute_prob_both(level, u, v))
            << "trial " << trial << " pair (" << u << "," << v << ")";
      }
    }
  }
}

TEST(PairwiseBitLevel, FullyFixedEvaluates) {
  PairwiseBitLevel level(3);
  for (int i = 0; i <= 3; ++i) level.fix_bit(i, i % 2);
  ASSERT_TRUE(level.fully_fixed());
  // r = (0,1,0), c = 1: b(v) = v_1 XOR 1.
  EXPECT_EQ(level.eval(0b000), 1);
  EXPECT_EQ(level.eval(0b010), 0);
  EXPECT_EQ(level.eval(0b111), 0);
  EXPECT_EQ(level.eval(0b101), 1);
}

TEST(PairwiseBitLevel, ProbabilitiesCollapseToIndicators) {
  PairwiseBitLevel level(3);
  for (int i = 0; i <= 3; ++i) level.fix_bit(i, 1);
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_DOUBLE_EQ(level.prob_one(v), static_cast<double>(level.eval(v)));
  }
}

TEST(PairwiseBitLevel, RejectsBadInputs) {
  PairwiseBitLevel level(3);
  EXPECT_THROW(level.fix_bit(-1, 0), std::out_of_range);
  EXPECT_THROW(level.fix_bit(5, 0), std::out_of_range);
  EXPECT_THROW(level.fix_bit(0, 2), std::invalid_argument);
  EXPECT_THROW(level.eval(0), std::logic_error);
  EXPECT_THROW(PairwiseBitLevel(0), std::invalid_argument);
  EXPECT_THROW(PairwiseBitLevel(64), std::invalid_argument);
}

// The quadratic pair loop that pair_sum replaces; the oracle for the class
// count.
double quadratic_pair_sum(const PairwiseBitLevel& level,
                          const std::vector<std::uint32_t>& ids) {
  double sum = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      sum += level.prob_both_one(ids[i], ids[j]);
    }
  }
  return sum;
}

// A level over `bits`-bit ids with each coefficient bit fixed to a random
// value with probability 1/2 and the constant c left free (c < 0) or fixed
// to c.
PairwiseBitLevel random_partial_level(Rng& rng, int bits, int c) {
  PairwiseBitLevel level(bits);
  for (int i = 0; i < bits; ++i) {
    if (rng.below(2) == 1) {
      level.fix_bit(i, static_cast<int>(rng.below(2)));
    }
  }
  if (c >= 0) level.fix_bit(bits, c);
  return level;
}

constexpr std::size_t kPairSumLengths[] = {0, 1, 2, 63, 64, 65, 200};

TEST(PairwiseBitLevel, PairSumMatchesQuadraticLoop) {
  // Random ids in random order, repeats allowed; 8-bit ids make shared free
  // parts and mixed parities common. Odd trials plant id 0, whose free part
  // is 0 under every partial seed (free exactly while c is).
  Rng rng(2311);
  for (int trial = 0; trial < 40; ++trial) {
    for (const int c : {-1, 0, 1}) {
      const PairwiseBitLevel level = random_partial_level(rng, 8, c);
      for (const std::size_t len : kPairSumLengths) {
        std::vector<std::uint32_t> ids(len);
        for (auto& id : ids) id = static_cast<std::uint32_t>(rng.below(256));
        if (trial % 2 == 1 && len > 0) ids[rng.below(len)] = 0;
        ASSERT_EQ(level.pair_sum(ids), quadratic_pair_sum(level, ids))
            << "trial " << trial << " c " << c << " length " << len;
      }
    }
  }
}

TEST(PairwiseBitLevel, PairSumOnFullyFixedAndUnfixedLevels) {
  Rng rng(52);
  std::vector<std::uint32_t> ids(200);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::uint32_t>(i * 37 % 1024);
  }
  PairwiseBitLevel fixed(10);
  for (int i = 0; i <= 10; ++i) {
    fixed.fix_bit(i, static_cast<int>(rng.below(2)));
  }
  PairwiseBitLevel unfixed(10);
  for (const std::size_t len : kPairSumLengths) {
    const std::vector<std::uint32_t> list(ids.begin(), ids.begin() + len);
    // All fixed: the count of pairs of ids whose bit is 1.
    double ones = 0.0;
    for (const std::uint32_t id : list) ones += fixed.eval(id);
    EXPECT_EQ(fixed.pair_sum(list), ones * (ones - 1) / 2) << len;
    EXPECT_EQ(fixed.pair_sum(list), quadratic_pair_sum(fixed, list)) << len;
    // Nothing fixed: every pair of distinct ids is jointly uniform.
    EXPECT_EQ(unfixed.pair_sum(list), quadratic_pair_sum(unfixed, list))
        << len;
    const double n = static_cast<double>(len);
    EXPECT_EQ(unfixed.pair_sum(list), 0.25 * (n * (n - 1) / 2)) << len;
  }
}

TEST(PairwiseBitLevel, PairSumOnListsSharingFreeParts) {
  // Ids built from 3 free parts, each OR'ed with random fixed-position bits,
  // so every free part holds many ids of both fixed-part parities. Odd
  // trials fix a low prefix of the coefficients, the seed-fixing engine's
  // order, and also check the list sorted, the order derand_mark passes.
  Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const bool prefix = trial % 2 == 1;
    const int prefix_len = static_cast<int>(rng.below(17));
    for (const int c : {-1, 0, 1}) {
      PairwiseBitLevel level(16);
      std::uint64_t fixed_mask = 0;
      for (int i = 0; i < 16; ++i) {
        if (prefix ? i < prefix_len : rng.below(4) != 0) {
          level.fix_bit(i, static_cast<int>(rng.below(2)));
          fixed_mask |= std::uint64_t{1} << i;
        }
      }
      if (c >= 0) level.fix_bit(16, c);
      const std::uint64_t free_mask = 0xFFFF & ~fixed_mask;
      std::uint64_t free_parts[3];
      for (auto& a : free_parts) a = rng.next() & free_mask;
      for (const std::size_t len : kPairSumLengths) {
        std::vector<std::uint32_t> ids(len);
        for (auto& id : ids) {
          id = static_cast<std::uint32_t>(free_parts[rng.below(3)] |
                                          (rng.next() & fixed_mask));
        }
        ASSERT_EQ(level.pair_sum(ids), quadratic_pair_sum(level, ids))
            << "trial " << trial << " c " << c << " length " << len;
        if (prefix) {
          std::sort(ids.begin(), ids.end());
          ASSERT_EQ(level.pair_sum(ids), quadratic_pair_sum(level, ids))
              << "sorted, trial " << trial << " c " << c << " length " << len;
        }
      }
    }
  }
}

TEST(MarkingFamily, UnconditionalMarkingProbability) {
  const int k = 3;
  MarkingFamily family(16, k);
  for (std::uint64_t v : {0ULL, 5ULL, 15ULL}) {
    EXPECT_DOUBLE_EQ(family.prob_mark(v, k), std::exp2(-k));
    EXPECT_DOUBLE_EQ(family.prob_mark(v, 1), 0.5);
  }
}

TEST(MarkingFamily, PairwiseIndependenceOfMarks) {
  const int k = 2;
  MarkingFamily family(8, k);
  for (std::uint64_t u = 0; u < 8; ++u) {
    for (std::uint64_t v = u + 1; v < 8; ++v) {
      EXPECT_DOUBLE_EQ(family.prob_mark_both(u, k, v, k),
                       std::exp2(-2 * k));
    }
  }
}

TEST(MarkingFamily, TruncatedDepthsJoint) {
  MarkingFamily family(8, 3);
  // depth 1 vs depth 3: shared level contributes 1/4, v's extra two levels
  // contribute 1/2 each.
  EXPECT_DOUBLE_EQ(family.prob_mark_both(1, 1, 2, 3), 0.25 * 0.25);
}

TEST(MarkingFamily, EmpiricalMarkFractionOverSeeds) {
  // Exhaustively average the marking probability over all seeds for a tiny
  // family: ids in [0,4) (2 bits), k = 1 -> 8 seeds.
  const int ids = 4;
  MarkingFamily proto(ids, 1);
  const int seed_bits = proto.total_seed_bits();
  ASSERT_EQ(seed_bits, 3);
  std::vector<int> mark_count(ids, 0);
  for (std::uint32_t seed = 0; seed < (1u << seed_bits); ++seed) {
    MarkingFamily family(ids, 1);
    for (int b = 0; b < seed_bits; ++b) {
      family.fix_global_bit(b, (seed >> b) & 1);
    }
    for (int v = 0; v < ids; ++v) {
      mark_count[v] += family.mark(static_cast<std::uint64_t>(v)) ? 1 : 0;
    }
  }
  for (int v = 0; v < ids; ++v) EXPECT_EQ(mark_count[v], 4);  // 8 seeds * 1/2
}

TEST(MarkingFamily, SeedRoundTrip) {
  MarkingFamily family(16, 2);
  const int bits = family.total_seed_bits();
  for (int b = 0; b < bits; ++b) family.fix_global_bit(b, (b * 7 + 1) % 2);
  ASSERT_TRUE(family.fully_fixed());
  const auto seed = family.seed();
  ASSERT_EQ(static_cast<int>(seed.size()), bits);
  for (int b = 0; b < bits; ++b) EXPECT_EQ(seed[b], (b * 7 + 1) % 2);
}

TEST(MarkingFamily, FixedLevelsCountsPrefix) {
  MarkingFamily family(16, 3);
  EXPECT_EQ(family.fixed_levels(), 0);
  const int per_level = family.id_bits() + 1;
  for (int b = 0; b < per_level; ++b) family.fix_global_bit(b, 0);
  EXPECT_EQ(family.fixed_levels(), 1);
  EXPECT_FALSE(family.fully_fixed());
}

TEST(MarkingFamily, RejectsBadArguments) {
  EXPECT_THROW(MarkingFamily(16, 0), std::invalid_argument);
  MarkingFamily family(16, 1);
  EXPECT_THROW(family.locate(-1), std::out_of_range);
  EXPECT_THROW(family.locate(family.total_seed_bits()), std::out_of_range);
  EXPECT_THROW(family.prob_mark_both(3, 1, 3, 1), std::invalid_argument);
}

TEST(MixHash, DeterministicAndSaltSensitive) {
  EXPECT_EQ(mix_hash(42, 1), mix_hash(42, 1));
  EXPECT_NE(mix_hash(42, 1), mix_hash(42, 2));
  EXPECT_NE(mix_hash(42, 1), mix_hash(43, 1));
}

TEST(MixHash, SpreadsLowBits) {
  // Partitioning quality: consecutive keys should spread across 8 buckets.
  std::vector<int> counts(8, 0);
  for (std::uint64_t x = 0; x < 8000; ++x) counts[mix_hash(x, 5) % 8]++;
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

}  // namespace
}  // namespace rsets
