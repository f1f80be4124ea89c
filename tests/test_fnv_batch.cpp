// The four-lane batch FNV digest: fnv1a_words_batch must be byte-identical
// to a one-loop reference of the same construction, stay sensitive to every
// single-bit flip, and distinguish streams that plain concatenation would
// conflate.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

std::vector<std::uint64_t> random_words(std::size_t count,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> words(count);
  for (auto& w : words) w = rng.next();
  return words;
}

// The specification of the batch construction: one loop, lane selected by
// index. The unrolled four-chain loop in util/fnv.hpp must match it
// bit-for-bit.
std::uint64_t fnv1a_words_batch_reference(const std::uint64_t* words,
                                          std::size_t count,
                                          std::uint64_t h = kFnvOffsetBasis) {
  std::uint64_t lane[kFnvBatchLanes];
  for (std::size_t j = 0; j < kFnvBatchLanes; ++j) {
    lane[j] = fnv1a_word(h, j);
  }
  for (std::size_t i = 0; i < count; ++i) {
    lane[i % kFnvBatchLanes] = fnv1a_word(lane[i % kFnvBatchLanes], words[i]);
  }
  std::uint64_t out = h;
  for (std::size_t j = 0; j < kFnvBatchLanes; ++j) {
    out = fnv1a_word(out, lane[j]);
  }
  return fnv1a_word(out, count);
}

// The load-bearing assertion: the batch loop and the one-lane-per-index
// reference agree on every length, including the 0..3 tail cases and
// lengths around the unroll width.
TEST(FnvBatch, EveryTargetMatchesReferenceAtEveryLength) {
  for (std::size_t count = 0; count <= 67; ++count) {
    const auto words = random_words(count, 0x1234 + count);
    EXPECT_EQ(fnv1a_words_batch(words.data(), count),
              fnv1a_words_batch_reference(words.data(), count))
        << "length " << count;
  }
  // A batch comparable to a real message arena.
  const auto big = random_words(100000, 99);
  EXPECT_EQ(fnv1a_words_batch(big.data(), big.size()),
            fnv1a_words_batch_reference(big.data(), big.size()));
}

TEST(FnvBatch, EveryTargetMatchesReferenceOnChainedState) {
  const auto words = random_words(37, 7);
  for (const std::uint64_t h : {std::uint64_t{0}, kFnvOffsetBasis,
                                std::uint64_t{0xdeadbeefcafef00d}}) {
    EXPECT_EQ(fnv1a_words_batch(words.data(), words.size(), h),
              fnv1a_words_batch_reference(words.data(), words.size(), h))
        << "prefix state " << h;
  }
}

TEST(FnvBatch, DetectsEverySingleBitFlip) {
  const auto words = random_words(9, 3);  // covers all four lanes + tail
  const std::uint64_t clean = fnv1a_words_batch(words.data(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      auto rotten = words;
      rotten[i] ^= std::uint64_t{1} << bit;
      EXPECT_NE(fnv1a_words_batch(rotten.data(), rotten.size()), clean)
          << "flip word " << i << " bit " << bit;
    }
  }
}

TEST(FnvBatch, LengthIsPartOfTheDigest) {
  // A stream and its zero-extended version must not collide (the count is
  // absorbed after the lane fold), and neither must the empty stream equal
  // the raw prefix state.
  std::vector<std::uint64_t> words = {1, 2, 3};
  const std::uint64_t three = fnv1a_words_batch(words.data(), 3);
  words.push_back(0);
  EXPECT_NE(fnv1a_words_batch(words.data(), 4), three);
  EXPECT_NE(fnv1a_words_batch(nullptr, 0), kFnvOffsetBasis);
}

TEST(FnvBatch, OrderSensitive) {
  const std::uint64_t a[] = {1, 2, 3, 4, 5};
  const std::uint64_t b[] = {2, 1, 3, 4, 5};  // swap within lane stride
  const std::uint64_t c[] = {5, 2, 3, 4, 1};  // swap across lanes
  EXPECT_NE(fnv1a_words_batch(a, 5), fnv1a_words_batch(b, 5));
  EXPECT_NE(fnv1a_words_batch(a, 5), fnv1a_words_batch(c, 5));
}

}  // namespace
}  // namespace rsets
