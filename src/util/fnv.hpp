// FNV-1a fingerprints for the integrity layer.
//
// Every byte the MPC substrate trusts across a failure domain — message
// payloads crossing the simulated transport, checkpoint images crossing a
// disk write — is covered by a 64-bit FNV-1a digest. FNV-1a is not a
// cryptographic hash; it is a fast, dependency-free detector for the fault
// model we simulate (seeded bit flips, torn writes): the multiply by an odd
// prime is a bijection on 64-bit words, so any single-bit flip inside one
// absorbed word always changes the digest, and multi-bit corruption escapes
// only with probability ~2^-64.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rsets {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

// Absorbs one 64-bit word (word-granular variant used for message payloads,
// where flips are modelled at word resolution).
inline constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                          std::uint64_t word) {
  return (h ^ word) * kFnvPrime;
}

// Byte-granular digest used for whole checkpoint images.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                                 std::uint64_t h = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

// Batch digest over a word array: four independent FNV-1a lanes absorb the
// stream strided (lane j takes words j, j+4, j+8, ...), then the lane
// digests and the word count are folded into the running state. The lanes
// carry no sequential dependence on each other, so the hot loop sustains
// four multiplies in flight instead of one — a different (fixed, versioned)
// construction from sequential FNV-1a, with the same per-word bijection and
// therefore the same single-bit-flip sensitivity. Seeding each lane with
// fnv1a_word(h, lane index) makes the lanes distinct and chains the caller's
// prefix state; absorbing `count` at the end separates a short stream from
// its zero-padded extension.
inline constexpr std::size_t kFnvBatchLanes = 4;

// The main loop retires four words per iteration on four independent
// multiply chains; the <= 3 leftover words land on lanes 0..2 because the
// loop always leaves `i` a multiple of 4. Keep it a plain scalar loop: SSE2
// and AVX2 versions measured 2.5-3.2x slower per word on x86 (DESIGN.md
// §4.6). Lacking a 64-bit vector multiply, each vector step is a long
// pmuludq/shift/add sequence, and with the lanes packed in one register
// that sequence is a single dependence chain.
inline std::uint64_t fnv1a_words_batch(const std::uint64_t* words,
                                       std::size_t count,
                                       std::uint64_t h = kFnvOffsetBasis) {
  std::uint64_t l0 = fnv1a_word(h, 0);
  std::uint64_t l1 = fnv1a_word(h, 1);
  std::uint64_t l2 = fnv1a_word(h, 2);
  std::uint64_t l3 = fnv1a_word(h, 3);
  std::size_t i = 0;
  for (; i + kFnvBatchLanes <= count; i += kFnvBatchLanes) {
    l0 = fnv1a_word(l0, words[i]);
    l1 = fnv1a_word(l1, words[i + 1]);
    l2 = fnv1a_word(l2, words[i + 2]);
    l3 = fnv1a_word(l3, words[i + 3]);
  }
  if (i < count) l0 = fnv1a_word(l0, words[i]);
  if (i + 1 < count) l1 = fnv1a_word(l1, words[i + 1]);
  if (i + 2 < count) l2 = fnv1a_word(l2, words[i + 2]);
  std::uint64_t out = h;
  out = fnv1a_word(out, l0);
  out = fnv1a_word(out, l1);
  out = fnv1a_word(out, l2);
  out = fnv1a_word(out, l3);
  return fnv1a_word(out, count);
}

}  // namespace rsets
