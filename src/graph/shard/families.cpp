// Streaming implementations of the sharded input families.
//
// All three families are counter-based: the k-th unit of work (an edge
// index for the Kronecker/R-MAT descent, a cell index for the geometric
// grid) seeds its own Rng stream, so any contiguous index range can be
// generated independently and the union over ranges never depends on how
// the index space was split. Shards are balanced contiguous ranges.
#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/shard/sharded_source.hpp"
#include "util/rng.hpp"

namespace rsets::shard {
namespace {

// Balanced contiguous split of [0, total) into `shards` ranges: shard s
// covers [start(s), start(s+1)). Avoids the overflowing total*s/shards form.
std::uint64_t range_start(std::uint64_t total, std::uint32_t shards,
                          std::uint32_t s) {
  const std::uint64_t q = total / shards;
  const std::uint64_t r = total % shards;
  return q * s + std::min<std::uint64_t>(s, r);
}

// ---------------------------------------------------------------------------
// Kronecker / R-MAT descent (graph500 and rmat families)
// ---------------------------------------------------------------------------

// Seed-derived bijection on [0, 2^scale): alternating odd-multiply (a
// bijection mod 2^scale) and xor-shift (self-inverse-style mixing, also a
// bijection) steps. graph500 applies it to both endpoints so vertex ids
// carry no trace of the recursive quadrant structure — the streaming
// analogue of the reference implementation's vertex permutation — while
// staying a pure function of (seed, id).
struct Scrambler {
  std::uint64_t mask = 0;
  std::uint64_t mul0 = 1;
  std::uint64_t mul1 = 1;
  std::uint32_t shift = 1;

  static Scrambler make(std::uint32_t scale, std::uint64_t seed) {
    Scrambler s;
    s.mask = (std::uint64_t{1} << scale) - 1;
    std::uint64_t sm = seed ^ 0x5ca1ab1edeadbeefULL;
    s.mul0 = splitmix64(sm) | 1;
    s.mul1 = splitmix64(sm) | 1;
    s.shift = std::max<std::uint32_t>(scale / 2, 1);
    return s;
  }

  std::uint64_t operator()(std::uint64_t v) const {
    v = (v * mul0) & mask;
    v ^= v >> shift;
    v = (v * mul1) & mask;
    v ^= v >> shift;
    return v;
  }
};

// Integer form of `Rng::uniform() < t`. uniform() is exactly k * 2^-53 for
// the 53-bit draw k = next() >> 11, and t * 2^53 is exact in double, so the
// test holds iff k < ceil(t * 2^53). Clamping to [0, 2^53] keeps weights
// outside [0, 1] exact too; NaN, which no draw is below, maps to 0.
std::uint64_t draw_threshold(double t) {
  const double scaled = t * 0x1.0p53;
  if (!(scaled > 0.0)) return 0;
  if (scaled >= 0x1.0p53) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(scaled));
}

class KroneckerSource final : public ShardedSource {
 public:
  KroneckerSource(const ShardSpec& spec, std::uint32_t num_shards)
      : spec_(spec),
        shards_(std::max<std::uint32_t>(num_shards, 1)),
        edges_(std::uint64_t{spec.edgefactor} << spec.scale),
        scramble_(spec.family == ShardFamily::kGraph500),
        scrambler_(Scrambler::make(spec.scale, spec.seed)) {}

  const ShardSpec& spec() const override { return spec_; }
  VertexId num_vertices() const override { return spec_.num_vertices(); }
  std::uint32_t num_shards() const override { return shards_; }
  std::uint64_t raw_edges() const override { return edges_; }

  void stream_shard(std::uint32_t s, EdgeSink& sink) const override {
    if (s >= shards_) {
      throw std::out_of_range("KroneckerSource: shard index out of range");
    }
    const std::uint64_t lo = range_start(edges_, shards_, s);
    const std::uint64_t hi = range_start(edges_, shards_, s + 1);
    // A level's quadrant is the first of a, a+b, a+b+c that its uniform
    // draw is below (3 if none): 0 = (u 0, v 0), 1 = (0, 1), 2 = (1, 0),
    // 3 = (1, 1). As integer thresholds made monotone by a running max (so
    // a band the chain can never reach stays empty), u's bit is k >= t_ab
    // and v's bit is the parity of the thresholds k has reached — no
    // data-dependent branch, and the same draws as the compare chain.
    const std::uint64_t t_a = draw_threshold(spec_.a);
    const std::uint64_t t_ab =
        std::max(t_a, draw_threshold(spec_.a + spec_.b));
    const std::uint64_t t_abc =
        std::max(t_ab, draw_threshold(spec_.a + spec_.b + spec_.c));
    EdgeBatcher batch(sink);
    for (std::uint64_t i = lo; i < hi; ++i) {
      // Edge i is a pure function of (seed, i): its own Rng stream drives
      // one quadrant choice per level.
      Rng rng = Rng::for_stream(spec_.seed, i);
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      for (std::uint32_t level = 0; level < spec_.scale; ++level) {
        const std::uint64_t k = rng.next() >> 11;
        const std::uint64_t ge_ab = k >= t_ab;
        u = (u << 1) | ge_ab;
        v = (v << 1) | (static_cast<std::uint64_t>(k >= t_a) ^ ge_ab ^
                        static_cast<std::uint64_t>(k >= t_abc));
      }
      if (scramble_) {
        u = scrambler_(u);
        v = scrambler_(v);
      }
      batch.push(static_cast<VertexId>(u), static_cast<VertexId>(v));
    }
    batch.flush();
  }

 private:
  ShardSpec spec_;
  std::uint32_t shards_;
  std::uint64_t edges_;
  bool scramble_;
  Scrambler scrambler_;
};

// ---------------------------------------------------------------------------
// 3-D geometric (random points in the unit cube, edges within radius)
// ---------------------------------------------------------------------------

// The unit cube is carved into a grid of cells with side >= radius, so
// every edge is confined to a 27-cell neighborhood. Per-cell point counts
// come from a deterministic recursive binomial split of the n points over
// cell index ranges — each split node (lo, hi) draws from its own keyed
// stream, so counts and prefix offsets are evaluable in O(log #cells) by
// any shard without global state. Point ids are cell-major (prefix + local
// index), and each unordered pair of neighboring cells is generated by the
// shard owning the lower cell index, which partitions the edge set across
// shards for any shard count.
class Geometric3dSource final : public ShardedSource {
 public:
  Geometric3dSource(const ShardSpec& spec, std::uint32_t num_shards)
      : spec_(spec), shards_(std::max<std::uint32_t>(num_shards, 1)) {
    const std::uint32_t by_radius =
        spec_.radius >= 1.0
            ? 1
            : static_cast<std::uint32_t>(std::floor(1.0 / spec_.radius));
    const std::uint32_t by_count = static_cast<std::uint32_t>(std::ceil(
        std::cbrt(static_cast<double>(std::max<std::uint64_t>(spec_.n, 1)))));
    grid_ = std::clamp<std::uint32_t>(std::min(by_radius, by_count), 1, 1024);
    cells_ = std::uint64_t{grid_} * grid_ * grid_;
  }

  const ShardSpec& spec() const override { return spec_; }
  VertexId num_vertices() const override { return spec_.num_vertices(); }
  std::uint32_t num_shards() const override { return shards_; }
  // Edge count depends on the point positions; unknown before streaming.
  std::uint64_t raw_edges() const override { return 0; }

  void stream_shard(std::uint32_t s, EdgeSink& sink) const override {
    if (s >= shards_) {
      throw std::out_of_range("Geometric3dSource: shard index out of range");
    }
    const std::uint64_t cell_lo = range_start(cells_, shards_, s);
    const std::uint64_t cell_hi = range_start(cells_, shards_, s + 1);
    const double r2 = spec_.radius * spec_.radius;
    EdgeBatcher batch(sink);
    std::vector<std::array<double, 3>> mine;
    std::vector<std::array<double, 3>> theirs;
    for (std::uint64_t cell = cell_lo; cell < cell_hi; ++cell) {
      const std::uint64_t count = cell_count(cell);
      if (count == 0) continue;
      const std::uint64_t base = cell_prefix(cell);
      cell_points(cell, count, mine);
      // Within-cell pairs.
      for (std::size_t j = 0; j < mine.size(); ++j) {
        for (std::size_t k = j + 1; k < mine.size(); ++k) {
          if (dist2(mine[j], mine[k]) <= r2) {
            batch.push(static_cast<VertexId>(base + j),
                       static_cast<VertexId>(base + k));
          }
        }
      }
      // Cross-cell pairs: the lower cell index of each neighboring pair
      // owns the pair, so every pair is emitted by exactly one shard.
      const std::uint32_t cx = static_cast<std::uint32_t>(cell % grid_);
      const std::uint32_t cy =
          static_cast<std::uint32_t>((cell / grid_) % grid_);
      const std::uint32_t cz =
          static_cast<std::uint32_t>(cell / (std::uint64_t{grid_} * grid_));
      for (int dz = -1; dz <= 1; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
            const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
            const std::int64_t nz = static_cast<std::int64_t>(cz) + dz;
            if (nx < 0 || ny < 0 || nz < 0 || nx >= grid_ || ny >= grid_ ||
                nz >= grid_) {
              continue;
            }
            const std::uint64_t other =
                (static_cast<std::uint64_t>(nz) * grid_ +
                 static_cast<std::uint64_t>(ny)) *
                    grid_ +
                static_cast<std::uint64_t>(nx);
            if (other <= cell) continue;
            const std::uint64_t other_count = cell_count(other);
            if (other_count == 0) continue;
            const std::uint64_t other_base = cell_prefix(other);
            cell_points(other, other_count, theirs);
            for (std::size_t j = 0; j < mine.size(); ++j) {
              for (std::size_t k = 0; k < theirs.size(); ++k) {
                if (dist2(mine[j], theirs[k]) <= r2) {
                  batch.push(static_cast<VertexId>(base + j),
                             static_cast<VertexId>(other_base + k));
                }
              }
            }
          }
        }
      }
    }
    batch.flush();
  }

 private:
  static double dist2(const std::array<double, 3>& p,
                      const std::array<double, 3>& q) {
    const double dx = p[0] - q[0];
    const double dy = p[1] - q[1];
    const double dz = p[2] - q[2];
    return dx * dx + dy * dy + dz * dz;
  }

  // How many of `count` points over cell range [lo, hi) fall left of `mid`.
  // Keyed by the range so every shard derives the same value; the
  // normal-approximated binomial keeps it O(1) instead of O(count) draws.
  std::uint64_t split_left(std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t mid, std::uint64_t count) const {
    if (count == 0) return 0;
    Rng rng = Rng::for_stream(spec_.seed ^ 0x9e0137a7ULL,
                              lo * (cells_ + 1) + hi);
    const double p = static_cast<double>(mid - lo) /
                     static_cast<double>(hi - lo);
    const double u1 = std::max(rng.uniform(), 1e-12);
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double mean = static_cast<double>(count) * p;
    const double sd =
        std::sqrt(static_cast<double>(count) * p * (1.0 - p));
    double k = std::floor(mean + sd * z + 0.5);
    if (k < 0.0) k = 0.0;
    if (k > static_cast<double>(count)) k = static_cast<double>(count);
    return static_cast<std::uint64_t>(k);
  }

  std::uint64_t cell_count(std::uint64_t cell) const {
    std::uint64_t lo = 0;
    std::uint64_t hi = cells_;
    std::uint64_t count = spec_.n;
    while (hi - lo > 1 && count > 0) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const std::uint64_t left = split_left(lo, hi, mid, count);
      if (cell < mid) {
        hi = mid;
        count = left;
      } else {
        lo = mid;
        count -= left;
      }
    }
    return count;
  }

  // Global id of the first point in `cell` (cell-major point numbering).
  std::uint64_t cell_prefix(std::uint64_t cell) const {
    std::uint64_t lo = 0;
    std::uint64_t hi = cells_;
    std::uint64_t count = spec_.n;
    std::uint64_t prefix = 0;
    while (hi - lo > 1 && count > 0) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const std::uint64_t left = split_left(lo, hi, mid, count);
      if (cell < mid) {
        hi = mid;
        count = left;
      } else {
        lo = mid;
        count -= left;
        prefix += left;
      }
    }
    return prefix;
  }

  void cell_points(std::uint64_t cell, std::uint64_t count,
                   std::vector<std::array<double, 3>>& out) const {
    out.clear();
    out.reserve(count);
    Rng rng = Rng::for_stream(spec_.seed ^ 0x3dce1155ULL, cell);
    const std::uint32_t cx = static_cast<std::uint32_t>(cell % grid_);
    const std::uint32_t cy = static_cast<std::uint32_t>((cell / grid_) % grid_);
    const std::uint32_t cz =
        static_cast<std::uint32_t>(cell / (std::uint64_t{grid_} * grid_));
    const double side = 1.0 / grid_;
    for (std::uint64_t j = 0; j < count; ++j) {
      out.push_back({(cx + rng.uniform()) * side, (cy + rng.uniform()) * side,
                     (cz + rng.uniform()) * side});
    }
  }

  ShardSpec spec_;
  std::uint32_t shards_;
  std::uint32_t grid_ = 1;
  std::uint64_t cells_ = 1;
};

}  // namespace

std::unique_ptr<ShardedSource> make_sharded_source(const ShardSpec& spec,
                                                   std::uint32_t num_shards) {
  switch (spec.family) {
    case ShardFamily::kGraph500:
    case ShardFamily::kRmat:
      return std::make_unique<KroneckerSource>(spec, num_shards);
    case ShardFamily::kGeometric3d:
      return std::make_unique<Geometric3dSource>(spec, num_shards);
  }
  throw std::invalid_argument("make_sharded_source: unknown family");
}

}  // namespace rsets::shard
