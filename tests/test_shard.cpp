// Sharded streaming generation: parse errors, shard-union determinism, the
// Kronecker descent against its compare-chain oracle and a golden stream
// pin, out-of-core ingest parity and endpoint rejection,
// sharded-vs-materialized run equivalence, and the cross-shard validator
// (green on correct sources, red on a broken one).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/det_ruling.hpp"
#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "graph/shard/validator.hpp"
#include "mpc/certify.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/fault/fault.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rsets::shard {
namespace {

ShardSpec graph500_spec(std::uint32_t scale = 10, std::uint32_t ef = 8) {
  ShardSpec spec;
  spec.family = ShardFamily::kGraph500;
  spec.scale = scale;
  spec.edgefactor = ef;
  spec.seed = 42;
  return spec;
}

ShardSpec rmat_spec() {
  ShardSpec spec;
  spec.family = ShardFamily::kRmat;
  spec.scale = 10;
  spec.edgefactor = 8;
  spec.a = 0.45;
  spec.b = 0.22;
  spec.c = 0.22;
  spec.seed = 7;
  return spec;
}

ShardSpec geometric_spec() {
  ShardSpec spec;
  spec.family = ShardFamily::kGeometric3d;
  spec.n = 3000;
  spec.radius = 0.05;
  spec.seed = 5;
  return spec;
}

std::vector<ShardSpec> all_family_specs() {
  return {graph500_spec(), rmat_spec(), geometric_spec()};
}

// The multiset of raw edges across all shards, sorted for comparison.
std::vector<std::pair<VertexId, VertexId>> sorted_union(
    const ShardedSource& src) {
  struct Collector : EdgeSink {
    std::vector<std::pair<VertexId, VertexId>> edges;
    void consume(std::span<const Edge> batch) override {
      for (const Edge& e : batch) edges.emplace_back(e.u, e.v);
    }
  } sink;
  for (std::uint32_t s = 0; s < src.num_shards(); ++s) {
    src.stream_shard(s, sink);
  }
  std::sort(sink.edges.begin(), sink.edges.end());
  return sink.edges;
}

// ---------------------------------------------------------------- parsing

TEST(ShardSpecParse, Graph500WithDefaults) {
  const ShardSpec spec = parse_shard_spec("graph500:scale=20", 9);
  EXPECT_EQ(spec.family, ShardFamily::kGraph500);
  EXPECT_EQ(spec.scale, 20u);
  EXPECT_EQ(spec.edgefactor, 16u);  // default
  EXPECT_EQ(spec.seed, 9u);        // default_seed applies
  EXPECT_EQ(spec.num_vertices(), VertexId{1} << 20);
}

TEST(ShardSpecParse, RmatCornerWeights) {
  const ShardSpec spec =
      parse_shard_spec("rmat:scale=12,edgefactor=4,a=0.5,b=0.2,c=0.2,seed=3");
  EXPECT_EQ(spec.family, ShardFamily::kRmat);
  EXPECT_EQ(spec.scale, 12u);
  EXPECT_EQ(spec.edgefactor, 4u);
  EXPECT_DOUBLE_EQ(spec.a, 0.5);
  EXPECT_DOUBLE_EQ(spec.b, 0.2);
  EXPECT_DOUBLE_EQ(spec.c, 0.2);
  EXPECT_EQ(spec.seed, 3u);  // explicit seed wins over default_seed
}

TEST(ShardSpecParse, Geometric3d) {
  const ShardSpec spec =
      parse_shard_spec("geometric3d:n=100000,radius=0.01");
  EXPECT_EQ(spec.family, ShardFamily::kGeometric3d);
  EXPECT_EQ(spec.n, 100000u);
  EXPECT_DOUBLE_EQ(spec.radius, 0.01);
}

TEST(ShardSpecParse, ToStringRoundTrips) {
  for (const ShardSpec& spec : all_family_specs()) {
    const std::string text = spec.to_string();
    const ShardSpec back = parse_shard_spec(text);
    EXPECT_EQ(back.to_string(), text) << text;
    EXPECT_EQ(back.family, spec.family);
    EXPECT_EQ(back.seed, spec.seed);
  }
}

// Malformed specs must carry the kBadFlag taxonomy and point at the failing
// token, matching parse_fault_spec's error reporting.
void expect_bad_flag(const std::string& text, const std::string& fragment) {
  try {
    parse_shard_spec(text);
    FAIL() << "parse_shard_spec accepted: " << text;
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFlag) << text;
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "diagnostic for '" << text << "' was: " << e.what();
  }
}

TEST(ShardSpecParse, RejectsMalformedSpecs) {
  expect_bad_flag("", "empty");
  expect_bad_flag("klein_bottle:scale=4", "family");
  expect_bad_flag("graph500:scale=0", "token 1");
  expect_bad_flag("graph500:scale=35", "token 1");
  expect_bad_flag("graph500:scale=ten", "token 1");
  expect_bad_flag("graph500:scale=8,bogus=1", "token 2");
  expect_bad_flag("rmat:scale=8,a=0.6,b=0.3,c=0.3", "a+b+c");
  expect_bad_flag("rmat:scale=8,a=-0.1", "token 2");
  expect_bad_flag("geometric3d:n=1000", "radius");
  expect_bad_flag("geometric3d:radius=0.1", "n");
  expect_bad_flag("geometric3d:n=1000,radius=1.5", "token 2");
  // Keys from the wrong family are rejected, not silently ignored.
  expect_bad_flag("graph500:scale=8,radius=0.1", "token 2");
}

TEST(ShardSpecParse, BareKroneckerFamilyUsesDefaults) {
  // graph500/rmat have sensible defaults for every key, so the bare family
  // name is a valid spec; geometric3d has no default n/radius and is not.
  const ShardSpec spec = parse_shard_spec("graph500");
  EXPECT_EQ(spec.scale, 16u);
  EXPECT_EQ(spec.edgefactor, 16u);
}

// --------------------------------------------------- shard determinism

TEST(ShardDeterminism, UnionInvariantAcrossShardCounts) {
  for (const ShardSpec& spec : all_family_specs()) {
    const auto one = sorted_union(*make_sharded_source(spec, 1));
    const auto four = sorted_union(*make_sharded_source(spec, 4));
    const auto sixteen = sorted_union(*make_sharded_source(spec, 16));
    EXPECT_EQ(one, four) << spec.to_string();
    EXPECT_EQ(four, sixteen) << spec.to_string();
    EXPECT_FALSE(one.empty()) << spec.to_string();
  }
}

TEST(ShardDeterminism, RestreamingIsDeterministic) {
  const auto src = make_sharded_source(graph500_spec(), 4);
  EXPECT_EQ(sorted_union(*src), sorted_union(*src));
}

TEST(ShardDeterminism, SeedChangesTheUnion) {
  ShardSpec a = graph500_spec();
  ShardSpec b = graph500_spec();
  b.seed = a.seed + 1;
  EXPECT_NE(sorted_union(*make_sharded_source(a, 4)),
            sorted_union(*make_sharded_source(b, 4)));
}

TEST(ShardDeterminism, AdvertisedRawEdgesMatchesStream) {
  for (const ShardSpec& spec : {graph500_spec(), rmat_spec()}) {
    const auto src = make_sharded_source(spec, 4);
    EXPECT_EQ(src->raw_edges(), sorted_union(*src).size()) << spec.to_string();
  }
  // geometric3d is data-dependent and must advertise 0.
  EXPECT_EQ(make_sharded_source(geometric_spec(), 4)->raw_edges(), 0u);
}

// ------------------------------------------------ Kronecker descent oracle

// The reference descent, kept verbatim from the original double-compare
// implementation: edge i draws one uniform per level from its own stream
// and picks the quadrant with a compare chain against a, a+b, a+b+c;
// graph500 then scrambles both endpoints. Shard s of `shards` covers the
// balanced contiguous index range [start(s), start(s+1)).
std::vector<Edge> oracle_kronecker_shard(const ShardSpec& spec,
                                         std::uint32_t shards,
                                         std::uint32_t s) {
  const std::uint64_t total = std::uint64_t{spec.edgefactor} << spec.scale;
  const auto start = [&](std::uint32_t k) {
    return total / shards * k + std::min<std::uint64_t>(k, total % shards);
  };
  const std::uint64_t mask = (std::uint64_t{1} << spec.scale) - 1;
  std::uint64_t sm = spec.seed ^ 0x5ca1ab1edeadbeefULL;
  const std::uint64_t mul0 = splitmix64(sm) | 1;
  const std::uint64_t mul1 = splitmix64(sm) | 1;
  const std::uint32_t shift = std::max<std::uint32_t>(spec.scale / 2, 1);
  const auto scramble = [&](std::uint64_t v) {
    v = (v * mul0) & mask;
    v ^= v >> shift;
    v = (v * mul1) & mask;
    v ^= v >> shift;
    return v;
  };
  const double ab = spec.a + spec.b;
  const double abc = ab + spec.c;
  std::vector<Edge> out;
  for (std::uint64_t i = start(s); i < start(s + 1); ++i) {
    Rng rng = Rng::for_stream(spec.seed, i);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (std::uint32_t level = 0; level < spec.scale; ++level) {
      const double p = rng.uniform();
      const int quadrant = p < spec.a ? 0 : p < ab ? 1 : p < abc ? 2 : 3;
      u = (u << 1) | static_cast<std::uint64_t>(quadrant >> 1);
      v = (v << 1) | static_cast<std::uint64_t>(quadrant & 1);
    }
    if (spec.family == ShardFamily::kGraph500) {
      u = scramble(u);
      v = scramble(v);
    }
    out.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  return out;
}

void expect_descent_matches_oracle(const ShardSpec& spec) {
  for (const std::uint32_t shards : {1u, 3u, 8u}) {
    const auto src = make_sharded_source(spec, shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(collect_shard(*src, s) ==
                  oracle_kronecker_shard(spec, shards, s))
          << spec.to_string() << " a=" << spec.a << " b=" << spec.b
          << " c=" << spec.c << " shard " << s << "/" << shards;
    }
  }
}

ShardSpec rmat_weights(double a, double b, double c, std::uint64_t seed = 3) {
  ShardSpec spec = rmat_spec();
  spec.scale = 8;
  spec.a = a;
  spec.b = b;
  spec.c = c;
  spec.seed = seed;
  return spec;
}

TEST(KroneckerDescent, MatchesDoubleCompareOracle) {
  for (const std::uint32_t scale : {1u, 2u, 7u, 12u}) {
    for (const std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
      ShardSpec g500 = graph500_spec(scale, scale < 3 ? 1 : 8);
      g500.seed = seed;
      expect_descent_matches_oracle(g500);
      ShardSpec rmat = rmat_spec();
      rmat.scale = scale;
      rmat.seed = seed;
      expect_descent_matches_oracle(rmat);
    }
  }
}

TEST(KroneckerDescent, ThresholdEdgeCasesMatchOracle) {
  expect_descent_matches_oracle(rmat_weights(0.0, 0.3, 0.3));    // a = 0
  expect_descent_matches_oracle(rmat_weights(1.0, 0.0, 0.0));    // a = 1
  expect_descent_matches_oracle(rmat_weights(0.5, 0.25, 0.25));  // sum 1
  expect_descent_matches_oracle(rmat_weights(0.57, 0.19, 0.24));
  expect_descent_matches_oracle(rmat_weights(0.0, 0.0, 0.0));    // all d
  expect_descent_matches_oracle(rmat_weights(0.0, 0.0, 1.0));    // all c

  // Weights on the 2^-53 grid placed exactly on real draws: the level-0
  // draws of edges 0, 1 and 2 land on a, a+b and a+b+c respectively, so
  // every threshold sees an exact `p == t` tie.
  for (const std::uint64_t seed : {3ull, 11ull, 1234ull}) {
    std::array<std::uint64_t, 3> k{};
    for (std::uint64_t i = 0; i < 3; ++i) {
      k[i] = Rng::for_stream(seed, i).next() >> 11;
    }
    std::sort(k.begin(), k.end());
    const double a = static_cast<double>(k[0]) * 0x1.0p-53;
    const double b = static_cast<double>(k[1] - k[0]) * 0x1.0p-53;
    const double c = static_cast<double>(k[2] - k[1]) * 0x1.0p-53;
    ASSERT_EQ(a + b, static_cast<double>(k[1]) * 0x1.0p-53);
    ASSERT_EQ(a + b + c, static_cast<double>(k[2]) * 0x1.0p-53);
    expect_descent_matches_oracle(rmat_weights(a, b, c, seed));
    // One grid step either side of each tie.
    expect_descent_matches_oracle(rmat_weights(a + 0x1.0p-53, b, c, seed));
    expect_descent_matches_oracle(rmat_weights(a - 0x1.0p-53, b, c, seed));
  }
  expect_descent_matches_oracle(rmat_weights(0x1.0p-53, 0x1.0p-53, 0.5));

  // Out-of-range weights set directly on the spec (the parser rejects
  // them): negative, above one, non-monotone running sums, NaN, infinity.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_descent_matches_oracle(rmat_weights(-0.5, 1.5, 0.3));
  expect_descent_matches_oracle(rmat_weights(1.5, 0.2, 0.2));
  expect_descent_matches_oracle(rmat_weights(0.6, -0.3, 0.5));
  expect_descent_matches_oracle(rmat_weights(0.3, 0.4, -0.5));
  expect_descent_matches_oracle(rmat_weights(0.7, 0.7, 0.7));
  expect_descent_matches_oracle(rmat_weights(nan, 0.3, 0.3));
  expect_descent_matches_oracle(rmat_weights(0.2, nan, 0.3));
  expect_descent_matches_oracle(rmat_weights(-inf, inf, -inf));
  expect_descent_matches_oracle(rmat_weights(-0.0, 0.25, 0.25));
}

// 64-bit FNV-1a over the emission sequence of every shard in order, each
// endpoint as 4 little-endian bytes.
std::uint64_t stream_fnv(const ShardedSource& src) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](VertexId x) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (x >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::uint32_t s = 0; s < src.num_shards(); ++s) {
    for (const Edge& e : collect_shard(src, s)) {
      mix(e.u);
      mix(e.v);
    }
  }
  return h;
}

// Golden pin on the streamed edge sequence, recorded from the original
// double-compare descent. Kronecker shards are contiguous edge-index
// ranges, so the concatenated sequence (and its hash) is the same at every
// shard count. A descent that changes the generated graph fails here even
// when every downstream invariant still holds.
TEST(KroneckerDescent, GoldenStreamPin) {
  ShardSpec wide = graph500_spec(12, 16);
  wide.seed = 3;
  const std::vector<std::pair<ShardSpec, std::uint64_t>> pins = {
      {graph500_spec(), 0x30f2216b364d5dbbULL},
      {rmat_spec(), 0xc2d8bc0928f3534cULL},
      {wide, 0x0aac244486f56676ULL},
  };
  for (const auto& [spec, want] : pins) {
    for (const std::uint32_t shards : {1u, 3u, 8u}) {
      EXPECT_EQ(stream_fnv(*make_sharded_source(spec, shards)), want)
          << spec.to_string() << " at " << shards << " shards";
    }
  }
}

// --------------------------------------------------------- CSR ingestion

TEST(ShardCsrTest, MatchesMaterializedGraphEveryFamily) {
  for (const ShardSpec& spec : all_family_specs()) {
    const auto src = make_sharded_source(spec, 4);
    EXPECT_TRUE(build_shard_csr(*src) == materialize(spec))
        << spec.to_string();
  }
}

// Also pins the storage rules: a copy of an in-RAM Graph owns its own
// adjacency, copies of a spilled Graph share the mapping, and the mapping
// outlives the Graph it was built for.
TEST(ShardCsrTest, SpilledBuildIsBitIdenticalToRam) {
  const auto src = make_sharded_source(graph500_spec(), 4);
  const Graph ram = build_shard_csr(*src);
  IngestOptions spill;
  spill.spill_dir = ::testing::TempDir();
  spill.evict_stride_edges = 1024;  // exercise mid-build eviction
  auto spilled = std::make_unique<Graph>(build_shard_csr(*src, spill));
  EXPECT_TRUE(*spilled == ram);

  const Graph ram_copy = ram;
  EXPECT_NE(ram_copy.adjacency().data(), ram.adjacency().data());
  const Graph spilled_copy = *spilled;
  Graph assigned;
  assigned = *spilled;
  EXPECT_EQ(spilled_copy.adjacency().data(), spilled->adjacency().data());
  EXPECT_EQ(assigned.adjacency().data(), spilled->adjacency().data());
  spilled.reset();
  EXPECT_TRUE(spilled_copy == ram);
  EXPECT_TRUE(assigned == ram);
  assigned = ram;
  EXPECT_TRUE(assigned == ram);
  EXPECT_NE(assigned.adjacency().data(), ram.adjacency().data());
}

// A source that breaks the range contract: its last shard emits one edge
// with an endpoint >= n after a run of valid edges.
class OutOfRangeSource : public ShardedSource {
 public:
  explicit OutOfRangeSource(Edge bad) : bad_(bad) {}

  const ShardSpec& spec() const override { return spec_; }
  VertexId num_vertices() const override { return kN; }
  std::uint32_t num_shards() const override { return 2; }
  std::uint64_t raw_edges() const override { return 4; }

  void stream_shard(std::uint32_t s, EdgeSink& sink) const override {
    EdgeBatcher batch(sink);
    if (s == 0) {
      batch.push(0, 1);
      batch.push(2, 3);
    } else {
      batch.push(4, 5);
      batch.push(bad_.u, bad_.v);
    }
    batch.flush();
  }

  static constexpr VertexId kN = 16;

 private:
  ShardSpec spec_;
  Edge bad_;
};

TEST(ShardCsrTest, RejectsEndpointOutOfRange) {
  IngestOptions spill;
  spill.spill_dir = ::testing::TempDir();
  const VertexId n = OutOfRangeSource::kN;
  for (const Edge bad : {Edge{n, 0}, Edge{1, n}, Edge{n + 7, n + 7}}) {
    for (const IngestOptions& options : {IngestOptions{}, spill}) {
      try {
        build_shard_csr(OutOfRangeSource(bad), options);
        FAIL() << "accepted endpoint " << std::max(bad.u, bad.v)
               << (options.spill_dir.empty() ? " in RAM" : " spilled");
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kVertexIdOverflow);
      }
    }
  }
}

TEST(ShardCsrTest, ValidateSpillDirRejectsBadPaths) {
  try {
    validate_spill_dir("/nonexistent/definitely/not/a/dir");
    FAIL() << "validate_spill_dir accepted a nonexistent path";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFlag);
    EXPECT_NE(std::string(e.what()).find("--spill-dir"), std::string::npos);
  }
  EXPECT_NO_THROW(validate_spill_dir(::testing::TempDir()));
}

// -------------------------------------- sharded == materialized execution

// The load-bearing equivalence: same algorithm, same config, one run on the
// materialized graph and one on the sharded stream — identical output set
// AND an identical metrics ledger, entry for entry. Nothing downstream of
// the DistGraph constructor may be able to tell the ingestion paths apart.
// The sharded side takes perfbench's path: a DistGraph that ingests the
// source itself, handed to the (Simulator&, DistGraph&) driver overload.
TEST(ShardedExecution, DetRulingMatchesGlobalIngestion) {
  const ShardSpec spec = graph500_spec(10, 8);
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.mpc.num_machines = 4;

  const RulingSetResult global =
      compute_ruling_set(materialize(spec), options);
  const auto src = make_sharded_source(spec, options.mpc.num_machines);
  mpc::Simulator sim(options.mpc);
  mpc::DistGraph dg(sim, *src, IngestOptions{});
  const RulingSetResult sharded = det_ruling_set_mpc(sim, dg);

  EXPECT_EQ(sharded.ruling_set, global.ruling_set);
  EXPECT_EQ(sharded.phases, global.phases);
  EXPECT_EQ(sharded.mark_steps, global.mark_steps);
  EXPECT_EQ(sharded.derand_chunks, global.derand_chunks);
  EXPECT_EQ(sharded.degree_trajectory, global.degree_trajectory);
  EXPECT_TRUE(sharded.metrics == global.metrics)
      << metrics_json(sharded.metrics) << " vs "
      << metrics_json(global.metrics);
}

TEST(ShardedExecution, MisDriversMatchGlobalIngestion) {
  const ShardSpec spec = rmat_spec();
  for (const Algorithm algorithm :
       {Algorithm::kDetLubyMpc, Algorithm::kLubyMpc}) {
    RulingSetOptions options;
    options.algorithm = algorithm;
    options.beta = 1;
    options.mpc.num_machines = 4;
    const RulingSetResult global =
        compute_ruling_set(materialize(spec), options);
    const RulingSetResult sharded = compute_ruling_set(
        build_shard_csr(*make_sharded_source(spec, options.mpc.num_machines)),
        options);
    EXPECT_EQ(sharded.ruling_set, global.ruling_set);
    EXPECT_TRUE(sharded.metrics == global.metrics)
        << metrics_json(sharded.metrics) << " vs "
        << metrics_json(global.metrics);
  }
}

TEST(ShardedExecution, SpilledIngestionSameResult) {
  const ShardSpec spec = graph500_spec(10, 8);
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.mpc.num_machines = 4;
  const auto src = make_sharded_source(spec, options.mpc.num_machines);
  const RulingSetResult ram =
      compute_ruling_set(build_shard_csr(*src), options);
  IngestOptions spill;
  spill.spill_dir = ::testing::TempDir();
  const RulingSetResult spilled =
      compute_ruling_set(build_shard_csr(*src, spill), options);
  EXPECT_EQ(spilled.ruling_set, ram.ruling_set);
  EXPECT_TRUE(spilled.metrics == ram.metrics)
      << metrics_json(spilled.metrics) << " vs " << metrics_json(ram.metrics);
}

// The (source, ingest) certify overload builds its own Graph; it must agree
// with the Graph overload on that Graph and on the materialized one, in RAM
// and spilled, for a valid set and for one with an uncovered region.
TEST(ShardedExecution, CertifyOverloadsAgree) {
  const ShardSpec spec = graph500_spec(10, 8);
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.mpc.num_machines = 4;
  const Graph global = materialize(spec);
  const std::vector<VertexId> valid =
      compute_ruling_set(global, options).ruling_set;
  const std::vector<VertexId> partial(valid.begin(),
                                      valid.begin() + valid.size() / 2);
  const auto src = make_sharded_source(spec, options.mpc.num_machines);
  IngestOptions spill;
  spill.spill_dir = ::testing::TempDir();

  for (const bool full : {true, false}) {
    const std::vector<VertexId>& set = full ? valid : partial;
    const RulingSetCertificate want =
        mpc::certify_ruling_set(global, set, options.beta, options.mpc);
    EXPECT_EQ(want.valid(), full);
    for (const IngestOptions& ingest : {IngestOptions{}, spill}) {
      EXPECT_TRUE(mpc::certify_ruling_set(*src, ingest, set, options.beta,
                                          options.mpc) == want)
          << want.to_string();
      EXPECT_TRUE(mpc::certify_ruling_set(build_shard_csr(*src, ingest), set,
                                          options.beta, options.mpc) == want)
          << want.to_string();
    }
  }
}

// Crash + checkpoint recovery must work when the input was sharded: the
// DistGraph participates in checkpoints identically, so a crashed machine
// recovers and the output matches the fault-free run bit for bit.
TEST(ShardedExecution, CrashRecoveryMatchesFaultFree) {
  const ShardSpec spec = graph500_spec(10, 8);
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.mpc.num_machines = 4;
  const Graph g =
      build_shard_csr(*make_sharded_source(spec, options.mpc.num_machines));
  const RulingSetResult clean = compute_ruling_set(g, options);

  options.mpc.faults = mpc::parse_fault_spec("crash@3:1,seed=11");
  options.mpc.checkpoint_every = 2;
  const RulingSetResult faulty = compute_ruling_set(g, options);

  EXPECT_EQ(faulty.ruling_set, clean.ruling_set);
  EXPECT_GE(faulty.metrics.faults_injected, 1u);
  EXPECT_GE(faulty.metrics.recovery_rounds, 1u);
  EXPECT_GE(faulty.metrics.checkpoints, 1u);
}

// ---------------------------------------------------------------- validator

TEST(ShardValidator, GreenOnEveryFamily) {
  for (const ShardSpec& spec : all_family_specs()) {
    const auto src = make_sharded_source(spec, 4);
    const ShardValidationReport report = validate_sharded_source(*src);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_TRUE(report.cross_checked) << spec.to_string();
    EXPECT_GE(report.shard_counts_probed, 2u);
  }
}

// A source that violates the contract — it silently drops the first edge of
// shard 0 — must be caught, not trusted.
class DropOneSource : public ShardedSource {
 public:
  explicit DropOneSource(std::unique_ptr<ShardedSource> inner)
      : inner_(std::move(inner)) {}

  const ShardSpec& spec() const override { return inner_->spec(); }
  VertexId num_vertices() const override { return inner_->num_vertices(); }
  std::uint32_t num_shards() const override { return inner_->num_shards(); }
  std::uint64_t raw_edges() const override { return inner_->raw_edges(); }

  void stream_shard(std::uint32_t s, EdgeSink& sink) const override {
    if (s != 0) {
      inner_->stream_shard(s, sink);
      return;
    }
    struct Dropper : EdgeSink {
      EdgeSink* out = nullptr;
      bool dropped = false;
      void consume(std::span<const Edge> batch) override {
        if (!dropped && !batch.empty()) {
          dropped = true;
          batch = batch.subspan(1);
        }
        if (!batch.empty()) out->consume(batch);
      }
    } dropper;
    dropper.out = &sink;
    inner_->stream_shard(s, dropper);
  }

 private:
  std::unique_ptr<ShardedSource> inner_;
};

TEST(ShardValidator, CatchesAContractViolation) {
  const DropOneSource broken(make_sharded_source(graph500_spec(), 4));
  const ShardValidationReport report = validate_sharded_source(broken);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.failures.empty());
}

}  // namespace
}  // namespace rsets::shard
