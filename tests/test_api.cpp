#include "core/ruling_set.hpp"

#include <gtest/gtest.h>

#include "congest/aglp_ruling.hpp"
#include "congest/beta_ruling_congest.hpp"
#include "congest/coloring_mis.hpp"
#include "congest/det_ruling_congest.hpp"
#include "congest/luby_congest.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"

namespace rsets {
namespace {

TEST(Api, AlgorithmNames) {
  EXPECT_EQ(algorithm_name(Algorithm::kGreedySequential), "greedy");
  EXPECT_EQ(algorithm_name(Algorithm::kLubyMpc), "luby_mpc");
  EXPECT_EQ(algorithm_name(Algorithm::kDetLubyMpc), "det_luby_mpc");
  EXPECT_EQ(algorithm_name(Algorithm::kSampleGatherMpc), "sample_gather_mpc");
  EXPECT_EQ(algorithm_name(Algorithm::kDetRulingMpc), "det_ruling_mpc");
  EXPECT_EQ(algorithm_name(Algorithm::kLubyCongest), "luby_congest");
  EXPECT_EQ(algorithm_name(Algorithm::kAglpCongest), "aglp_congest");
  EXPECT_EQ(algorithm_name(Algorithm::kDetRulingCongest),
            "det_ruling_congest");
  EXPECT_EQ(algorithm_name(Algorithm::kColoringMisCongest),
            "coloring_mis_congest");
  EXPECT_EQ(algorithm_name(Algorithm::kBetaRulingCongest),
            "beta_ruling_congest");
}

TEST(Api, RegistryCoversEveryAlgorithmExactlyOnce) {
  const auto& registry = algorithm_registry();
  EXPECT_EQ(registry.size(), 10u);
  for (const AlgorithmInfo& info : registry) {
    // Round trips: enum -> info -> name -> enum.
    EXPECT_EQ(algorithm_info(info.algorithm).name, info.name);
    const auto parsed = algorithm_from_name(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.algorithm);
    EXPECT_FALSE(info.summary.empty());
    EXPECT_GE(info.min_beta, 1u);
  }
  EXPECT_EQ(algorithm_names().size(), registry.size());
}

TEST(Api, AlgorithmFromNameRejectsRetiredAliases) {
  EXPECT_EQ(algorithm_from_name("congest_luby"), std::nullopt);
  EXPECT_EQ(algorithm_from_name("congest_det2"), std::nullopt);
  EXPECT_EQ(algorithm_from_name("congest_beta"), std::nullopt);
  EXPECT_EQ(algorithm_from_name("congest_aglp"), std::nullopt);
  EXPECT_EQ(algorithm_from_name("no_such_algorithm"), std::nullopt);
  EXPECT_EQ(algorithm_from_name(""), std::nullopt);
}

TEST(Api, DispatcherRunsEveryAlgorithm) {
  const Graph g = gen::gnp(120, 0.05, 9);
  for (const AlgorithmInfo& info : algorithm_registry()) {
    RulingSetOptions options;
    options.algorithm = info.algorithm;
    options.beta = info.min_beta;
    const auto result = compute_ruling_set(g, options);
    // AGLP promises its own radius (ceil(log2 n)); everyone else must
    // deliver the requested beta.
    const std::uint32_t beta =
        info.algorithm == Algorithm::kAglpCongest ? result.beta
                                                  : info.min_beta;
    EXPECT_TRUE(is_beta_ruling_set(g, result.ruling_set, beta)) << info.name;
    EXPECT_EQ(result.beta, beta) << info.name;
    if (info.deterministic) {
      EXPECT_EQ(result.metrics.random_words, 0u) << info.name;
      EXPECT_EQ(result.congest_metrics.random_words, 0u) << info.name;
    }
    if (info.model == Model::kCongest) {
      EXPECT_GT(result.congest_metrics.rounds, 0u) << info.name;
      EXPECT_EQ(result.metrics.rounds, 0u) << info.name;
    } else if (info.model == Model::kMpc) {
      EXPECT_GT(result.metrics.rounds, 0u) << info.name;
      EXPECT_EQ(result.congest_metrics.rounds, 0u) << info.name;
    }
  }
}

TEST(Api, CongestAlgorithmsRejectBadBeta) {
  const Graph g = gen::path(10);
  RulingSetOptions options;
  options.algorithm = Algorithm::kLubyCongest;
  options.beta = 2;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kColoringMisCongest;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kDetRulingCongest;
  options.beta = 1;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kDetRulingCongest;
  options.beta = 3;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kBetaRulingCongest;
  options.beta = 0;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  // Any beta >= 1 is fine for beta_ruling_congest.
  options.beta = 3;
  EXPECT_NO_THROW(compute_ruling_set(g, options));
}

TEST(Api, ColoringAlgorithmsExposeTheColoring) {
  const Graph g = gen::grid(12, 12);
  RulingSetOptions options;
  options.algorithm = Algorithm::kColoringMisCongest;
  options.beta = 1;
  const auto result = compute_ruling_set(g, options);
  ASSERT_EQ(result.colors.size(), g.num_vertices());
  for (const Edge& e : g.edges()) {
    EXPECT_NE(result.colors[e.u], result.colors[e.v]);
  }
  EXPECT_GT(result.palette_size, 0u);
  EXPECT_GT(result.phases, 0u);  // Linial steps
}

// The CONGEST algorithms are reachable both through their canonical entry
// points and the unified dispatcher, and the two agree. (The deprecated
// pre-unification wrappers completed their one-release window and are gone.)
TEST(Api, CongestEntryPointsMatchDispatcher) {
  const Graph g = gen::cycle(60);

  RulingSetOptions options;
  options.algorithm = Algorithm::kLubyCongest;
  options.beta = 1;
  EXPECT_EQ(congest::luby_mis_congest(g).congest_metrics.rounds,
            compute_ruling_set(g, options).congest_metrics.rounds);

  options.algorithm = Algorithm::kDetRulingCongest;
  options.beta = 2;
  EXPECT_EQ(congest::det_2ruling_set_congest(g).ruling_set,
            compute_ruling_set(g, options).ruling_set);

  options.algorithm = Algorithm::kColoringMisCongest;
  options.beta = 1;
  EXPECT_EQ(congest::coloring_mis_congest(g).palette_size,
            compute_ruling_set(g, options).palette_size);

  options.algorithm = Algorithm::kBetaRulingCongest;
  options.beta = 2;
  EXPECT_EQ(congest::beta_ruling_set_congest(g, 2).ruling_set,
            compute_ruling_set(g, options).ruling_set);

  options.algorithm = Algorithm::kAglpCongest;
  options.beta = 1;
  EXPECT_EQ(congest::aglp_ruling_set_congest(g).beta,
            compute_ruling_set(g, options).beta);
}

TEST(Api, DefaultOptionsComputeDeterministicTwoRuling) {
  const Graph g = gen::gnp(200, 0.04, 5);
  const auto result = compute_ruling_set(g, {});
  EXPECT_TRUE(is_beta_ruling_set(g, result.ruling_set, 2));
  EXPECT_EQ(result.beta, 2u);
  EXPECT_EQ(result.metrics.random_words, 0u);
}

TEST(Api, RejectsBadBetaCombinations) {
  const Graph g = gen::path(10);
  RulingSetOptions options;
  options.algorithm = Algorithm::kLubyMpc;
  options.beta = 2;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kDetLubyMpc;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kSampleGatherMpc;
  options.beta = 3;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 1;
  EXPECT_THROW(compute_ruling_set(g, options), std::invalid_argument);
}

TEST(Api, GreedyIgnoresMpcConfig) {
  const Graph g = gen::cycle(30);
  RulingSetOptions options;
  options.algorithm = Algorithm::kGreedySequential;
  options.beta = 2;
  options.mpc.memory_words = 1;  // would be fatal for an MPC algorithm
  const auto result = compute_ruling_set(g, options);
  EXPECT_TRUE(is_beta_ruling_set(g, result.ruling_set, 2));
  EXPECT_EQ(result.metrics.rounds, 0u);
}

TEST(Api, OptionsArePlumbedThrough) {
  const Graph g = gen::gnp(300, 0.05, 7);
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.chunk_bits = 2;
  options.gather_budget_words = 2048;  // force derandomized phases to run
  options.mpc.memory_words = 1 << 22;
  const auto narrow = compute_ruling_set(g, options);
  options.chunk_bits = 8;
  const auto wide = compute_ruling_set(g, options);
  // Narrower chunks => more chunks for the same seed bits.
  EXPECT_GT(narrow.derand_chunks, wide.derand_chunks);
  EXPECT_TRUE(is_beta_ruling_set(g, narrow.ruling_set, 2));
  EXPECT_TRUE(is_beta_ruling_set(g, wide.ruling_set, 2));
}

}  // namespace
}  // namespace rsets
