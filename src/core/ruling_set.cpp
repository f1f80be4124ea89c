#include "core/ruling_set.hpp"

#include <stdexcept>

#include "congest/aglp_ruling.hpp"
#include "congest/beta_ruling_congest.hpp"
#include "congest/coloring_mis.hpp"
#include "congest/det_ruling_congest.hpp"
#include "congest/luby_congest.hpp"
#include "core/det_luby.hpp"
#include "core/det_ruling.hpp"
#include "core/greedy.hpp"
#include "core/luby.hpp"
#include "core/sample_gather.hpp"

namespace rsets {
namespace {

// max_beta == 0 means "any beta >= min_beta" (see AlgorithmInfo).
constexpr std::uint32_t kAnyBeta = 0;

}  // namespace

void check_beta(const AlgorithmInfo& info, std::uint32_t beta) {
  const bool ok = beta >= info.min_beta &&
                  (info.max_beta == kAnyBeta || beta <= info.max_beta);
  if (ok) return;
  std::string expect;
  if (info.max_beta == kAnyBeta) {
    expect = "beta >= " + std::to_string(info.min_beta);
  } else if (info.min_beta == info.max_beta) {
    expect = "beta == " + std::to_string(info.min_beta);
  } else {
    expect = "beta in [" + std::to_string(info.min_beta) + ", " +
             std::to_string(info.max_beta) + "]";
  }
  throw std::invalid_argument(std::string(info.name) + " requires " + expect +
                              ", got beta = " + std::to_string(beta));
}

const std::vector<AlgorithmInfo>& algorithm_registry() {
  static const std::vector<AlgorithmInfo> registry = {
      {Algorithm::kGreedySequential, "greedy", Model::kSequential,
       /*deterministic=*/true, 1, kAnyBeta,
       "lexicographic greedy (sequential ground truth)"},
      {Algorithm::kLubyMpc, "luby_mpc", Model::kMpc,
       /*deterministic=*/false, 1, 1,
       "randomized Luby MIS in MPC, O(log n) rounds"},
      {Algorithm::kDetLubyMpc, "det_luby_mpc", Model::kMpc,
       /*deterministic=*/true, 1, 1,
       "derandomized Luby MIS in MPC (conditional expectations)"},
      {Algorithm::kSampleGatherMpc, "sample_gather_mpc", Model::kMpc,
       /*deterministic=*/false, 2, 2,
       "randomized sample-and-gather 2-ruling set in MPC"},
      {Algorithm::kDetRulingMpc, "det_ruling_mpc", Model::kMpc,
       /*deterministic=*/true, 2, kAnyBeta,
       "deterministic ruling set in MPC (the paper's algorithm)"},
      {Algorithm::kLubyCongest, "luby_congest", Model::kCongest,
       /*deterministic=*/false, 1, 1,
       "randomized Luby MIS in CONGEST"},
      {Algorithm::kAglpCongest, "aglp_congest", Model::kCongest,
       /*deterministic=*/true, 1, kAnyBeta,
       "AGLP bitwise elimination; guarantees beta = ceil(log2 n)"},
      {Algorithm::kDetRulingCongest, "det_ruling_congest", Model::kCongest,
       /*deterministic=*/true, 2, 2,
       "deterministic 2-ruling set in CONGEST (Linial coloring + greedy)"},
      {Algorithm::kColoringMisCongest, "coloring_mis_congest",
       Model::kCongest, /*deterministic=*/true, 1, 1,
       "deterministic MIS in CONGEST (Linial coloring + color greedy)"},
      {Algorithm::kBetaRulingCongest, "beta_ruling_congest", Model::kCongest,
       /*deterministic=*/false, 1, kAnyBeta,
       "randomized distance-beta Luby beta-ruling set in CONGEST"},
  };
  return registry;
}

const AlgorithmInfo& algorithm_info(Algorithm a) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.algorithm == a) return info;
  }
  throw std::invalid_argument("algorithm_info: unknown algorithm");
}

std::string algorithm_name(Algorithm a) {
  return std::string(algorithm_info(a).name);
}

std::optional<Algorithm> algorithm_from_name(std::string_view name) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.name == name) return info.algorithm;
  }
  return std::nullopt;
}

std::vector<std::string_view> algorithm_names() {
  std::vector<std::string_view> names;
  names.reserve(algorithm_registry().size());
  for (const AlgorithmInfo& info : algorithm_registry()) {
    names.push_back(info.name);
  }
  return names;
}

RulingSetResult compute_ruling_set(const Graph& g,
                                   const RulingSetOptions& options) {
  const AlgorithmInfo& info = algorithm_info(options.algorithm);
  // AGLP's radius guarantee is a function of n, not a request; every other
  // algorithm validates the requested beta against its supported range.
  if (options.algorithm != Algorithm::kAglpCongest) {
    check_beta(info, options.beta);
  }
  switch (options.algorithm) {
    case Algorithm::kGreedySequential: {
      RulingSetResult result;
      result.ruling_set = greedy_ruling_set(g, options.beta);
      result.beta = options.beta;
      return result;
    }
    case Algorithm::kLubyMpc:
      return luby_mis_mpc(g, options.mpc);
    case Algorithm::kDetLubyMpc: {
      DetLubyOptions det;
      det.chunk_bits = options.chunk_bits;
      return det_luby_mis_mpc(g, options.mpc, det);
    }
    case Algorithm::kSampleGatherMpc: {
      SampleGatherOptions sg;
      sg.gather_budget_words = options.gather_budget_words;
      return sample_gather_2ruling(g, options.mpc, sg);
    }
    case Algorithm::kDetRulingMpc: {
      DetRulingOptions det;
      det.beta = options.beta;
      det.gather_budget_words = options.gather_budget_words;
      det.chunk_bits = options.chunk_bits;
      det.max_mark_steps_per_phase = options.max_mark_steps_per_phase;
      return det_ruling_set_mpc(g, options.mpc, det);
    }
    case Algorithm::kLubyCongest:
      return congest::luby_mis_congest(g, options.congest);
    case Algorithm::kAglpCongest:
      return congest::aglp_ruling_set_congest(g, options.congest);
    case Algorithm::kDetRulingCongest:
      return congest::det_2ruling_set_congest(g, options.congest);
    case Algorithm::kColoringMisCongest:
      return congest::coloring_mis_congest(g, options.congest);
    case Algorithm::kBetaRulingCongest:
      return congest::beta_ruling_set_congest(g, options.beta,
                                              options.congest);
  }
  throw std::invalid_argument("compute_ruling_set: unknown algorithm");
}

}  // namespace rsets
