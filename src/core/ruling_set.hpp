// Public API of the ruling-set library.
//
// A beta-ruling set of G is an independent set R such that every vertex of G
// is within beta hops of R. This header exposes every algorithm in the
// library — MPC, CONGEST, and sequential — behind one options/result pair
// plus a convenience dispatcher and a name registry; algorithm-specific
// entry points live in their own headers (det_ruling.hpp, luby.hpp,
// sample_gather.hpp, det_luby.hpp, greedy.hpp, congest/*.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "congest/congest.hpp"
#include "graph/graph.hpp"
#include "mpc/message.hpp"

namespace rsets {

enum class Algorithm {
  kGreedySequential,   // lexicographic greedy (ground truth; not MPC)
  kLubyMpc,            // randomized Luby MIS in MPC, O(log n) rounds
  kDetLubyMpc,         // derandomized Luby MIS in MPC, deterministic
  kSampleGatherMpc,    // randomized sample-and-gather 2-ruling set
  kDetRulingMpc,       // deterministic ruling set (the paper's algorithm)
  kLubyCongest,        // randomized Luby MIS in CONGEST
  kAglpCongest,        // deterministic AGLP bitwise elimination in CONGEST
  kDetRulingCongest,   // deterministic 2-ruling via coloring in CONGEST
  kColoringMisCongest, // deterministic Linial coloring + greedy MIS
  kBetaRulingCongest,  // randomized distance-beta Luby in CONGEST
};

// Which simulator an algorithm runs on (decides which metrics/config fields
// of the options/result pair are meaningful).
enum class Model {
  kSequential,
  kMpc,
  kCongest,
};

// One registry row per Algorithm value.
struct AlgorithmInfo {
  Algorithm algorithm;
  std::string_view name;      // canonical CLI/bench name
  Model model;
  bool deterministic;         // zero random words drawn
  // Beta values the dispatcher accepts: [min_beta, max_beta]. max_beta == 0
  // means "any beta >= min_beta"; fixed_beta algorithms have min == max.
  std::uint32_t min_beta;
  std::uint32_t max_beta;
  std::string_view summary;   // one-line description for --help
};

// All algorithms, in Algorithm enum order.
const std::vector<AlgorithmInfo>& algorithm_registry();

// Registry row for one algorithm.
const AlgorithmInfo& algorithm_info(Algorithm a);

// Canonical name (stable across releases; used by CLI and benches).
std::string algorithm_name(Algorithm a);

// Parses a canonical name; std::nullopt if unknown.
std::optional<Algorithm> algorithm_from_name(std::string_view name);

// Canonical names, in Algorithm enum order (for --help and error messages).
std::vector<std::string_view> algorithm_names();

// Throws std::invalid_argument unless beta is in [info.min_beta,
// info.max_beta] (max_beta == 0: no upper bound). compute_ruling_set calls
// it; rsets_cli --sharded calls it before streaming any shard.
void check_beta(const AlgorithmInfo& info, std::uint32_t beta);

struct RulingSetOptions {
  Algorithm algorithm = Algorithm::kDetRulingMpc;
  std::uint32_t beta = 2;

  // MPC configuration (ignored by sequential and CONGEST algorithms).
  mpc::MpcConfig mpc;

  // CONGEST configuration (ignored by sequential and MPC algorithms).
  congest::CongestConfig congest;

  // Gather budget in words for sample/mark subgraphs; 0 means 32 * n
  // (the near-linear-memory regime). Must be <= mpc.memory_words.
  std::uint64_t gather_budget_words = 0;

  // Seed bits decided per derandomization chunk (deterministic algorithms).
  int chunk_bits = 4;

  // Safety cap on derandomized marking repetitions within one phase; the
  // loop normally exits because no high-degree target remains.
  int max_mark_steps_per_phase = 200;
};

struct RulingSetResult {
  std::vector<VertexId> ruling_set;
  std::uint32_t beta = 0;  // guarantee the algorithm promises

  // MPC accounting (zeroed for sequential and CONGEST algorithms).
  mpc::MpcMetrics metrics;

  // CONGEST accounting (zeroed for sequential and MPC algorithms).
  congest::CongestMetrics congest_metrics;

  // Phase structure of the phase-based algorithms (empty otherwise): MPC
  // degree-reduction phases, Luby/beta-Luby iterations, Linial steps, or
  // AGLP bit levels.
  std::uint64_t phases = 0;
  std::uint64_t mark_steps = 0;    // derandomized marking invocations
  std::uint64_t derand_chunks = 0; // conditional-expectation chunks spent
  std::vector<std::uint32_t> degree_trajectory;  // max active degree/phase

  // Coloring-driven CONGEST algorithms only: the proper coloring computed
  // on the way (empty otherwise) and its palette-size bound.
  std::vector<std::uint32_t> colors;
  std::uint32_t palette_size = 0;
};

// Runs the selected algorithm. Throws std::invalid_argument for unsupported
// (algorithm, beta) combinations — see AlgorithmInfo::{min,max}_beta: the
// MIS algorithms require beta == 1, the 2-ruling machinery beta >= 2 (MPC)
// or == 2 (CONGEST), beta_ruling_congest any beta >= 1, and aglp_congest
// ignores the requested beta (its guarantee is ceil(log2 n), reported in
// RulingSetResult::beta). A sharded input runs through this same call, on
// the Graph shard::build_shard_csr returns (in RAM or spilled).
RulingSetResult compute_ruling_set(const Graph& g,
                                   const RulingSetOptions& options);

}  // namespace rsets
