// Degrade-mode parity and straggler-deadline speculation.
//
// The contract under BudgetPolicy::kDegrade: a run whose rounds exceed the
// per-machine memory/bandwidth budget produces a ruling set bit-identical
// to the unconstrained run, pays for the overflow in extra (sub-)rounds,
// attributes them in both MpcMetrics::degraded_subrounds and the per-round
// trace, and records zero violations. Deadlines are orthogonal: a missed
// round deadline triggers a checkpointed speculative re-execution that must
// also leave the output untouched.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "mpc/trace.hpp"
#include "util/error.hpp"

namespace rsets {
namespace {

std::vector<Algorithm> mpc_algorithms() {
  std::vector<Algorithm> out;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model == Model::kMpc) out.push_back(info.algorithm);
  }
  return out;
}

constexpr std::uint64_t kTightBudget = 1u << 9;   // forces spill waves
constexpr std::uint64_t kRoomyBudget = 1u << 22;  // never binds

RulingSetOptions options_for(Algorithm a) {
  RulingSetOptions options;
  options.algorithm = a;
  options.beta = algorithm_info(a).min_beta;
  options.mpc.num_machines = 4;
  options.mpc.seed = 21;
  // The gather budget is clamped to memory_words, so pin it to the tight
  // budget in BOTH runs: degrade parity compares identical algorithm
  // trajectories under different accounting, not different gather sizes.
  options.gather_budget_words = kTightBudget;
  return options;
}

TEST(Degrade, BitIdenticalToUnconstrainedRunOnEveryMpcAlgorithm) {
  const Graph g = gen::gnp(300, 0.03, 5);
  for (const Algorithm a : mpc_algorithms()) {
    RulingSetOptions reference = options_for(a);
    reference.mpc.budget_policy = mpc::BudgetPolicy::kTrace;
    reference.mpc.memory_words = kRoomyBudget;
    const RulingSetResult want = compute_ruling_set(g, reference);

    RulingSetOptions constrained = options_for(a);
    constrained.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
    constrained.mpc.memory_words = kTightBudget;
    std::uint64_t traced_subrounds = 0;
    constrained.mpc.trace_hook = [&](const mpc::RoundTrace& trace) {
      traced_subrounds += trace.degraded_subrounds;
    };
    const RulingSetResult got = compute_ruling_set(g, constrained);

    const std::string name = algorithm_name(a);
    EXPECT_EQ(got.ruling_set, want.ruling_set) << name;
    EXPECT_GT(got.metrics.degraded_subrounds, 0u) << name;
    EXPECT_EQ(got.metrics.degraded_subrounds, traced_subrounds) << name;
    EXPECT_EQ(got.metrics.violations, 0u) << name;
    // The spill waves are charged as real rounds.
    EXPECT_EQ(got.metrics.rounds,
              want.metrics.rounds + got.metrics.degraded_subrounds)
        << name;
  }
}

TEST(Degrade, StrictAbortsWhereDegradeCompletes) {
  const Graph g = gen::gnp(300, 0.03, 5);
  for (const Algorithm a : mpc_algorithms()) {
    RulingSetOptions strict = options_for(a);
    strict.mpc.budget_policy = mpc::BudgetPolicy::kStrict;
    strict.mpc.memory_words = kTightBudget;
    EXPECT_THROW(compute_ruling_set(g, strict), mpc::MpcViolation)
        << algorithm_name(a);

    RulingSetOptions degrade = options_for(a);
    degrade.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
    degrade.mpc.memory_words = kTightBudget;
    EXPECT_NO_THROW(compute_ruling_set(g, degrade)) << algorithm_name(a);
  }
}

// The E1 configuration (gnp n=800, avg_deg 8, seed 3, 8 machines, gather
// budget pinned to the tight budget), built from a RunSpec exactly as
// rsets_cli builds it: a strict run at the default roomy memory, a degraded
// run at the tight budget that must match it bit for bit, and a strict run
// at the tight budget that must abort — so the budget really binds.
TEST(Degrade, E1ConfigurationMatchesStrictOnEveryMpcAlgorithm) {
  for (const Algorithm a : mpc_algorithms()) {
    RunSpec spec;
    spec.algorithm = algorithm_name(a);
    spec.beta = algorithm_info(a).min_beta;
    spec.gen = "gnp";
    spec.n = 800;
    spec.avg_deg = 8.0;
    spec.seed = 3;
    spec.machines = 8;
    spec.budget = kTightBudget;
    const Graph g = build_graph(spec);
    const RulingSetResult roomy =
        compute_ruling_set(g, options_from_spec(spec));

    spec.memory_words = kTightBudget;
    EXPECT_THROW(compute_ruling_set(g, options_from_spec(spec)),
                 mpc::MpcViolation)
        << spec.algorithm;
    spec.budget_policy = "degrade";
    const RulingSetResult degraded =
        compute_ruling_set(g, options_from_spec(spec));
    EXPECT_EQ(degraded.ruling_set, roomy.ruling_set) << spec.algorithm;
    EXPECT_GT(degraded.metrics.degraded_subrounds, 0u) << spec.algorithm;
  }
}

TEST(Degrade, RoomyBudgetAddsNothing) {
  const Graph g = gen::gnp(200, 0.03, 9);
  RulingSetOptions options = options_for(Algorithm::kDetRulingMpc);
  options.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
  options.mpc.memory_words = kRoomyBudget;
  const RulingSetResult result = compute_ruling_set(g, options);
  EXPECT_EQ(result.metrics.degraded_subrounds, 0u);
}

TEST(Deadline, MissesTriggerSpeculationWithoutChangingOutput) {
  const Graph g = gen::gnp(300, 0.03, 5);
  RulingSetOptions reference = options_for(Algorithm::kLubyMpc);
  reference.mpc.memory_words = kRoomyBudget;
  reference.mpc.budget_policy = mpc::BudgetPolicy::kTrace;
  const RulingSetResult want = compute_ruling_set(g, reference);

  RulingSetOptions tight = options_for(Algorithm::kLubyMpc);
  tight.mpc.memory_words = kRoomyBudget;
  tight.mpc.budget_policy = mpc::BudgetPolicy::kTrace;
  tight.mpc.round_deadline = 200;  // well under the heavy rounds' work
  const RulingSetResult got = compute_ruling_set(g, tight);

  EXPECT_EQ(got.ruling_set, want.ruling_set);
  EXPECT_GT(got.metrics.deadline_misses, 0u);
  EXPECT_GT(got.metrics.speculative_rounds, 0u);
  // Backoff can only retry at least once per miss.
  EXPECT_GE(got.metrics.speculative_rounds, got.metrics.deadline_misses);
  EXPECT_EQ(got.metrics.rounds,
            want.metrics.rounds + got.metrics.speculative_rounds);
}

TEST(Deadline, GenerousDeadlineNeverMisses) {
  const Graph g = gen::gnp(200, 0.03, 9);
  RulingSetOptions options = options_for(Algorithm::kLubyMpc);
  options.mpc.memory_words = kRoomyBudget;
  options.mpc.round_deadline = kRoomyBudget;
  const RulingSetResult result = compute_ruling_set(g, options);
  EXPECT_EQ(result.metrics.deadline_misses, 0u);
  EXPECT_EQ(result.metrics.speculative_rounds, 0u);
}

TEST(Deadline, ComposesWithDegradeMode) {
  const Graph g = gen::gnp(300, 0.03, 5);
  RulingSetOptions reference = options_for(Algorithm::kDetLubyMpc);
  reference.mpc.memory_words = kRoomyBudget;
  reference.mpc.budget_policy = mpc::BudgetPolicy::kTrace;
  const RulingSetResult want = compute_ruling_set(g, reference);

  RulingSetOptions both = options_for(Algorithm::kDetLubyMpc);
  both.mpc.memory_words = kTightBudget;
  both.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
  both.mpc.round_deadline = 200;
  const RulingSetResult got = compute_ruling_set(g, both);

  EXPECT_EQ(got.ruling_set, want.ruling_set);
  EXPECT_GT(got.metrics.degraded_subrounds, 0u);
  EXPECT_GT(got.metrics.deadline_misses, 0u);
}

TEST(Degrade, PolicyNamesRoundTrip) {
  using mpc::BudgetPolicy;
  for (const BudgetPolicy p :
       {BudgetPolicy::kTrace, BudgetPolicy::kStrict, BudgetPolicy::kDegrade}) {
    EXPECT_EQ(mpc::parse_budget_policy(mpc::budget_policy_name(p)), p);
  }
  EXPECT_THROW(mpc::parse_budget_policy("lenient"), Error);
  try {
    mpc::parse_budget_policy("lenient");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadFlag);
  }
}

}  // namespace
}  // namespace rsets
