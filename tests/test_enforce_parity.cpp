// Budget-policy parity (satellite of the fault subsystem): under
// BudgetPolicy::kTrace the simulator completes the run and counts cap
// violations; this must mirror kStrict exactly — the per-phase violation
// deltas in the trace sum to the metrics total, and the strict run throws
// MpcViolation during precisely the first phase whose lenient trace line
// shows a nonzero delta (so the strict run emits exactly the trace prefix
// before that line).
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/det_matching.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "mpc/simulator.hpp"

namespace rsets {
namespace {

using RunFn = std::function<mpc::MpcMetrics(const mpc::MpcConfig&)>;

mpc::MpcConfig probe_config(std::uint64_t memory_words,
                            mpc::BudgetPolicy policy) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 4;
  cfg.memory_words = memory_words;
  cfg.seed = 7;
  cfg.budget_policy = policy;
  return cfg;
}

struct LenientRun {
  std::uint64_t metric_violations = 0;
  std::vector<std::uint64_t> per_phase;  // trace.violations, in hook order
};

LenientRun run_lenient(const RunFn& run, std::uint64_t memory_words) {
  mpc::MpcConfig cfg = probe_config(memory_words, mpc::BudgetPolicy::kTrace);
  LenientRun out;
  cfg.trace_hook = [&out](const mpc::RoundTrace& t) {
    out.per_phase.push_back(t.violations);
  };
  out.metric_violations = run(cfg).violations;
  return out;
}

struct StrictRun {
  bool threw = false;
  std::size_t phases_before_throw = 0;
};

StrictRun run_strict(const RunFn& run, std::uint64_t memory_words) {
  mpc::MpcConfig cfg = probe_config(memory_words, mpc::BudgetPolicy::kStrict);
  StrictRun out;
  cfg.trace_hook = [&out](const mpc::RoundTrace&) {
    ++out.phases_before_throw;
  };
  try {
    run(cfg);
  } catch (const mpc::MpcViolation&) {
    out.threw = true;
  }
  return out;
}

struct Case {
  const char* name;
  Algorithm algorithm;      // ignored when matching
  std::uint32_t beta;       // ignored when matching
  bool matching = false;
};

// Names the case in ctest instead of gtest's raw byte dump.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.name << " beta=" << c.beta;
}

class EnforceParity : public ::testing::TestWithParam<Case> {
 protected:
  const Graph g_ = gen::gnp(200, 0.04, 11);

  RunFn make_run() const {
    const Case c = GetParam();
    if (c.matching) {
      return [this](const mpc::MpcConfig& cfg) {
        return det_matching_mpc(g_, cfg).metrics;
      };
    }
    return [this, c](const mpc::MpcConfig& cfg) {
      RulingSetOptions options;
      options.algorithm = c.algorithm;
      options.beta = c.beta;
      options.mpc = cfg;
      return compute_ruling_set(g_, options).metrics;
    };
  }
};

TEST_P(EnforceParity, ViolationCounterMatchesWhereEnforceWouldThrow) {
  const RunFn run = make_run();

  // Shrink machine memory until the lenient run observes cap violations
  // with at least one landing on a trace line (a violation after the final
  // trace line — e.g. a storage charge in the result gather — has no line
  // to attach to, so such sizes are skipped).
  LenientRun lenient;
  bool found = false;
  for (std::uint64_t memory : {4096u, 2048u, 1024u, 512u, 256u, 128u, 96u,
                               64u}) {
    lenient = run_lenient(run, memory);
    std::uint64_t traced = 0;
    for (const std::uint64_t v : lenient.per_phase) traced += v;
    EXPECT_LE(traced, lenient.metric_violations);
    if (lenient.metric_violations > 0 && traced > 0) {
      found = true;
      SCOPED_TRACE("memory_words=" + std::to_string(memory));

      // First phase whose lenient trace line carries a violation delta.
      std::size_t first = 0;
      while (lenient.per_phase[first] == 0) ++first;

      // The strict run must throw during exactly that phase: every phase
      // before it completes (its hook fires, and its lenient line shows a
      // zero delta), while the violating phase never reaches its hook.
      const StrictRun strict = run_strict(run, memory);
      EXPECT_TRUE(strict.threw);
      EXPECT_EQ(strict.phases_before_throw, first);
      break;
    }
  }
  ASSERT_TRUE(found) << "no probed memory size produced traced violations";

  // Sanity: with ample memory neither mode observes anything.
  const LenientRun clean = run_lenient(run, 1u << 20);
  EXPECT_EQ(clean.metric_violations, 0u);
  const StrictRun clean_strict = run_strict(run, 1u << 20);
  EXPECT_FALSE(clean_strict.threw);
}

INSTANTIATE_TEST_SUITE_P(
    AllMpcAlgorithms, EnforceParity,
    ::testing::Values(
        Case{"luby_mpc", Algorithm::kLubyMpc, 1},
        Case{"det_luby_mpc", Algorithm::kDetLubyMpc, 1},
        Case{"sample_gather_mpc", Algorithm::kSampleGatherMpc, 2},
        Case{"det_ruling_mpc", Algorithm::kDetRulingMpc, 2},
        Case{"det_matching_mpc", Algorithm::kDetRulingMpc, 2,
             /*matching=*/true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rsets
