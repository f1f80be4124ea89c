// Record/replay round trips under every fault kind. A recorded log must
// replay byte-for-byte — faults, checkpoints, recoveries, corruption
// healing and all — and tampered or version-mismatched logs must be
// rejected with a useful diagnostic, not silently replayed.
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"

namespace rsets {
namespace {

RunSpec small_spec(const std::string& algorithm, const std::string& faults) {
  RunSpec spec;
  spec.algorithm = algorithm;
  spec.beta = 2;
  spec.gen = "gnp";
  spec.n = 300;
  spec.avg_deg = 6.0;
  spec.seed = 9;
  spec.machines = 8;
  spec.faults = faults;
  return spec;
}

struct FaultCase {
  const char* name;
  const char* faults;
  std::uint64_t checkpoint_every = 0;
  const char* budget_policy = "strict";
  std::uint64_t deadline = 0;
};

// Names the case by its knobs. Without a printer gtest dumps the struct's
// raw bytes, string-literal addresses included, into the test name, so the
// name would shift whenever the binary's layout does.
void PrintTo(const FaultCase& c, std::ostream* os) {
  *os << "faults=" << (*c.faults != '\0' ? c.faults : "none")
      << " checkpoint_every=" << c.checkpoint_every
      << " budget_policy=" << c.budget_policy << " deadline=" << c.deadline;
}

class ReplayEveryFaultKind : public ::testing::TestWithParam<FaultCase> {};

INSTANTIATE_TEST_SUITE_P(
    Kinds, ReplayEveryFaultKind,
    ::testing::Values(
        FaultCase{"fault_free", ""},
        FaultCase{"crash", "crash~0.02,seed=3"},
        FaultCase{"straggler", "straggler~0.05,seed=3"},
        FaultCase{"drop", "drop~0.02,seed=3"},
        FaultCase{"duplicate", "dup~0.02,seed=3"},
        FaultCase{"corrupt", "corrupt~0.05,seed=3"},
        FaultCase{"reorder", "reorder~0.5,seed=3"},
        FaultCase{"quarantine", "corrupt~1.0,seed=3"},
        FaultCase{"checkpointed_crash", "crash~0.05,seed=3", 2},
        FaultCase{"degrade_mode", "drop~0.02,seed=3", 0, "degrade"},
        FaultCase{"deadline", "straggler~0.1,seed=3", 0, "strict", 4},
        FaultCase{"everything",
                  "crash~0.01,straggler~0.02,drop~0.01,dup~0.01,"
                  "corrupt~0.05,reorder~0.25,seed=3",
                  2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(ReplayEveryFaultKind, RecordedLogReplaysByteForByte) {
  RunSpec spec = small_spec("det_ruling_mpc", GetParam().faults);
  spec.checkpoint_every = GetParam().checkpoint_every;
  spec.budget_policy = GetParam().budget_policy;
  spec.deadline = GetParam().deadline;

  RulingSetResult recorded;
  const std::vector<std::string> log = record_run(spec, &recorded);
  ASSERT_GE(log.size(), 2u);  // meta + summary at minimum

  const ReplayReport report = replay_log(log);
  EXPECT_TRUE(report.ok()) << report.first_mismatch;
  EXPECT_EQ(report.phases_checked, log.size() - 2);
  EXPECT_EQ(report.result.ruling_set, recorded.ruling_set);
}

TEST(ReplayRoundTrip, CoversEveryMpcAlgorithm) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model != Model::kMpc) continue;
    RunSpec spec = small_spec(std::string(info.name),
                              "corrupt~0.05,reorder~0.25,seed=4");
    spec.beta = info.min_beta;
    const std::vector<std::string> log = record_run(spec);
    const ReplayReport report = replay_log(log);
    EXPECT_TRUE(report.ok()) << info.name << ": " << report.first_mismatch;
  }
}

TEST(ReplayRoundTrip, TamperedPhaseLineIsCaught) {
  const std::vector<std::string> log =
      record_run(small_spec("det_ruling_mpc", "drop~0.02,seed=3"));
  ASSERT_GT(log.size(), 3u);

  std::vector<std::string> tampered = log;
  std::string& line = tampered[tampered.size() / 2];
  // Flip one digit somewhere in the middle of a phase line.
  for (char& c : line) {
    if (c >= '0' && c <= '8') {
      ++c;
      break;
    }
  }
  const ReplayReport report = replay_log(tampered);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.mismatches, 1u);
  EXPECT_FALSE(report.first_mismatch.empty());
}

TEST(ReplayRoundTrip, SpecJsonRoundTrips) {
  RunSpec spec = small_spec("luby_mpc", "corrupt~0.1,seed=5");
  spec.beta = 3;
  spec.memory_words = 1 << 20;
  spec.threads = 4;
  spec.budget = 123456;
  spec.checkpoint_every = 3;
  spec.budget_policy = "degrade";
  spec.deadline = 7;
  spec.integrity = true;

  const RunSpec back = spec_from_json(spec_to_json(spec));
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.beta, spec.beta);
  EXPECT_EQ(back.gen, spec.gen);
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.avg_deg, spec.avg_deg);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.machines, spec.machines);
  EXPECT_EQ(back.memory_words, spec.memory_words);
  EXPECT_EQ(back.threads, spec.threads);
  EXPECT_EQ(back.budget, spec.budget);
  EXPECT_EQ(back.faults, spec.faults);
  EXPECT_EQ(back.checkpoint_every, spec.checkpoint_every);
  EXPECT_EQ(back.budget_policy, spec.budget_policy);
  EXPECT_EQ(back.deadline, spec.deadline);
  EXPECT_EQ(back.integrity, spec.integrity);
}

TEST(ReplayRoundTrip, IntegrityFlagSurvivesTheRoundTrip) {
  RunSpec spec = small_spec("det_ruling_mpc", "");
  spec.integrity = true;
  const std::vector<std::string> log = record_run(spec);
  const ReplayReport report = replay_log(log);
  EXPECT_TRUE(report.ok()) << report.first_mismatch;
  EXPECT_TRUE(report.spec.integrity);
}

TEST(ReplayRoundTrip, SummaryCarriesTheIntegrityLedger) {
  const std::vector<std::string> log =
      record_run(small_spec("det_ruling_mpc", "corrupt~0.1,seed=6"));
  const std::string& summary = log.back();
  EXPECT_NE(summary.find("\"corrupt_detected\":"), std::string::npos);
  EXPECT_NE(summary.find("\"integrity_retries\":"), std::string::npos);
  EXPECT_NE(summary.find("\"quarantined_rounds\":"), std::string::npos);
  EXPECT_NE(summary.find("\"set_hash\":"), std::string::npos);
}

TEST(ReplayRoundTrip, OlderFormatVersionsAreRejectedWithDiagnostic) {
  // A v4 log — which still named a transport mode in its meta line — must
  // be rejected by version, not replayed against v5 semantics (the legacy
  // transport is deleted, so a v4 log recorded on it could not reproduce).
  std::vector<std::string> log =
      record_run(small_spec("det_ruling_mpc", ""));
  std::string& meta = log.front();
  const std::size_t at = meta.find("rsets-replay-v5");
  ASSERT_NE(at, std::string::npos);
  meta.replace(at, 15, "rsets-replay-v4");

  try {
    replay_log(log);
    FAIL() << "v4 meta line was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // The diagnostic names the version found and the version required.
    EXPECT_NE(what.find("rsets-replay-v4"), std::string::npos) << what;
    EXPECT_NE(what.find("rsets-replay-v5"), std::string::npos) << what;
  }
}

TEST(ReplayRoundTrip, GarbageMetaLineIsRejected) {
  EXPECT_THROW(replay_log({"not json", "also not json"}),
               std::invalid_argument);
  EXPECT_THROW(replay_log({}), std::invalid_argument);
  EXPECT_THROW(spec_from_json("{\"format\":\"rsets-replay-v5\"}"),
               std::invalid_argument);
}

}  // namespace
}  // namespace rsets
