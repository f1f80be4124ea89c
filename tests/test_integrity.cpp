// The end-to-end integrity layer (DESIGN.md §4.4): corruption and reorder
// faults must be detected and healed without ever changing an algorithm's
// output — only the cost ledger — verification must be free when nothing
// corrupts, and the quarantine path must fire under sustained corruption.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "mpc/fault/injector.hpp"
#include "mpc/simulator.hpp"
#include "mpc/trace.hpp"

namespace rsets {
namespace {

struct Trial {
  RulingSetResult result;
  std::vector<mpc::RoundTrace> traces;
};

Trial run(const Graph& g, Algorithm algorithm, std::uint32_t beta,
          const std::string& fault_spec, bool integrity = false,
          unsigned num_threads = 1, std::uint64_t checkpoint_every = 0) {
  Trial trial;
  RulingSetOptions options;
  options.algorithm = algorithm;
  options.beta = beta;
  options.mpc.num_machines = 8;
  options.mpc.num_threads = num_threads;
  options.mpc.faults = mpc::parse_fault_spec(fault_spec);
  options.mpc.integrity = integrity;
  options.mpc.checkpoint_every = checkpoint_every;
  options.mpc.trace_hook = [&trial](const mpc::RoundTrace& trace) {
    trial.traces.push_back(trace);
  };
  trial.result = compute_ruling_set(g, options);
  return trial;
}

std::uint64_t count_kind(const Trial& trial, mpc::FaultKind kind) {
  std::uint64_t n = 0;
  for (const mpc::RoundTrace& t : trial.traces) {
    for (const mpc::FaultEvent& e : t.faults) {
      if (e.kind == kind) ++n;
    }
  }
  return n;
}

class IntegrityAllMpc : public ::testing::TestWithParam<Algorithm> {};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, IntegrityAllMpc,
    ::testing::Values(Algorithm::kLubyMpc, Algorithm::kDetLubyMpc,
                      Algorithm::kSampleGatherMpc, Algorithm::kDetRulingMpc),
    [](const auto& info) { return algorithm_name(info.param); });

TEST_P(IntegrityAllMpc, CorruptionHealsWithoutChangingTheResult) {
  const Graph g = gen::gnp(400, 8.0 / 400, 3);
  const std::uint32_t beta = algorithm_info(GetParam()).min_beta;
  const Trial clean = run(g, GetParam(), beta, "");
  const Trial noisy = run(g, GetParam(), beta, "corrupt~0.05,seed=11");

  EXPECT_EQ(noisy.result.ruling_set, clean.result.ruling_set);
  EXPECT_GT(noisy.result.metrics.corrupt_detected, 0u);
  // Every detected corruption triggered exactly one retransmission.
  EXPECT_EQ(noisy.result.metrics.integrity_retries,
            noisy.result.metrics.corrupt_detected);
  EXPECT_EQ(count_kind(noisy, mpc::FaultKind::kCorrupt),
            noisy.result.metrics.corrupt_detected);
  // Retransmissions are charged: the noisy run moved more words for the
  // same messages-as-delivered, like drops do.
  EXPECT_GT(noisy.result.metrics.total_words, clean.result.metrics.total_words);
  // Trace-sum == metrics identity holds with the integrity ledger active.
  std::uint64_t traced_words = 0;
  for (const mpc::RoundTrace& t : noisy.traces) traced_words += t.words_sent;
  EXPECT_EQ(traced_words, noisy.result.metrics.total_words);
}

TEST_P(IntegrityAllMpc, ReorderHealsForFree) {
  const Graph g = gen::gnp(400, 8.0 / 400, 3);
  const std::uint32_t beta = algorithm_info(GetParam()).min_beta;
  const Trial clean = run(g, GetParam(), beta, "");
  const Trial shuffled = run(g, GetParam(), beta, "reorder~1.0,seed=5");

  EXPECT_EQ(shuffled.result.ruling_set, clean.result.ruling_set);
  EXPECT_GT(count_kind(shuffled, mpc::FaultKind::kReorder), 0u);
  // Sequence numbers ride in the charged header: healing reorder moves no
  // extra words and costs no extra rounds.
  EXPECT_EQ(shuffled.result.metrics.total_words,
            clean.result.metrics.total_words);
  EXPECT_EQ(shuffled.result.metrics.rounds, clean.result.metrics.rounds);
}

TEST_P(IntegrityAllMpc, SustainedCorruptionQuarantines) {
  const Graph g = gen::gnp(300, 8.0 / 300, 3);
  const std::uint32_t beta = algorithm_info(GetParam()).min_beta;
  const Trial clean = run(g, GetParam(), beta, "");
  // Every delivery attempt corrupts: the bounded retry exhausts and sources
  // are quarantined — yet the pristine payloads still come through and the
  // output is unchanged.
  const Trial hostile = run(g, GetParam(), beta, "corrupt~1.0,seed=2");

  EXPECT_EQ(hostile.result.ruling_set, clean.result.ruling_set);
  EXPECT_GT(hostile.result.metrics.quarantined_rounds, 0u);
  EXPECT_EQ(count_kind(hostile, mpc::FaultKind::kQuarantine),
            hostile.result.metrics.quarantined_rounds);
  // Quarantine re-execution is charged into the round total.
  EXPECT_GT(hostile.result.metrics.rounds, clean.result.metrics.rounds);
  // The retry bound holds per delivery attempt chain: a message is never
  // retransmitted more than kMaxIntegrityRetries times, so the retry count
  // can't exceed bound x detected chains (equality when every retry also
  // corrupted, as corrupt~1.0 forces).
  EXPECT_EQ(hostile.result.metrics.corrupt_detected,
            hostile.result.metrics.integrity_retries);
}

TEST_P(IntegrityAllMpc, VerificationAloneIsFree) {
  const Graph g = gen::gnp(400, 8.0 / 400, 3);
  const std::uint32_t beta = algorithm_info(GetParam()).min_beta;
  const Trial off = run(g, GetParam(), beta, "", /*integrity=*/false);
  const Trial on = run(g, GetParam(), beta, "", /*integrity=*/true);

  // The checksum rides in the already-charged header and verification is
  // CPU-only: a fault-free run with integrity on is identical in every
  // observable — result, full metrics ledger, and each trace line.
  EXPECT_EQ(on.result.ruling_set, off.result.ruling_set);
  EXPECT_EQ(on.result.metrics.rounds, off.result.metrics.rounds);
  EXPECT_EQ(on.result.metrics.messages, off.result.metrics.messages);
  EXPECT_EQ(on.result.metrics.total_words, off.result.metrics.total_words);
  EXPECT_EQ(on.result.metrics.random_words, off.result.metrics.random_words);
  EXPECT_EQ(on.result.metrics.corrupt_detected, 0u);
  EXPECT_EQ(on.result.metrics.integrity_retries, 0u);
  EXPECT_EQ(on.result.metrics.quarantined_rounds, 0u);
  ASSERT_EQ(on.traces.size(), off.traces.size());
  for (std::size_t i = 0; i < on.traces.size(); ++i) {
    mpc::RoundTrace a = on.traces[i];
    mpc::RoundTrace b = off.traces[i];
    a.wall_ms = b.wall_ms = 0.0;  // the only nondeterministic field
    EXPECT_EQ(mpc::to_json(a), mpc::to_json(b)) << "trace line " << i;
  }
}

TEST_P(IntegrityAllMpc, CorruptionHealingIsThreadCountInvariant) {
  const Graph g = gen::gnp(300, 8.0 / 300, 3);
  const std::uint32_t beta = algorithm_info(GetParam()).min_beta;
  const std::string spec = "corrupt~0.1,reorder~0.5,seed=7";
  const Trial seq = run(g, GetParam(), beta, spec, false, 1);
  const Trial par = run(g, GetParam(), beta, spec, false, 4);

  EXPECT_EQ(par.result.ruling_set, seq.result.ruling_set);
  EXPECT_EQ(par.result.metrics.corrupt_detected,
            seq.result.metrics.corrupt_detected);
  EXPECT_EQ(par.result.metrics.integrity_retries,
            seq.result.metrics.integrity_retries);
  EXPECT_EQ(par.result.metrics.quarantined_rounds,
            seq.result.metrics.quarantined_rounds);
  EXPECT_EQ(par.result.metrics.total_words, seq.result.metrics.total_words);
}

// The E1 configuration (gnp n=800, avg_deg 8, seed 3, 8 machines), recorded
// through a RunSpec exactly as `rsets_cli --record` records it. Turning
// verification on in a fault-free run must leave every phase and summary
// line byte-identical (only the meta line names the flag), and the
// corrupt+reorder mix must heal to the same set.
TEST_P(IntegrityAllMpc, E1RecordBodiesMatchAndCorruptionHeals) {
  RunSpec spec;
  spec.algorithm = algorithm_name(GetParam());
  spec.beta = algorithm_info(GetParam()).min_beta;
  spec.gen = "gnp";
  spec.n = 800;
  spec.avg_deg = 8.0;
  spec.seed = 3;
  spec.machines = 8;
  RulingSetResult plain;
  const std::vector<std::string> plain_log = record_run(spec, &plain);

  spec.integrity = true;
  RulingSetResult checked;
  const std::vector<std::string> checked_log = record_run(spec, &checked);
  EXPECT_EQ(checked.ruling_set, plain.ruling_set);
  EXPECT_EQ(checked.metrics.corrupt_detected, 0u);
  ASSERT_EQ(checked_log.size(), plain_log.size());
  EXPECT_NE(checked_log.front(), plain_log.front());
  for (std::size_t i = 1; i < plain_log.size(); ++i) {
    EXPECT_EQ(checked_log[i], plain_log[i]) << "record line " << i;
  }

  spec.integrity = false;
  spec.faults = "corrupt~0.1,reorder~0.5,seed=7";
  const RulingSetResult noisy =
      compute_ruling_set(build_graph(spec), options_from_spec(spec));
  EXPECT_EQ(noisy.ruling_set, plain.ruling_set);
  EXPECT_GT(noisy.metrics.corrupt_detected, 0u);
}

TEST(IntegrityTrace, NewFaultKindsSerialize) {
  mpc::RoundTrace trace;
  trace.round = 4;
  mpc::FaultEvent corrupt;
  corrupt.kind = mpc::FaultKind::kCorrupt;
  corrupt.machine = 2;
  corrupt.words = 17;
  mpc::FaultEvent reorder;
  reorder.kind = mpc::FaultKind::kReorder;
  reorder.words = 9;
  mpc::FaultEvent quarantine;
  quarantine.kind = mpc::FaultKind::kQuarantine;
  quarantine.machine = 5;
  quarantine.words = 3;
  quarantine.delay_rounds = 1;
  trace.faults = {corrupt, reorder, quarantine};

  const std::string json = mpc::to_json(trace);
  EXPECT_NE(json.find("{\"kind\":\"corrupt\",\"machine\":2,\"words\":17}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"reorder\",\"machine\":0,\"messages\":9}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"quarantine\",\"machine\":5,\"streak\":3,"
                      "\"retry_rounds\":1}"),
            std::string::npos);
}

TEST(IntegrityInjector, ScheduledTransportKindsAreRejected) {
  mpc::FaultConfig bad;
  bad.enabled = true;
  bad.schedule.push_back({mpc::FaultKind::kCorrupt, 3, 0});
  EXPECT_THROW(mpc::FaultInjector(bad, 4), std::invalid_argument);

  bad = {};
  bad.enabled = true;
  bad.schedule.push_back({mpc::FaultKind::kReorder, 3, 0});
  EXPECT_THROW(mpc::FaultInjector(bad, 4), std::invalid_argument);

  bad = {};
  bad.enabled = true;
  bad.schedule.push_back({mpc::FaultKind::kQuarantine, 3, 0});
  EXPECT_THROW(mpc::FaultInjector(bad, 4), std::invalid_argument);

  bad = {};
  bad.enabled = true;
  bad.corrupt_prob = 1.5;
  EXPECT_THROW(mpc::FaultInjector(bad, 4), std::invalid_argument);

  bad = {};
  bad.enabled = true;
  bad.reorder_prob = -0.1;
  EXPECT_THROW(mpc::FaultInjector(bad, 4), std::invalid_argument);
}

TEST(IntegrityCheckpoint, FaultyRunSurvivesCheckpointRestore) {
  // Corruption + checkpointing together: the v3 image carries the integrity
  // ledger and corrupt streaks, and a crash mid-corruption recovers to the
  // same output.
  const Graph g = gen::gnp(300, 8.0 / 300, 3);
  const Trial clean = run(g, Algorithm::kDetRulingMpc, 2, "");
  const Trial brutal =
      run(g, Algorithm::kDetRulingMpc, 2, "corrupt~0.3,crash~0.02,seed=13",
          false, 1, /*checkpoint_every=*/2);
  EXPECT_EQ(brutal.result.ruling_set, clean.result.ruling_set);
  EXPECT_GT(brutal.result.metrics.corrupt_detected, 0u);
  EXPECT_GT(brutal.result.metrics.checkpoints, 0u);
}

}  // namespace
}  // namespace rsets
