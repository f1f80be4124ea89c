// Parallel-barrier parity: thread width is a pure wall-clock knob.
//
// The contract of the destination-sharded barrier (DESIGN.md §4.6): for
// every algorithm and fault cocktail, a run at any thread width must produce
// the byte-identical ruling set, metrics ledger, and record log that the
// single-threaded run produces — the canonical merge plan is fixed serially,
// each destination's verify/index/merge work is scheduling-independent, and
// fault draws stay on the coordinator. These tests pin that equivalence; if
// they fail, the parallel barrier has diverged structurally, not just in
// wall clock.
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "mpc/simulator.hpp"

namespace rsets {
namespace {

RunSpec parity_spec(const std::string& algorithm, const std::string& faults,
                    std::uint32_t threads) {
  RunSpec spec;
  spec.algorithm = algorithm;
  spec.gen = "gnp";
  spec.n = 300;
  spec.avg_deg = 6.0;
  spec.seed = 11;
  spec.machines = 8;
  spec.threads = threads;
  spec.faults = faults;
  return spec;
}

std::uint32_t hw_threads() { return 0; }  // 0 = hardware concurrency

// Runs the spec at 1, 4, and hardware-concurrency threads and byte-compares
// each wider run against the single-threaded one: the set, the full metrics
// ledger, and the record-log body (meta line excluded — it names the thread
// count — every phase line and the summary included).
void expect_thread_parity(RunSpec spec, const std::string& label) {
  spec.threads = 1;
  RulingSetResult base_result;
  const std::vector<std::string> base_log = record_run(spec, &base_result);

  for (const std::uint32_t threads : {4u, hw_threads()}) {
    spec.threads = threads;
    RulingSetResult result;
    const std::vector<std::string> log = record_run(spec, &result);
    const std::string at = label + " threads=" + std::to_string(threads);

    EXPECT_EQ(result.ruling_set, base_result.ruling_set) << at;
    EXPECT_TRUE(result.metrics == base_result.metrics)
        << at << ": " << metrics_json(result.metrics) << " vs "
        << metrics_json(base_result.metrics);
    ASSERT_EQ(log.size(), base_log.size()) << at;
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_EQ(log[i], base_log[i]) << at << " line " << i;
    }
  }
}

TEST(BarrierParity, EveryMpcAlgorithmFaultFree) {
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model != Model::kMpc) continue;
    RunSpec spec = parity_spec(std::string(info.name), "", 1);
    spec.beta = info.min_beta;
    expect_thread_parity(spec, std::string(info.name));
  }
}

TEST(BarrierParity, IntegrityVerificationOnEveryThreadWidth) {
  // With --integrity the parallel delivery pass checksums every buffer; the
  // verification must stay free and thread-invariant.
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model != Model::kMpc) continue;
    RunSpec spec = parity_spec(std::string(info.name), "", 1);
    spec.beta = info.min_beta;
    spec.integrity = true;
    expect_thread_parity(spec, std::string(info.name) + " integrity");
  }
}

struct ParityFaultCase {
  const char* name;
  const char* faults;
  std::uint64_t checkpoint_every = 0;
  const char* budget_policy = "strict";
  std::uint64_t deadline = 0;
};

// Names the case by its knobs rather than by gtest's raw-byte dump, which
// would put string-literal addresses into the test name.
void PrintTo(const ParityFaultCase& c, std::ostream* os) {
  *os << "faults=" << c.faults << " checkpoint_every=" << c.checkpoint_every
      << " budget_policy=" << c.budget_policy << " deadline=" << c.deadline;
}

class BarrierParityFaults
    : public ::testing::TestWithParam<ParityFaultCase> {};

INSTANTIATE_TEST_SUITE_P(
    Kinds, BarrierParityFaults,
    ::testing::Values(
        ParityFaultCase{"crash", "crash~0.02,seed=3", 2},
        ParityFaultCase{"straggler", "straggler~0.1,seed=3"},
        ParityFaultCase{"drop", "drop~0.05,seed=3"},
        ParityFaultCase{"duplicate", "dup~0.05,seed=3"},
        ParityFaultCase{"corrupt", "corrupt~0.1,seed=3"},
        ParityFaultCase{"reorder", "reorder~0.5,seed=3"},
        ParityFaultCase{"quarantine", "corrupt~1.0,seed=3"},
        ParityFaultCase{"degrade", "drop~0.02,seed=3", 0, "degrade"},
        ParityFaultCase{"deadline", "straggler~0.1,seed=3", 0, "strict", 4},
        ParityFaultCase{"everything",
                        "crash~0.01,straggler~0.02,drop~0.01,dup~0.01,"
                        "corrupt~0.05,reorder~0.25,seed=3",
                        2}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(BarrierParityFaults, ByteIdenticalAcrossThreadCounts) {
  RunSpec spec = parity_spec("det_ruling_mpc", GetParam().faults, 1);
  spec.checkpoint_every = GetParam().checkpoint_every;
  spec.budget_policy = GetParam().budget_policy;
  spec.deadline = GetParam().deadline;
  expect_thread_parity(spec, GetParam().name);
}

TEST(BarrierParity, ThreadedRecordReplaysSingleThreaded) {
  // A log recorded under the parallel barrier must replay bit-identically —
  // and because phase lines never encode the thread width, the replay can
  // even run at a different width than the recording (the meta line's
  // `threads` is an execution knob, not a semantic one; replay honors it,
  // so here we just pin a faulty threaded recording round-tripping).
  RunSpec spec =
      parity_spec("det_ruling_mpc", "corrupt~0.05,reorder~0.25,seed=4", 4);
  const std::vector<std::string> log = record_run(spec);
  const ReplayReport report = replay_log(log);
  EXPECT_TRUE(report.ok()) << report.first_mismatch;
  EXPECT_EQ(report.spec.threads, 4u);
}

TEST(BarrierParity, SenderStreamsMultipleRecordsPerDestination) {
  mpc::MpcConfig cfg;
  cfg.num_machines = 2;
  cfg.memory_words = 1 << 16;
  mpc::Simulator sim(cfg);
  sim.round([](mpc::Machine& m, const mpc::Inbox&) {
    if (m.id() != 0) return;
    m.sender(1, 3).push(10).push(11);
    const std::vector<mpc::Word> tail = {12, 13, 14};
    m.sender(1, 3).append(tail).push(15);
  });
  sim.drain([](mpc::Machine& m, const mpc::Inbox& inbox) {
    if (m.id() != 1) return;
    const auto msgs = inbox.with_tag(3);
    ASSERT_EQ(msgs.size(), 2u);
    // Send order preserved within (tag, src).
    EXPECT_EQ(msgs[0].payload.size(), 2u);
    EXPECT_EQ(msgs[0].payload[1], 11u);
    EXPECT_EQ(msgs[1].payload.size(), 4u);
    EXPECT_EQ(msgs[1].payload[3], 15u);
  });
  EXPECT_EQ(sim.metrics().messages, 2u);
  EXPECT_EQ(sim.metrics().total_words, 6 + 2 * mpc::kHeaderWords);
}

}  // namespace
}  // namespace rsets
