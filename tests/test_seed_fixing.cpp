// The seed-fixing engine (core/seed_fixing.hpp) over a sharded estimator:
// the expected number of marked target ids, with targets dealt round-robin
// to the machines. Every property is checked on 1 and 4 machines.
#include "core/seed_fixing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace rsets {
namespace {

mpc::MpcConfig config_for(mpc::MachineId machines, unsigned threads = 1) {
  mpc::MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.num_threads = threads;
  return cfg;
}

// E[#marked targets] split over machines: machine m owns targets i with
// i % machines == m.
class CountMarked {
 public:
  CountMarked(mpc::MachineId machines, std::vector<std::uint64_t> targets)
      : machines_(machines), targets_(std::move(targets)) {}

  double value(const MarkingFamily& family) const {
    double total = 0.0;
    for (std::uint64_t v : targets_) {
      total += family.prob_mark(v, family.levels());
    }
    return total;
  }

  // Machine m's share under every assignment of the chunk, each fixed on a
  // copy of the family in turn.
  SeedChunkFn partial() const {
    return [this](mpc::MachineId m, const MarkingFamily& family, int level,
                  std::span<const int> chunk, std::span<double> out) {
      MarkingFamily local = family;
      for (std::uint32_t a = 0; a < out.size(); ++a) {
        fix_chunk(local.level(level), chunk, a);
        double total = 0.0;
        for (std::size_t i = m; i < targets_.size(); i += machines_) {
          total += local.prob_mark(targets_[i], local.levels());
        }
        out[a] = total;
      }
    };
  }

 private:
  mpc::MachineId machines_;
  std::vector<std::uint64_t> targets_;
};

struct FixRun {
  SeedFixReport report;
  double initial = 0.0;
  double final_value = 0.0;
  std::uint64_t rounds = 0;
};

FixRun fix(MarkingFamily& family, mpc::MachineId machines,
           std::vector<std::uint64_t> targets, int chunk_bits,
           unsigned threads = 1) {
  mpc::Simulator sim(config_for(machines, threads));
  const CountMarked est(machines, std::move(targets));
  FixRun run;
  run.initial = est.value(family);
  run.report = fix_seed_mpc(sim, family, chunk_bits, 1, est.partial());
  run.final_value = est.value(family);
  run.rounds = sim.metrics().rounds;
  return run;
}

constexpr mpc::MachineId kMachineCounts[] = {1, 4};

TEST(FixSeed, FinalValueAtLeastInitialExpectation) {
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(32, 2);
    const FixRun run = fix(family, machines, {1, 5, 9, 14, 27, 31}, 3);
    EXPECT_TRUE(family.fully_fixed());
    EXPECT_NEAR(run.initial, 6.0 * 0.25, 1e-12);
    EXPECT_GE(run.final_value, run.initial - 1e-12) << machines;
  }
}

TEST(FixSeed, TrajectoryIsNonDecreasing) {
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(64, 3);
    const FixRun run = fix(family, machines, {0, 7, 21, 33, 40, 41, 63}, 2);
    double prev = run.initial;
    for (double v : run.report.trajectory) {
      EXPECT_GE(v, prev - 1e-12) << machines;
      prev = v;
    }
    EXPECT_DOUBLE_EQ(run.report.trajectory.back(), run.final_value);
  }
}

TEST(FixSeed, FinalValueEqualsRealizedCount) {
  // After all bits are fixed, the estimator value must be the actual number
  // of marked targets — conditional expectation of a constant.
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(16, 2);
    const std::vector<std::uint64_t> targets = {2, 3, 8, 12};
    const FixRun run = fix(family, machines, targets, 4);
    int marked = 0;
    for (std::uint64_t v : targets) marked += family.mark(v) ? 1 : 0;
    EXPECT_DOUBLE_EQ(run.final_value, static_cast<double>(marked));
    EXPECT_GE(marked, 1);  // E = 4/4 = 1, so at least one target is marked
  }
}

TEST(FixSeed, ChunkAndBitAccounting) {
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(16, 2);  // id_bits = 4, per-level seed = 5 bits
    const FixRun run = fix(family, machines, {1}, 4);
    EXPECT_TRUE(family.fully_fixed());
    // Per level: ceil(5/4) = 2 chunks; 2 levels -> 4 chunks.
    EXPECT_EQ(run.report.chunks, 4);
    EXPECT_EQ(run.report.trajectory.size(), 4u);
    // One allreduce per chunk: 2 MPC rounds each.
    EXPECT_EQ(run.rounds, 2u * 4u);
  }
}

TEST(FixSeed, DeterministicAcrossRuns) {
  for (const mpc::MachineId machines : kMachineCounts) {
    std::vector<std::uint8_t> first_seed;
    for (int run = 0; run < 3; ++run) {
      MarkingFamily family(32, 2);
      fix(family, machines, {3, 17, 22}, 3);
      const auto seed = family.seed();
      if (run == 0) {
        first_seed = seed;
      } else {
        EXPECT_EQ(seed, first_seed) << machines;
      }
    }
  }
}

TEST(FixSeed, ChunkSizeDoesNotBreakGuarantee) {
  for (const mpc::MachineId machines : kMachineCounts) {
    for (int chunk = 1; chunk <= 6; ++chunk) {
      MarkingFamily family(32, 2);
      const FixRun run = fix(family, machines, {1, 2, 4, 8, 16, 31}, chunk);
      EXPECT_GE(run.final_value, run.initial - 1e-12)
          << "chunk_bits " << chunk << " machines " << machines;
    }
  }
}

TEST(FixSeed, RejectsBadChunkBits) {
  for (const int bad : {0, 13}) {
    MarkingFamily family(8, 1);
    EXPECT_THROW(fix(family, 1, {1}, bad), std::invalid_argument) << bad;
    EXPECT_THROW(check_chunk_bits(bad, "test"), std::invalid_argument);
  }
  EXPECT_NO_THROW(check_chunk_bits(1, "test"));
  EXPECT_NO_THROW(check_chunk_bits(12, "test"));
}

TEST(FixSeed, LevelCallbacksFireInOrder) {
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(16, 3);
    mpc::Simulator sim(config_for(machines));
    const CountMarked est(machines, {1, 2});
    std::vector<int> levels_seen;
    fix_seed_mpc(sim, family, 2, 1, est.partial(), {}, [&](int level) {
      // The hook sees its level final and the next one untouched.
      EXPECT_TRUE(family.level(level).fully_fixed());
      if (level + 1 < family.levels()) {
        EXPECT_EQ(family.level(level + 1).fixed_count(), 0);
      }
      levels_seen.push_back(level);
    });
    EXPECT_EQ(levels_seen, (std::vector<int>{0, 1, 2})) << machines;
  }
}

TEST(FixSeed, ConstantEstimatorPicksAllZeroChunks) {
  // Every assignment ties, so the first (all-zero) word wins each chunk.
  for (const mpc::MachineId machines : kMachineCounts) {
    MarkingFamily family(32, 2);
    mpc::Simulator sim(config_for(machines));
    const SeedFixReport report = fix_seed_mpc(
        sim, family, 3, 1,
        [](mpc::MachineId, const MarkingFamily&, int, std::span<const int>,
           std::span<double> out) { std::ranges::fill(out, 1.0); });
    EXPECT_TRUE(family.fully_fixed());
    EXPECT_EQ(family.seed(),
              std::vector<std::uint8_t>(family.total_seed_bits(), 0));
    for (double v : report.trajectory) {
      EXPECT_EQ(v, static_cast<double>(machines));
    }
  }
}

TEST(FixSeed, SameSeedAtOneAndFourThreads) {
  const std::vector<std::uint64_t> targets = {0, 3, 9, 17, 30, 44, 51, 63};
  MarkingFamily serial(64, 3);
  const FixRun one = fix(serial, 4, targets, 3, /*threads=*/1);
  MarkingFamily threaded(64, 3);
  const FixRun four = fix(threaded, 4, targets, 3, /*threads=*/4);
  EXPECT_EQ(threaded.seed(), serial.seed());
  EXPECT_EQ(four.report.trajectory, one.report.trajectory);
  EXPECT_EQ(four.rounds, one.rounds);
}

}  // namespace
}  // namespace rsets
