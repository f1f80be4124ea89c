// Tests for the long-lived ruling-set service: update-stream parsing,
// the dynamic adjacency store, region-restricted certification, the three
// repair tiers, admission control, retry relaxation, journal crash
// recovery, and the fault+churn soak's bit-for-bit parity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "core/replay.hpp"
#include "serve/dynamic_graph.hpp"
#include "serve/service.hpp"
#include "serve/updates.hpp"
#include "util/error.hpp"

namespace rsets::serve {
namespace {

Graph make_graph(std::uint64_t n, double avg_deg, std::uint64_t seed,
                 const std::string& gen = "gnp") {
  RunSpec spec;
  spec.gen = gen;
  spec.n = n;
  spec.avg_deg = avg_deg;
  spec.seed = seed;
  return build_graph(spec);
}

// ---------------------------------------------------------------- parser --

TEST(ServeUpdatesParser, ParsesBatchesCommentsAndCrlf) {
  std::istringstream in(
      "# producer A\r\n"
      "+ 0 1\r\n"
      "  % inline comment style two\n"
      "- 2 3\n"
      "commit\n"
      "\n"
      "+ 4 5\n");  // trailing batch closed by end-of-stream
  const auto batches = parse_update_stream(in, kNoVertexBound);
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[0].updates[0],
            (EdgeUpdate{EdgeUpdate::Op::kInsert, 0, 1}));
  EXPECT_EQ(batches[0].updates[1],
            (EdgeUpdate{EdgeUpdate::Op::kDelete, 2, 3}));
  ASSERT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1].updates[0],
            (EdgeUpdate{EdgeUpdate::Op::kInsert, 4, 5}));
}

TEST(ServeUpdatesParser, EmptyStreamParsesToZeroBatches) {
  std::istringstream in("# only comments\n\n");
  EXPECT_TRUE(parse_update_stream(in, kNoVertexBound).empty());
}

TEST(ServeUpdatesParser, RejectsMalformedWithOneBasedLineNumbers) {
  const auto expect_error = [](const std::string& text, ErrorCode code,
                               const std::string& line_tag) {
    std::istringstream in(text);
    try {
      parse_update_stream(in, 10);
      FAIL() << "expected rsets::Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << text;
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << "missing '" << line_tag << "' in: " << e.what();
    }
  };
  expect_error("x 1 2\n", ErrorCode::kMalformedLine, "line 1");
  expect_error("+ 1\n", ErrorCode::kMalformedLine, "line 1");
  expect_error("+ 1 2 3\n", ErrorCode::kMalformedLine, "line 1");
  expect_error("+ a 2\n", ErrorCode::kMalformedLine, "line 1");
  expect_error("+ -1 2\n", ErrorCode::kMalformedLine, "line 1");
  expect_error("commit now\n", ErrorCode::kMalformedLine, "line 1");
  // The diagnostic names the failing source line, not the failing update.
  expect_error("+ 0 1\n# pad\n+ 3 3\n", ErrorCode::kSelfLoop, "line 3");
  expect_error("+ 0 1\n+ 0 10\n", ErrorCode::kVertexIdOverflow, "line 2");
  expect_error("+ 0 99999999999999999999\n", ErrorCode::kVertexIdOverflow,
               "line 1");
}

TEST(ServeUpdatesParser, RejectsDuplicateCommitWithOneBasedLineNumber) {
  const auto expect_dup = [](const std::string& text,
                             const std::string& line_tag) {
    std::istringstream in(text);
    try {
      parse_update_stream(in, kNoVertexBound);
      FAIL() << "expected duplicate-commit rejection for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kMalformedLine) << text;
      EXPECT_NE(std::string(e.what()).find("duplicate commit"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(line_tag), std::string::npos)
          << "missing '" << line_tag << "' in: " << e.what();
    }
  };
  expect_dup("commit\n", "line 1");                     // nothing ever queued
  expect_dup("+ 0 1\ncommit\ncommit\n", "line 3");      // back-to-back
  expect_dup("+ 0 1\ncommit\n# pad\n\ncommit\n", "line 5");
}

TEST(ServeUpdatesParser, ChecksumLineVerifiesTheOpenBatch) {
  const std::vector<EdgeUpdate> updates = {
      {EdgeUpdate::Op::kInsert, 0, 1}, {EdgeUpdate::Op::kDelete, 2, 3}};
  std::ostringstream text;
  for (const auto& u : updates) text << to_line(u) << "\n";
  text << "checksum " << std::hex << batch_checksum(updates) << "\ncommit\n";
  std::istringstream good(text.str());
  const auto batches = parse_update_stream(good, kNoVertexBound);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].updates, updates);

  std::istringstream bad("+ 0 1\nchecksum deadbeef\ncommit\n");
  try {
    parse_update_stream(bad, kNoVertexBound);
    FAIL() << "expected checksum mismatch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kChecksumMismatch);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(ServeUpdatesParser, ToLineRoundTrips) {
  const std::vector<EdgeUpdate> updates = {
      {EdgeUpdate::Op::kInsert, 7, 42}, {EdgeUpdate::Op::kDelete, 0, 9}};
  std::string text;
  for (const auto& u : updates) text += to_line(u) + "\n";
  std::istringstream in(text);
  const auto batches = parse_update_stream(in, kNoVertexBound);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].updates, updates);
}

// --------------------------------------------------------- dynamic graph --

TEST(ServeDynamicGraph, TracksEdgeSetAndSnapshotsExactly) {
  const Graph g = make_graph(40, 4.0, 7);
  DynamicGraph dg(g);
  EXPECT_EQ(dg.num_vertices(), g.num_vertices());
  EXPECT_EQ(dg.num_edges(), g.num_edges());

  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w) edges.insert({v, w});
    }
  }
  // Mixed churn with explicit no-op probes; the mutators report exactly
  // whether the graph changed.
  EXPECT_TRUE(dg.insert(0, 39));
  EXPECT_FALSE(dg.insert(39, 0));  // duplicate, either orientation
  edges.insert({0, 39});
  EXPECT_TRUE(dg.erase(0, 39));
  EXPECT_FALSE(dg.erase(0, 39));
  edges.erase({0, 39});
  const auto some = *edges.begin();
  EXPECT_TRUE(dg.erase(some.first, some.second));
  edges.erase(some);
  EXPECT_THROW(dg.insert(3, 3), std::invalid_argument);
  EXPECT_THROW(dg.insert(0, 40), std::invalid_argument);

  const Graph snap = dg.snapshot();
  std::vector<Edge> list;
  for (const auto& [u, w] : edges) list.push_back({u, w});
  const Graph expect = Graph::from_edges(g.num_vertices(), list);
  EXPECT_TRUE(snap == expect);
}

TEST(ServeDynamicGraph, BallAndFingerprint) {
  // Path 0-1-2-3-4-5.
  std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  DynamicGraph dg(Graph::from_edges(6, path));
  const VertexId seed[1] = {0};
  EXPECT_EQ(dg.ball(seed, 0), (std::vector<VertexId>{0}));
  EXPECT_EQ(dg.ball(seed, 2), (std::vector<VertexId>{0, 1, 2}));
  const VertexId two[2] = {0, 5};
  EXPECT_EQ(dg.ball(two, 1), (std::vector<VertexId>{0, 1, 4, 5}));

  const std::uint64_t before = dg.fingerprint();
  ASSERT_TRUE(dg.insert(0, 5));
  EXPECT_NE(dg.fingerprint(), before);
  ASSERT_TRUE(dg.erase(0, 5));
  EXPECT_EQ(dg.fingerprint(), before);  // identity, not history
}

TEST(ServeDynamicGraph, FromSortedAdjacencyValidation) {
  EXPECT_THROW(Graph::from_sorted_adjacency({{1, 0}, {0}, {0}}),
               std::invalid_argument);  // unsorted list
  EXPECT_THROW(Graph::from_sorted_adjacency({{0}, {}}),
               std::invalid_argument);  // self-loop
  EXPECT_THROW(Graph::from_sorted_adjacency({{5}, {0}}),
               std::invalid_argument);  // out of range
  const Graph g = make_graph(30, 3.0, 11);
  DynamicGraph dg(g);
  const Graph rebuilt = Graph::from_sorted_adjacency(dg.adjacency());
  EXPECT_EQ(rebuilt.num_edges(), g.num_edges());
}

// --------------------------------------------------- region certification --

TEST(ServeRegionValid, AcceptsValidSetAndIsLocalToTheRegion) {
  std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  DynamicGraph dg(Graph::from_edges(6, path));
  const std::vector<VertexId> set = {0, 3};
  const std::vector<VertexId> all = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(region_valid(dg, set, 2, all));

  // Vertex 5 is 3 hops from the lone member: dirty iff the region says so.
  const std::vector<VertexId> lone = {0};
  const std::vector<VertexId> far = {5};
  const std::vector<VertexId> near = {1, 2};
  EXPECT_FALSE(region_valid(dg, lone, 2, far));
  EXPECT_TRUE(region_valid(dg, lone, 2, near));
}

TEST(ServeRegionValid, RejectsIndependenceAndDominationViolations) {
  std::vector<Edge> path = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  DynamicGraph dg(Graph::from_edges(6, path));
  const std::vector<VertexId> adjacent = {0, 1};
  const std::vector<VertexId> all = {0, 1, 2, 3, 4, 5};
  EXPECT_FALSE(region_valid(dg, adjacent, 2, all));
  const std::vector<VertexId> oob = {0, 99};
  EXPECT_FALSE(region_valid(dg, oob, 2, all));
}

// ------------------------------------------------------------ greedy tier --

TEST(ServeGreedy, CascadeRepairMatchesFromScratchAcrossBetas) {
  for (std::uint32_t beta : {1u, 2u, 3u}) {
    ServiceConfig cfg;
    cfg.options.algorithm = Algorithm::kGreedySequential;
    cfg.options.beta = beta;
    cfg.full_threshold = 0.95;  // keep every epoch on the frontier tier
    const Graph g = make_graph(120, 4.0, 100 + beta);
    RulingSetService service(g, cfg);
    for (std::uint64_t b = 0; b < 4; ++b) {
      const UpdateBatch batch = chaos_churn_batch(5, beta, b, 120, 18);
      service.apply(batch);
      const RulingSetResult truth =
          compute_ruling_set(service.snapshot(), cfg.options);
      ASSERT_EQ(service.ruling_set(), truth.ruling_set)
          << "beta=" << beta << " batch=" << b;
    }
    EXPECT_GT(service.metrics().cascade_repairs, 0u) << "beta=" << beta;
    EXPECT_GT(service.metrics().certifications_region, 0u) << "beta=" << beta;
  }
}

// --------------------------------------------------------------- MPC tier --

// The churn-parity contract of DESIGN.md §4.7, pinned byte-for-byte: after
// every drained batch, a from-scratch compute_ruling_set on the current
// snapshot with last_repair_options() reproduces the maintained set, the
// full metrics ledger, and the record-log body (trace lines with wall time
// zeroed) — for every MPC algorithm, at every simulator thread width.
TEST(ServeMpc, ChurnParityAllAlgorithmsAcrossThreadWidths) {
  constexpr std::uint64_t kN = 64;
  constexpr std::uint64_t kBatches = 3;
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model != Model::kMpc) continue;
    std::vector<std::vector<VertexId>> width_sets;  // per width, final set
    for (unsigned threads : {1u, 4u, 0u}) {  // 0 = hardware concurrency
      std::vector<std::string> service_lines;
      ServiceConfig cfg;
      cfg.options.algorithm = info.algorithm;
      cfg.options.beta =
          info.max_beta == 0 ? std::max(info.min_beta, 2u) : info.min_beta;
      cfg.options.mpc.num_machines = 4;
      cfg.options.mpc.num_threads = threads;
      cfg.options.mpc.trace_hook = [&service_lines](
                                       const mpc::RoundTrace& trace) {
        service_lines.push_back(record_line(trace));
      };
      cfg.full_certify_every = 2;  // alternate region and full certification
      RulingSetService service(make_graph(kN, 4.0, 42), cfg);
      std::vector<VertexId> final_set;
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        service_lines.clear();
        const UpdateBatch batch = chaos_churn_batch(9, 1, b, kN, 12);
        const BatchReport report = service.apply(batch);
        ASSERT_TRUE(report.certified);

        std::vector<std::string> oracle_lines;
        RulingSetOptions oracle = service.last_repair_options();
        oracle.mpc.trace_hook = [&oracle_lines](const mpc::RoundTrace& trace) {
          oracle_lines.push_back(record_line(trace));
        };
        const RulingSetResult truth =
            compute_ruling_set(service.snapshot(), oracle);
        ASSERT_EQ(service.ruling_set(), truth.ruling_set)
            << info.name << " threads=" << threads << " batch=" << b;
        if (report.scope != RepairScope::kSkip) {
          // A rerun happened this batch: its ledger and trace body must be
          // byte-identical to the oracle's.
          const mpc::MpcMetrics& repaired =
              service.last_repair_result().metrics;
          EXPECT_TRUE(repaired == truth.metrics)
              << metrics_json(repaired) << " vs "
              << metrics_json(truth.metrics);
          EXPECT_EQ(service_lines, oracle_lines)
              << info.name << " threads=" << threads << " batch=" << b;
          EXPECT_FALSE(service_lines.empty());
        }
        final_set = service.ruling_set();
      }
      width_sets.push_back(std::move(final_set));
    }
    // The maintained set is also invariant across simulator thread widths.
    ASSERT_EQ(width_sets.size(), 3u);
    EXPECT_EQ(width_sets[0], width_sets[1]) << info.name;
    EXPECT_EQ(width_sets[0], width_sets[2]) << info.name;
  }
}

// ------------------------------------------------------ admission control --

TEST(ServeAdmission, OverBudgetBatchesSplitDeferAndDrainWithoutLoss) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.admit_budget = 2;
  cfg.max_epochs_per_apply = 1;
  const Graph g = make_graph(80, 3.0, 21);
  RulingSetService service(g, cfg);

  UpdateBatch batch;
  for (VertexId i = 0; i + 1 < 20; i += 2) {
    batch.updates.push_back({EdgeUpdate::Op::kInsert, i, i + 1});
  }
  ServiceConfig uncapped;
  uncapped.options = cfg.options;
  RulingSetService twin(g, uncapped);  // no admission caps
  twin.apply(batch);

  BatchReport report = service.apply(batch);
  EXPECT_EQ(report.epochs, 1u);
  EXPECT_GT(report.deferred, 0u);
  std::uint64_t drains = 0;
  while (service.pending() > 0) {
    report = service.drain();
    EXPECT_LE(report.epochs, 1u);
    ++drains;
    ASSERT_LT(drains, 100u) << "drain loop did not converge";
  }
  EXPECT_GT(drains, 1u);  // the batch really was split across epochs
  // Deferred-not-dropped: once drained, state matches the uncapped twin.
  EXPECT_EQ(service.graph().fingerprint(), twin.graph().fingerprint());
  EXPECT_EQ(service.ruling_set(), twin.ruling_set());
  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.updates_applied + m.updates_noop, m.updates_seen);
}

TEST(ServeAdmission, CancelledBatchCommitsNoEpoch) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  const Graph g = make_graph(40, 3.0, 33);
  RulingSetService service(g, cfg);
  const std::uint64_t epoch_before = service.epoch();

  // Insert a present edge and delete an absent one: zero effective updates.
  const VertexId u = 0;
  const VertexId v = g.neighbors(0).front();
  VertexId absent_v = 1;
  while (service.graph().has_edge(39, absent_v)) ++absent_v;
  UpdateBatch noop;
  noop.updates.push_back({EdgeUpdate::Op::kInsert, u, v});
  noop.updates.push_back({EdgeUpdate::Op::kDelete, 39, absent_v});
  const BatchReport report = service.apply(noop);
  EXPECT_EQ(report.scope, RepairScope::kSkip);
  EXPECT_EQ(report.epochs, 0u);
  EXPECT_EQ(report.effective_updates, 0u);
  EXPECT_EQ(service.epoch(), epoch_before);
  EXPECT_EQ(service.metrics().skips, 1u);
  EXPECT_EQ(service.metrics().updates_noop, 2u);
}

// ------------------------------------------------------- retry relaxation --

TEST(ServeRetry, DeadlineMissesRelaxExponentiallyAndConverge) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kDetRulingMpc;
  cfg.options.beta = 2;
  cfg.options.mpc.num_machines = 4;
  cfg.options.mpc.round_deadline = 1;  // every phase is a straggler
  cfg.max_repair_retries = 2;
  const Graph g = make_graph(64, 4.0, 55);
  RulingSetService service(g, cfg);
  // The initial repair trips the SLO, retries with the deadline doubled,
  // and the final attempt drops it entirely.
  EXPECT_GT(service.metrics().repair_retries, 0u);
  EXPECT_EQ(service.last_repair_options().mpc.round_deadline, 0u);
  // Deadlines never change outputs: parity with an unconstrained run.
  RulingSetOptions free_opts = cfg.options;
  free_opts.mpc.round_deadline = 0;
  EXPECT_EQ(service.ruling_set(),
            compute_ruling_set(g, free_opts).ruling_set);
}

// ------------------------------------------------------------- escalation --

TEST(ServeEscalation, ChurnAboveThresholdForcesFullRecompute) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.full_threshold = 0.0;  // any effective update escalates
  const Graph g = make_graph(60, 3.0, 77);
  RulingSetService service(g, cfg);
  UpdateBatch batch;
  batch.updates.push_back({EdgeUpdate::Op::kInsert, 0, 59});
  const BatchReport report = service.apply(batch);
  EXPECT_EQ(report.scope, RepairScope::kFull);
  EXPECT_GT(service.metrics().repairs_full, 1u);  // init + escalated epoch
  EXPECT_GT(service.metrics().certifications_full, 1u);
  EXPECT_EQ(service.metrics().cascade_repairs, 0u);
  EXPECT_EQ(service.ruling_set(),
            compute_ruling_set(service.snapshot(), cfg.options).ruling_set);
}

// ---------------------------------------------------------------- journal --

struct SimulatedCrash {};

TEST(ServeJournal, CrashMidBatchRecoversToLastCommittedEpoch) {
  const std::string journal = ::testing::TempDir() + "serve_crash.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  const Graph g = make_graph(60, 4.0, 13);

  ServiceConfig twin_cfg = cfg;
  twin_cfg.journal_path.clear();
  RulingSetService twin(g, twin_cfg);

  RulingSetService service(g, cfg);
  const UpdateBatch batch0 = chaos_churn_batch(3, 0, 0, 60, 16);
  const UpdateBatch batch1 = chaos_churn_batch(3, 0, 1, 60, 16);
  twin.apply(batch0);
  service.apply(batch0);
  const std::uint64_t committed = service.epoch();
  ASSERT_GT(committed, 0u);

  service.crash_hook = [](std::string_view stage) {
    if (stage == "pre-commit") throw SimulatedCrash{};
  };
  EXPECT_THROW(service.apply(batch1), SimulatedCrash);

  RulingSetService recovered = RulingSetService::recover(cfg);
  EXPECT_EQ(recovered.epoch(), committed);
  EXPECT_EQ(recovered.metrics().recoveries, 1u);
  EXPECT_EQ(recovered.ruling_set(), twin.ruling_set());
  EXPECT_EQ(recovered.graph().fingerprint(), twin.graph().fingerprint());

  // The crashed batch was never durably admitted; the client resubmits it
  // and both histories converge to the same bits.
  recovered.apply(batch1);
  twin.apply(batch1);
  EXPECT_EQ(recovered.epoch(), twin.epoch());
  EXPECT_EQ(recovered.ruling_set(), twin.ruling_set());
  EXPECT_EQ(recovered.graph().fingerprint(), twin.graph().fingerprint());
}

TEST(ServeJournal, PrevGenerationSurvivesCorruptPrimary) {
  const std::string journal = ::testing::TempDir() + "serve_prev.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  RulingSetService service(make_graph(50, 3.0, 17), cfg);
  UpdateBatch batch;
  batch.updates.push_back({EdgeUpdate::Op::kInsert, 0, 49});
  service.apply(batch);  // rotates the epoch-0 journal to .prev
  ASSERT_EQ(service.epoch(), 1u);

  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  RulingSetService recovered = RulingSetService::recover(cfg);
  EXPECT_EQ(recovered.epoch(), 0u);  // one corrupt generation costs one epoch
  recovered.apply(batch);
  EXPECT_EQ(recovered.epoch(), 1u);
  EXPECT_EQ(recovered.ruling_set(), service.ruling_set());
}

TEST(ServeJournal, RecoverRejectsMismatchedConfigAndMissingJournal) {
  const std::string journal = ::testing::TempDir() + "serve_mismatch.rsj";
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = journal;
  RulingSetService service(make_graph(30, 3.0, 19), cfg);
  (void)service;

  ServiceConfig wrong_beta = cfg;
  wrong_beta.options.beta = 3;
  EXPECT_THROW(RulingSetService::recover(wrong_beta), ServiceError);
  ServiceConfig wrong_alg = cfg;
  wrong_alg.options.algorithm = Algorithm::kDetRulingMpc;
  EXPECT_THROW(RulingSetService::recover(wrong_alg), ServiceError);
  ServiceConfig no_path = cfg;
  no_path.journal_path.clear();
  EXPECT_THROW(RulingSetService::recover(no_path), ServiceError);
  ServiceConfig missing = cfg;
  missing.journal_path = ::testing::TempDir() + "serve_no_such.rsj";
  EXPECT_THROW(RulingSetService::recover(missing), ServiceError);
}

TEST(ServeJournal, UnwritableJournalSurfacesAsServiceError) {
  ServiceConfig cfg;
  cfg.options.algorithm = Algorithm::kGreedySequential;
  cfg.options.beta = 2;
  cfg.journal_path = ::testing::TempDir() + "serve_no_such_dir/j.rsj";
  EXPECT_THROW(RulingSetService(make_graph(30, 3.0, 19), cfg), ServiceError);
}

// -------------------------------------------------------------- churn soak --

TEST(ServeChurnSoak, DeterministicBatchGeneration) {
  const serve::UpdateBatch a = chaos_churn_batch(1, 2, 3, 100, 24);
  const serve::UpdateBatch b = chaos_churn_batch(1, 2, 3, 100, 24);
  EXPECT_EQ(a.updates, b.updates);
  const serve::UpdateBatch c = chaos_churn_batch(1, 2, 4, 100, 24);
  EXPECT_NE(a.updates, c.updates);
  for (const EdgeUpdate& u : a.updates) {
    EXPECT_NE(u.u, u.v);
    EXPECT_LT(u.u, 100u);
    EXPECT_LT(u.v, 100u);
  }
}

TEST(ServeChurnSoak, MixedFaultChurnSmokePassesWithCrashRecovery) {
  ChurnOptions options;
  options.schedules = 2;
  options.base_seed = 5;
  options.n = 60;
  options.avg_deg = 4.0;
  options.machines = 4;
  options.batches = 3;
  options.batch_updates = 12;
  options.certify = true;
  options.journal_dir = ::testing::TempDir();
  const ChurnReport report = run_churn_soak(options);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << "schedule " << f.schedule << " [" << f.algorithm
                  << "]: " << f.what;
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.schedules_run, 2u);
  EXPECT_GT(report.runs, 0u);
  EXPECT_GT(report.epochs, 0u);
  // Schedule 0 is a crash schedule: every algorithm's service dies at the
  // pre-commit hook of the middle batch and must recover from its journal.
  EXPECT_GT(report.crashes_injected, 0u);
  EXPECT_EQ(report.recoveries, report.crashes_injected);
  EXPECT_EQ(report.certified, report.runs);
  // Exact counters of this configuration: how the batches reach the
  // service (ingest front, producer count) must not move the repair mix.
  EXPECT_EQ(report.epochs, 55u);
  EXPECT_EQ(report.updates_applied, 250u);
  EXPECT_EQ(report.skips, 5u);
  EXPECT_EQ(report.frontier_repairs, 60u);
  EXPECT_EQ(report.full_recomputes, 10u);
  EXPECT_EQ(report.cascade_repairs, 12u);
  EXPECT_EQ(report.region_certifications, 55u);
  EXPECT_EQ(report.full_certifications, 15u);
  EXPECT_EQ(report.faults_injected, 958u);
  EXPECT_EQ(report.crashes_injected, 5u);
  // With one producer the soak runs the whole battery, brute-force point
  // queries and the twin comparison included.
  EXPECT_GT(report.query_checks, 0u);
  EXPECT_GT(report.heartbeats, 0u);
}

}  // namespace
}  // namespace rsets::serve
