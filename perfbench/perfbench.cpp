// The repository benchmark: one closed-loop client drives one workload
// through the library's public entry points for a fixed measuring time,
// checks every output, and prints the result as JSON.
//
//   rsets_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans FILE] [--tmp-dir DIR]
//
// A run is a sequence of passes. A pass makes the input resident (setup),
// solves it to a certified set, checks the set, and answers query batches;
// serve_churn also applies ~100 churn batches to a resident service. Passes
// repeat until the measuring time is used up, and every timing is a median
// (or pooled percentile) over them.
//
// With --trace 1 the measured passes record spans around every layer call,
// and three probes follow: one untraced pass (the baseline for
// trace_overhead and the 1-worker side of the thread-width probe), the same
// pass at nproc simulator workers, and a direct derand_mark call on
// dense_phases. The last stdout line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Lines before it carry the host stamp and the run details (sample counts,
// digests, failure rate with its denominator). run.py wraps this binary.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.hpp"
#include "core/derand.hpp"
#include "core/det_ruling.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "graph/verify.hpp"
#include "mpc/certify.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/simulator.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "span_recorder.hpp"
#include "util/bits.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using rsets::Graph;
using rsets::VertexId;
namespace mpc = rsets::mpc;
namespace serve = rsets::serve;
namespace shard = rsets::shard;

// Every gated run: 1 simulator worker, 8 machines, S = 2^26 words.
constexpr mpc::MachineId kMachines = 8;
constexpr std::size_t kMemoryWords = std::size_t{1} << 26;
constexpr std::uint32_t kBeta = 2;

SpanRecorder g_rec;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + salt;
  return rsets::splitmix64(state);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(std::max<std::size_t>(rank, 1), xs.size()) - 1];
}

std::uint64_t set_digest(const std::vector<VertexId>& set,
                         std::uint64_t h = rsets::kFnvOffsetBasis) {
  h = rsets::fnv1a_word(h, set.size());
  for (VertexId v : set) h = rsets::fnv1a_word(h, v);
  return h;
}

// Folds all 17 MpcMetrics fields, in declaration order.
std::uint64_t ledger_digest(const mpc::MpcMetrics& m,
                            std::uint64_t h = rsets::kFnvOffsetBasis) {
  for (std::uint64_t field :
       {m.rounds, m.messages, m.total_words, m.max_send_words,
        m.max_recv_words, static_cast<std::uint64_t>(m.max_storage_words),
        m.violations, m.random_words, m.faults_injected, m.checkpoints,
        m.recovery_rounds, m.degraded_subrounds, m.deadline_misses,
        m.speculative_rounds, m.corrupt_detected, m.integrity_retries,
        m.quarantined_rounds}) {
    h = rsets::fnv1a_word(h, field);
  }
  return h;
}

std::string json_list(const std::vector<double>& xs) {
  std::ostringstream out;
  out << std::setprecision(6) << "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out << (i ? "," : "") << xs[i];
  return out.str() + "]";
}

std::string hex(std::uint64_t x) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << x;
  return out.str();
}

// The simulator's per-phase trace hook, recorded as finished `mpc.phase`
// spans under the innermost open span. The span count carries the phase's
// largest inbox.
mpc::TraceHook phase_hook() {
  return [](const mpc::RoundTrace& t) {
    g_rec.add_finished("mpc.phase", t.wall_ms / 1e3, t.max_recv_words);
  };
}

mpc::MpcConfig gated_config(bool traced, unsigned threads) {
  mpc::MpcConfig cfg;
  cfg.num_machines = kMachines;
  cfg.memory_words = kMemoryWords;
  cfg.num_threads = threads;
  if (traced) cfg.trace_hook = phase_hook();
  return cfg;
}

// Times `fn` and wraps it in a span named `name`.
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  ScopedSpan span(g_rec, name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  double setup_s = 0.0;
  double solve_s = 0.0;
  std::vector<double> epoch_ms;
  double apply_s = 0.0;         // serve: total time inside apply()
  std::uint64_t raw_updates = 0;  // serve: raw updates; static: input edges
  double query_s = 0.0;
  std::uint64_t queries = 0;
  std::vector<double> query_rates;  // per batch, queries per second

  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
  std::uint64_t set_digest = 0;
  std::uint64_t ledger_digest = 0;

  std::uint64_t phases = 0;
  std::uint64_t mark_steps = 0;
  std::uint64_t derand_chunks = 0;
  std::uint64_t certify_rounds = 0;
  std::uint64_t raw_edges = 0;  // sharded input only

  // serve_churn only.
  std::uint64_t effective_updates = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t dirty_vertices = 0;
  std::uint64_t certs_region = 0;
  std::uint64_t certs_full = 0;
  double snapshot_s = 0.0;

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

// Checks a certified set: sequential validity, the in-model certificate and
// its cross-validation (the latter two were computed inside the solve).
void check_set(PassResult& r, const Graph& g,
               const std::vector<VertexId>& set,
               const rsets::RulingSetCertificate& cert,
               bool cross_validated) {
  bool valid = false;
  {
    ScopedSpan span(g_rec, "graph.is_beta_ruling_set");
    valid = rsets::is_beta_ruling_set(g, set, kBeta);
  }
  if (!valid) r.fail("set is not a beta-ruling set");
  if (!cert.valid()) r.fail("in-model certificate rejects the set");
  if (!cross_validated) r.fail("certificate failed cross-validation");
}

// Deterministic query vertices for one batch.
std::vector<VertexId> query_vertices(std::uint64_t seed, std::uint64_t batch,
                                     VertexId n, std::size_t count) {
  rsets::Rng rng = rsets::Rng::for_stream(seed, batch);
  std::vector<VertexId> out(count);
  for (VertexId& v : out) v = static_cast<VertexId>(rng.next() % n);
  return out;
}

// Answers one batch of nearest_member queries, timed as a whole, and checks
// every answer against the β-ruling-set contract.
void query_batch(PassResult& r, const serve::QuerySnapshot& snap,
                 const std::vector<VertexId>& vertices) {
  std::vector<serve::PointQueryResult> answers(vertices.size());
  const double s = timed("serve.query_batch", [&] {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      answers[i] = snap.nearest_member(vertices[i]);
    }
  });
  r.query_s += s;
  r.queries += vertices.size();
  r.query_rates.push_back(static_cast<double>(vertices.size()) / s);
  ++r.attempted;
  for (const serve::PointQueryResult& a : answers) {
    if (!a.covered || a.distance > snap.beta() ||
        !snap.is_member(a.member)) {
      r.fail("query answer violates the ruling-set contract");
      return;
    }
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  // One closed-loop pass; exceptions are caught by the caller.
  virtual PassResult pass(const mpc::MpcConfig& cfg) = 0;
  // Direct timed derand_mark call (dense_phases only).
  virtual double derand_mark_probe(PassResult&) { return 0.0; }
};

// --------------------------------------------------------------------------
// dense_phases: gnp n=16000, p=sqrt(n)/n, det_ruling_mpc at budget 8n — the
// paper's derandomized marking phase does nearly all the work.
class DensePhases : public Workload {
 public:
  static constexpr VertexId kN = 16000;
  static constexpr std::size_t kQueryBatches = 20;
  static constexpr std::size_t kQueriesPerBatch = 1000;

  explicit DensePhases(std::uint64_t seed)
      : seed_(seed), graph_seed_(derive_seed(seed, 1)) {
    options_.beta = kBeta;
    options_.gather_budget_words = 8ull * kN;
  }

  Graph generate() const {
    return rsets::gen::gnp(kN, std::sqrt(double{kN}) / kN, graph_seed_);
  }

  PassResult pass(const mpc::MpcConfig& cfg) override {
    PassResult r;
    ++r.attempted;
    Graph g;
    std::optional<mpc::Simulator> sim;
    std::optional<mpc::DistGraph> dg;
    r.setup_s = timed("setup", [&] {
      timed("graph.gnp", [&] { g = generate(); });
      timed("mpc.simulator", [&] { sim.emplace(cfg); });
      timed("mpc.dist_graph", [&] { dg.emplace(*sim, g); });
    });
    r.raw_updates = g.num_edges();

    rsets::RulingSetResult res;
    rsets::RulingSetCertificate cert;
    bool cross = false;
    r.solve_s = timed("solve", [&] {
      timed("core.det_ruling_set_mpc",
            [&] { res = rsets::det_ruling_set_mpc(*sim, *dg, options_); });
      timed("certify.certify_ruling_set", [&] {
        cert = mpc::certify_ruling_set(g, res.ruling_set, kBeta, cfg);
      });
      timed("certify.cross_validate", [&] {
        cross = rsets::cross_validate_certificate(g, res.ruling_set, cert);
      });
    });
    r.epoch_ms.push_back(r.solve_s * 1e3);
    record_solve(r, res, cert);
    check_set(r, g, res.ruling_set, cert, cross);

    serve::QuerySnapshot snap(0, kBeta, std::move(g), res.ruling_set);
    for (std::size_t b = 0; b < kQueryBatches; ++b) {
      query_batch(r, snap,
                  query_vertices(seed_, b, kN, kQueriesPerBatch));
    }
    return r;
  }

  // The first mark step of the driver, called directly: same targets,
  // levels, and budget as det_ruling_set_mpc computes them for phase 1.
  double derand_mark_probe(PassResult& r) override {
    const Graph g = generate();
    mpc::Simulator sim(gated_config(false, 1));
    mpc::DistGraph dg(sim, g);
    const std::uint64_t budget = options_.gather_budget_words;
    const double m = static_cast<double>(g.num_edges());
    std::uint32_t d = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(32.0 * m / static_cast<double>(budget))));
    d = std::min(std::max<std::uint32_t>(d, 2), g.max_degree());
    const int k_budget = static_cast<int>(
        std::ceil(0.5 * std::log2(32.0 * m / static_cast<double>(budget))));
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) >= d) targets.push_back(v);
    }
    rsets::DerandMarkOptions opt;
    opt.chunk_bits = options_.chunk_bits;
    opt.levels = std::max(std::max(rsets::ceil_log2(d + 1), k_budget), 1);
    opt.edge_budget = budget;
    const std::vector<bool> all(g.num_vertices(), true);
    rsets::DerandMarkResult mark;
    ++r.attempted;
    const double s = timed("core.derand_mark", [&] {
      mark = rsets::derand_mark(sim, dg, all, targets, opt);
    });
    if (8 * mark.covered_targets < targets.size() ||
        mark.final_estimate < mark.initial_estimate - 1e-9) {
      r.fail("derand_mark broke its coverage guarantee");
    }
    return s;
  }

  static void record_solve(PassResult& r, const rsets::RulingSetResult& res,
                           const rsets::RulingSetCertificate& cert) {
    r.rounds = res.metrics.rounds;
    r.words = res.metrics.total_words;
    r.set_digest = set_digest(res.ruling_set);
    r.ledger_digest = ledger_digest(res.metrics);
    r.phases = res.phases;
    r.mark_steps = res.mark_steps;
    r.derand_chunks = res.derand_chunks;
    r.certify_rounds = cert.rounds;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t graph_seed_;
  rsets::DetRulingOptions options_;
};

// --------------------------------------------------------------------------
// sharded_gather: graph500 scale=18, edgefactor=16 streamed into an in-RAM
// shard CSR, det_ruling_mpc at the default budget (phases=0: one gather and
// a local greedy), then sharded certification that re-ingests the shards.
class ShardedGather : public Workload {
 public:
  static constexpr std::size_t kQueryBatches = 20;
  static constexpr std::size_t kQueriesPerBatch = 1000;

  explicit ShardedGather(std::uint64_t seed) : seed_(seed) {
    spec_.family = shard::ShardFamily::kGraph500;
    spec_.scale = 18;
    spec_.edgefactor = 16;
    spec_.seed = derive_seed(seed, 2);
    // The sequential reference the checks compare against; built once per
    // process, outside every timed section.
    reference_ = shard::materialize(spec_);
  }

  PassResult pass(const mpc::MpcConfig& cfg) override {
    PassResult r;
    ++r.attempted;
    std::unique_ptr<shard::ShardedSource> src;
    std::optional<mpc::Simulator> sim;
    std::optional<mpc::DistGraph> dg;
    const shard::IngestOptions ingest;  // in-RAM CSR
    r.setup_s = timed("setup", [&] {
      timed("shard.make_sharded_source",
            [&] { src = shard::make_sharded_source(spec_, kMachines); });
      timed("mpc.simulator", [&] { sim.emplace(cfg); });
      const int span = g_rec.open("shard.ingest");
      dg.emplace(*sim, *src, ingest);
      g_rec.set_count(span, src->raw_edges());
      g_rec.close(span);
    });
    r.raw_updates = src->raw_edges();
    r.raw_edges = src->raw_edges();

    rsets::RulingSetResult res;
    rsets::RulingSetCertificate cert;
    bool cross = false;
    r.solve_s = timed("solve", [&] {
      timed("core.det_ruling_set_mpc",
            [&] { res = rsets::det_ruling_set_mpc(*sim, *dg); });
      timed("certify.certify_ruling_set", [&] {
        cert = mpc::certify_ruling_set(*src, ingest, res.ruling_set, kBeta,
                                       cfg);
      });
      timed("certify.cross_validate", [&] {
        cross = rsets::cross_validate_certificate(reference_,
                                                  res.ruling_set, cert);
      });
    });
    r.epoch_ms.push_back(r.solve_s * 1e3);
    DensePhases::record_solve(r, res, cert);
    check_set(r, reference_, res.ruling_set, cert, cross);

    const serve::QuerySnapshot snap(0, kBeta, reference_, res.ruling_set);
    for (std::size_t b = 0; b < kQueryBatches; ++b) {
      query_batch(r, snap,
                  query_vertices(seed_, b, reference_.num_vertices(),
                                 kQueriesPerBatch));
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  shard::ShardSpec spec_;
  Graph reference_;
};

// --------------------------------------------------------------------------
// serve_churn: a resident RulingSetService (det_ruling_mpc, default budget,
// journaling on) absorbs 100 batches of 1% churn, each followed by a batch
// of nearest_member queries on the published snapshot. The pass ends with
// the from-scratch solve of the final graph, which must reproduce the
// service's set and last ledger bit for bit.
class ServeChurn : public Workload {
 public:
  static constexpr VertexId kN = 20000;
  static constexpr double kAvgDeg = 8.0;
  static constexpr std::uint64_t kBatches = 100;
  static constexpr std::uint64_t kChurnPermille = 10;
  static constexpr std::size_t kQueriesPerBatch = 1000;

  ServeChurn(std::uint64_t seed, std::string journal_dir)
      : seed_(seed),
        graph_seed_(derive_seed(seed, 3)),
        churn_seed_(derive_seed(seed, 4)),
        journal_dir_(std::move(journal_dir)) {}

  PassResult pass(const mpc::MpcConfig& cfg) override {
    PassResult r;
    const std::string journal = journal_dir_ + "/serve.rsj";
    std::filesystem::remove(journal);
    std::filesystem::remove(journal + ".prev");

    serve::ServiceConfig config;
    config.options.algorithm = rsets::Algorithm::kDetRulingMpc;
    config.options.beta = kBeta;
    config.options.mpc = cfg;
    config.journal_path = journal;

    Graph g;
    std::optional<serve::RulingSetService> service;
    ++r.attempted;
    r.setup_s = timed("setup", [&] {
      timed("graph.gnp",
            [&] { g = rsets::gen::gnp(kN, kAvgDeg / kN, graph_seed_); });
      timed("serve.construct", [&] { service.emplace(g, config); });
    });
    const std::uint64_t batch_updates =
        std::max<std::uint64_t>(1, g.num_edges() * kChurnPermille / 1000);

    std::uint64_t ledger = rsets::kFnvOffsetBasis;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      const serve::UpdateBatch batch = rsets::chaos_churn_batch(
          churn_seed_, kChurnPermille, b, kN, batch_updates);
      serve::BatchReport report;
      ++r.attempted;
      const double s = timed("serve.apply", [&] {
        report = service->apply(batch);
      });
      r.apply_s += s;
      r.epoch_ms.push_back(s * 1e3);
      r.raw_updates += batch.size();
      r.effective_updates += report.effective_updates;
      r.dirty_vertices += report.dirty_vertices;
      if (!report.certified) r.fail("epoch not certified");
      const mpc::MpcMetrics& m = service->last_repair_result().metrics;
      r.rounds += m.rounds;
      r.words += m.total_words;
      ledger = ledger_digest(m, ledger);
      r.journal_bytes += std::filesystem::file_size(journal);

      const serve::QueryHandle handle = service->query();
      query_batch(r, *handle,
                  query_vertices(seed_, b, kN, kQueriesPerBatch));
    }
    const serve::ServiceMetrics& sm = service->metrics();
    r.certs_region = sm.certifications_region;
    r.certs_full = sm.certifications_full;

    // From-scratch oracle on the final graph.
    Graph snapshot;
    r.snapshot_s =
        timed("serve.snapshot", [&] { snapshot = service->snapshot(); });
    rsets::RulingSetResult res;
    rsets::RulingSetCertificate cert;
    bool cross = false;
    ++r.attempted;
    r.solve_s = timed("solve", [&] {
      timed("core.compute_ruling_set", [&] {
        res = rsets::compute_ruling_set(snapshot,
                                        service->last_repair_options());
      });
      timed("certify.certify_ruling_set", [&] {
        cert = mpc::certify_ruling_set(snapshot, res.ruling_set, kBeta, cfg);
      });
      timed("certify.cross_validate", [&] {
        cross = rsets::cross_validate_certificate(snapshot, res.ruling_set,
                                                  cert);
      });
    });
    r.phases = res.phases;
    r.mark_steps = res.mark_steps;
    r.derand_chunks = res.derand_chunks;
    r.certify_rounds = cert.rounds;
    check_set(r, snapshot, res.ruling_set, cert, cross);
    if (res.ruling_set != service->ruling_set() ||
        ledger_digest(res.metrics) !=
            ledger_digest(service->last_repair_result().metrics)) {
      r.fail("incremental state differs from the from-scratch solve");
    }
    r.set_digest = set_digest(service->ruling_set());
    r.ledger_digest = ledger;
    return r;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t graph_seed_;
  std::uint64_t churn_seed_;
  std::string journal_dir_;
};

// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  std::string tmp_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rsets_perfbench: " << why
            << "\nusage: rsets_perfbench --workload "
               "dense_phases|sharded_gather|serve_churn --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--tmp-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--spans") {
        a.spans_path = value;
      } else if (key == "--tmp-dir") {
        a.tmp_dir = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "dense_phases") {
    return std::make_unique<DensePhases>(a.seed);
  }
  if (a.workload == "sharded_gather") {
    return std::make_unique<ShardedGather>(a.seed);
  }
  if (a.workload == "serve_churn") {
    return std::make_unique<ServeChurn>(a.seed, a.tmp_dir);
  }
  usage("unknown workload " + a.workload);
}

// Runs one pass, turning an exception into a counted failure.
PassResult run_pass(Workload& w, const mpc::MpcConfig& cfg) {
  try {
    return w.pass(cfg);
  } catch (const std::exception& e) {
    PassResult r;
    r.attempted = 1;
    r.fail(std::string("exception: ") + e.what());
    return r;
  }
}

// Per-run sums over the spans of the traced passes.
struct LayerTotals {
  double generate_s = 0.0;
  double ingest_s = 0.0;
  double phase_s = 0.0;
  std::uint64_t phase_count = 0;
  std::uint64_t max_recv_words = 0;
  double driver_s = 0.0;
  double certify_s = 0.0;
  double cross_validate_s = 0.0;
  double apply_s = 0.0;
  double repair_phase_s = 0.0;
  double layer_calls_s = 0.0;  // direct children of setup/solve + applies
};

std::map<std::uint64_t, LayerTotals> layer_totals() {
  const std::vector<Span>& spans = g_rec.spans();
  const std::vector<double> self = g_rec.self_times();
  std::map<std::uint64_t, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = out[s.run_id];
    const std::string parent =
        s.parent >= 0 ? spans[s.parent].name : std::string();
    const double d = s.duration();
    if (s.name == "graph.gnp") t.generate_s += d;
    if (s.name == "shard.ingest") t.ingest_s += d;
    if (s.name == "certify.certify_ruling_set") t.certify_s += d;
    if (s.name == "certify.cross_validate") t.cross_validate_s += d;
    if (s.name == "serve.apply") {
      t.apply_s += d;
      t.layer_calls_s += d;
    }
    if (parent == "setup" || parent == "solve") t.layer_calls_s += d;
    if (s.name.rfind("core.", 0) == 0 && parent == "solve") {
      t.driver_s += self[i];
    }
    if (s.name == "mpc.phase") {
      if (parent.rfind("core.", 0) == 0) {
        t.phase_s += d;
        ++t.phase_count;
        t.max_recv_words = std::max(t.max_recv_words, s.count);
      } else if (parent == "serve.apply") {
        t.repair_phase_s += d;
      }
    }
  }
  return out;
}

std::string host_name() {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) return "unknown";
  return host;
}

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

class MetricsWriter {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream out;
    out << std::setprecision(17) << value;
    entries_.push_back("\"" + name + "\":{\"value\":" + out.str() +
                       ",\"unit\":\"" + unit + "\"}");
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) s += ",";
      s += entries_[i];
    }
    return s + "}";
  }

 private:
  std::vector<std::string> entries_;
};

int run(const Args& a) {
  if (!release_build()) {
    std::cerr << "rsets_perfbench: refusing to measure a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "{\"host\":{\"nproc\":" << nproc << ",\"hostname\":\""
            << host_name() << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
            << "\"}}" << std::endl;

  std::unique_ptr<Workload> w = make_workload(a);

  // A first, unmeasured pass lets the allocator and page cache settle.
  const PassResult warmup = run_pass(*w, gated_config(false, 1));
  std::vector<PassResult> passes;      // measured passes
  std::optional<PassResult> baseline;  // traced run: untraced pass
  std::optional<PassResult> wide;      // traced run: nproc-worker probe
  double derand_mark_s = 0.0;
  PassResult probes;  // attempts/failures of the direct probes

  const auto start = Clock::now();
  g_rec.set_enabled(a.trace);
  double pass_s = 0.0;
  do {
    g_rec.set_run_id(passes.size() + 1);
    const auto t0 = Clock::now();
    passes.push_back(run_pass(*w, gated_config(a.trace, 1)));
    pass_s = seconds_since(t0);
  } while (seconds_since(start) + pass_s <= a.seconds);
  if (a.trace) {
    g_rec.set_enabled(false);
    baseline = run_pass(*w, gated_config(false, 1));
    wide = run_pass(*w, gated_config(false, nproc));
    g_rec.set_run_id(passes.size() + 1);
    g_rec.set_enabled(true);
    try {
      derand_mark_s = w->derand_mark_probe(probes);
    } catch (const std::exception& e) {
      probes.attempted = std::max<std::uint64_t>(probes.attempted, 1);
      probes.fail(std::string("exception: ") + e.what());
    }
    g_rec.set_enabled(false);
  }

  // Tally attempts and failures; every pass must reproduce pass 1's set
  // and ledger digests exactly.
  std::uint64_t attempted = probes.attempted;
  std::uint64_t failed = probes.failed;
  std::vector<std::string> errors = probes.errors;
  std::vector<const PassResult*> all = {&warmup};
  for (const PassResult& p : passes) all.push_back(&p);
  if (baseline) all.push_back(&*baseline);
  if (wide) all.push_back(&*wide);
  for (const PassResult* p : all) {
    attempted += p->attempted;
    failed += p->failed;
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
    if (p->failed == 0 && (p->set_digest != passes[0].set_digest ||
                           p->ledger_digest != passes[0].ledger_digest)) {
      ++failed;
      errors.push_back("set or ledger digest differs between passes");
    }
  }

  // Epoch percentiles and the update rate are per pass (100 epochs on
  // serve_churn, so p90 has 10 samples beyond it; one epoch, the certified
  // solve, on the static workloads), the query rate per batch; each is then
  // the median. Static workloads load their whole input as one bulk
  // update, so their update rate is input edges over setup time.
  std::vector<double> setup, solve, epochs, epoch_p50, epoch_p90, query_times,
      update_rates, query_rates;
  double query_s = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t queries = 0;
  for (const PassResult& p : passes) {
    if (p.failed > 0) continue;  // already counted; its timings are partial
    setup.push_back(p.setup_s);
    solve.push_back(p.solve_s);
    epochs.insert(epochs.end(), p.epoch_ms.begin(), p.epoch_ms.end());
    epoch_p50.push_back(percentile(p.epoch_ms, 0.50));
    epoch_p90.push_back(percentile(p.epoch_ms, 0.90));
    query_s += p.query_s;
    query_times.push_back(p.query_s);
    updates += p.raw_updates;
    queries += p.queries;
    const double update_s = p.apply_s > 0.0 ? p.apply_s : p.setup_s;
    update_rates.push_back(static_cast<double>(p.raw_updates) / update_s);
    query_rates.insert(query_rates.end(), p.query_rates.begin(),
                       p.query_rates.end());
  }
  const PassResult& first = passes[0];
  const bool serving = first.apply_s > 0.0;

  std::cout << "{\"detail\":{\"workload\":\"" << a.workload
            << "\",\"seed\":" << a.seed << ",\"trace\":" << a.trace
            << ",\"passes\":" << passes.size()
            << ",\"epoch_samples\":" << epochs.size()
            << ",\"queries\":" << queries << ",\"updates\":" << updates
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"failure_rate\":"
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << ",\"set_digest\":\"" << hex(first.set_digest)
            << "\",\"ledger_digest\":\"" << hex(first.ledger_digest)
            << "\",\"setup_s\":" << json_list(setup)
            << ",\"solve_s\":" << json_list(solve)
            << ",\"query_s\":" << json_list(query_times)
            << ",\"epoch_ms_p10_p50_p75_p90_p95_p99\":"
            << json_list({percentile(epochs, 0.10), percentile(epochs, 0.50),
                          percentile(epochs, 0.75), percentile(epochs, 0.90),
                          percentile(epochs, 0.95), percentile(epochs, 0.99)})
            << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size() && i < 8; ++i) {
    std::cout << (i ? "," : "") << std::quoted(errors[i]);
  }
  std::cout << "]}}" << std::endl;

  MetricsWriter m;
  if (!a.trace) {
    m.add("setup_s", median(setup), "s");
    m.add("solve_s", median(solve), "s");
    m.add("epoch_p50_ms", median(epoch_p50), "ms");
    m.add("epoch_p90_ms", median(epoch_p90), "ms");
    m.add("updates_per_s", median(update_rates), "1/s");
    m.add("queries_per_s", median(query_rates), "1/s");
    m.add("peak_rss_mb", static_cast<double>(rsets::peak_rss_kb()) / 1024.0,
          "MB");
    m.add("mpc_rounds", static_cast<double>(first.rounds), "count");
    m.add("mpc_words", static_cast<double>(first.words), "count");
  } else {
    const auto totals = layer_totals();
    auto per_pass = [&](auto field) {
      std::vector<double> xs;
      for (std::size_t i = 0; i < passes.size(); ++i) {
        const auto it = totals.find(i + 1);
        xs.push_back(it == totals.end()
                         ? 0.0
                         : static_cast<double>(field(it->second)));
      }
      return median(xs);
    };
    auto pass_median = [&](auto field) {
      std::vector<double> xs;
      for (const PassResult& p : passes) {
        xs.push_back(static_cast<double>(field(p)));
      }
      return median(xs);
    };
    const double ingest_s = per_pass([](const LayerTotals& t) {
      return t.ingest_s;
    });
    const double apply_total = per_pass([](const LayerTotals& t) {
      return t.apply_s;
    });
    const double repair_phase = per_pass([](const LayerTotals& t) {
      return t.repair_phase_s;
    });
    auto work = [](const PassResult& p) {
      return p.setup_s + p.solve_s + p.apply_s;
    };
    m.add("graph.generate_s",
          per_pass([](const LayerTotals& t) { return t.generate_s; }), "s");
    m.add("shard.ingest_s", ingest_s, "s");
    m.add("shard.ingest_edges_per_s",
          ingest_s > 0.0 ? static_cast<double>(first.raw_edges) / ingest_s
                         : 0.0,
          "1/s");
    m.add("shard.raw_edges", static_cast<double>(first.raw_edges), "count");
    m.add("mpc.phase_s",
          per_pass([](const LayerTotals& t) { return t.phase_s; }), "s");
    m.add("mpc.phase_count",
          per_pass([](const LayerTotals& t) { return t.phase_count; }),
          "count");
    m.add("mpc.max_recv_words",
          per_pass([](const LayerTotals& t) { return t.max_recv_words; }),
          "count");
    m.add("core.driver_s",
          per_pass([](const LayerTotals& t) { return t.driver_s; }), "s");
    m.add("core.phases", static_cast<double>(first.phases), "count");
    m.add("core.mark_steps", static_cast<double>(first.mark_steps), "count");
    m.add("core.derand_chunks", static_cast<double>(first.derand_chunks),
          "count");
    m.add("core.derand_mark_s", derand_mark_s, "s");
    m.add("certify.mpc_s",
          per_pass([](const LayerTotals& t) { return t.certify_s; }), "s");
    m.add("certify.cross_validate_s",
          per_pass([](const LayerTotals& t) { return t.cross_validate_s; }),
          "s");
    m.add("certify.rounds", static_cast<double>(first.certify_rounds),
          "count");
    m.add("serve.repair_phase_s", repair_phase, "s");
    m.add("serve.overhead_s", apply_total - repair_phase, "s");
    m.add("serve.snapshot_s",
          pass_median([](const PassResult& p) { return p.snapshot_s; }), "s");
    m.add("serve.journal_bytes", static_cast<double>(first.journal_bytes),
          "bytes");
    m.add("serve.dirty_vertices", static_cast<double>(first.dirty_vertices),
          "count");
    m.add("serve.certs_region", static_cast<double>(first.certs_region),
          "count");
    m.add("serve.certs_full", static_cast<double>(first.certs_full),
          "count");
    m.add("serve.effective_ratio",
          first.raw_updates > 0 && serving
              ? static_cast<double>(first.effective_updates) /
                    static_cast<double>(first.raw_updates)
              : 0.0,
          "ratio");
    m.add("serve.epochs", static_cast<double>(epochs.size()), "count");
    m.add("serve.query_us", query_s / static_cast<double>(queries) * 1e6,
          "us");
    m.add("mpc.speedup_tN", baseline->solve_s / wide->solve_s, "ratio");
    m.add("mpc.identical_tN",
          wide->failed == 0 && wide->set_digest == baseline->set_digest &&
                  wide->ledger_digest == baseline->ledger_digest
              ? 1.0
              : 0.0,
          "bool");
    m.add("trace_overhead", pass_median(work) / work(*baseline), "ratio");
    double covered = 0.0;
    double measured = 0.0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const auto it = totals.find(i + 1);
      if (it != totals.end()) covered += it->second.layer_calls_s;
      measured += work(passes[i]);
    }
    m.add("trace.coverage", covered / measured, "ratio");
    if (!a.spans_path.empty() && !g_rec.write_jsonl(a.spans_path)) {
      std::cerr << "rsets_perfbench: cannot write spans to " << a.spans_path
                << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "rsets_perfbench: " << e.what() << "\n";
    return 1;
  }
}
