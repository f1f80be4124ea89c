// Command-line front end: run any ruling-set algorithm on an edge-list file
// or a named synthetic generator, verify the output, and print metrics (and
// optionally the set itself) in a machine-friendly key=value format.
//
// Usage:
//   rsets_cli --input=graph.txt --algorithm=det_ruling_mpc --beta=2
//   rsets_cli --gen=gnp --n=10000 --avg_deg=8 --algorithm=luby_mpc --beta=1
//   rsets_cli --gen=power_law --n=5000 --algorithm=sample_gather_mpc
//             --beta=2 --machines=16 --threads=4 --trace=rounds.jsonl
//   rsets_cli --gen=gnp --n=5000 --faults=crash@5:2,drop~0.01,corrupt~0.02
//             --checkpoint-every=3 --record=run.jsonl
//   rsets_cli --replay=run.jsonl
//   rsets_cli --serve --gen=gnp --n=10000 --updates=stream.txt
//             --journal=state.rsj --admit-budget=64
//   rsets_cli --serve --recover --journal=state.rsj --updates=-
//
// Every algorithm — sequential, MPC, and CONGEST — goes through the unified
// compute_ruling_set dispatcher; --algorithm accepts any name from
// rsets::algorithm_registry().
//
// --record writes a replayable execution log (see core/replay.hpp for the
// format); --replay re-runs the recorded specification and byte-compares
// every regenerated line against the log, so a recorded execution — faults,
// checkpoints, recoveries, corruption healing and all — is checkably
// reproducible. --serve holds the graph resident and maintains its ruling
// set incrementally under an edge-update stream (see src/serve/), certifying
// every committed epoch. The chaos soaks have their own front end,
// tools/chaos_soak.
//
// Exit-code contract (documented in README "Exit codes"):
//   0  the output verified (and, under --paranoid, was certified and
//      cross-validated; under --replay, every line matched; under --serve,
//      every committed epoch certified)
//   1  the run completed but verification/certification/replay failed, or
//      the service could not maintain its certified contract
//   2  usage or input errors: bad flags, malformed graph files or update
//      streams, missing or unreadable replay logs/journals
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "serve/service.hpp"
#include "serve/updates.hpp"
#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "graph/shard/validator.hpp"
#include "graph/verify.hpp"
#include "mpc/certify.hpp"
#include "mpc/trace.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace {

using namespace rsets;

const char* model_name(Model m) {
  switch (m) {
    case Model::kSequential:
      return "sequential";
    case Model::kMpc:
      return "mpc";
    case Model::kCongest:
      return "congest";
  }
  return "?";
}

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: rsets_cli (--input=FILE | --gen=NAME --n=N | "
               "--replay=FILE | --sharded=SPEC)\n"
            << "  --algorithm=NAME   one of (default det_ruling_mpc):\n";
  for (const AlgorithmInfo& info : algorithm_registry()) {
    std::cerr << "      " << info.name;
    for (std::size_t pad = info.name.size(); pad < 22; ++pad) std::cerr << ' ';
    std::cerr << "[" << model_name(info.model) << "] " << info.summary
              << "\n";
  }
  std::cerr
      << "  --beta=B           ruling parameter (default: the algorithm's "
         "minimum)\n"
      << "  --gen=NAME         gnp|gnm|power_law|regular|ba|tree|grid\n"
      << "  --n=N --avg_deg=D --seed=S   generator parameters\n"
      << "  --machines=M --memory_words=W --budget=B   MPC knobs\n"
      << "  --threads=T        MPC simulator worker threads (1 sequential,\n"
      << "                     0 hardware concurrency; results identical)\n"
      << "  --budget-policy=P  strict (default: throw on violation) | trace\n"
      << "                     (count violations) | degrade (spill-and-resend\n"
      << "                     sub-rounds; same results, extra rounds)\n"
      << "  --deadline=W       per-round work budget; machines over it are\n"
      << "                     speculatively re-executed with backoff\n"
      << "  --integrity        checksum-verify every delivered message even\n"
      << "                     in fault-free runs (results byte-identical)\n"
      << "  --paranoid         certify the output in-model (O(beta) extra\n"
      << "                     rounds) and cross-validate the certificate\n"
      << "  --faults=SPEC      inject faults: crash@R:M, straggler@R:M[:D],\n"
      << "                     crash~P, straggler~P, drop~P, dup~P,\n"
      << "                     corrupt~P, reorder~P, seed=X\n"
      << "                     (comma-separated; results never change)\n"
      << "  --checkpoint-every=K   durable checkpoint every K rounds\n"
      << "  --record=FILE      write a replayable execution log (JSONL)\n"
      << "  --replay=FILE      re-run a recorded log and verify it matches\n"
      << "  --serve            long-lived service: hold the graph resident,\n"
      << "                     stream edge updates, repair incrementally on\n"
      << "                     the beta-hop frontier, certify every epoch\n"
      << "  --updates=FILE     update batches for --serve ('+ u v', '- u v',\n"
      << "                     'commit' lines; '-' reads stdin)\n"
      << "  --journal=FILE     sealed epoch journal for --serve (crash\n"
      << "                     recovery lands on the last committed epoch)\n"
      << "  --recover          restore --serve state from --journal instead\n"
      << "                     of recomputing from --input/--gen\n"
      << "  --admit-budget=N   max effective updates admitted per epoch\n"
      << "                     (0 unlimited; larger batches are split)\n"
      << "  --max-epochs=N     max epochs per batch; the excess is deferred\n"
      << "                     to later batches, never dropped\n"
      << "  --full-threshold=F churn fraction above which the service\n"
      << "                     escalates to full recompute + full certify\n"
      << "  --full-certify-every=K  full in-model certification every K\n"
      << "                     epochs (region-restricted otherwise)\n"
      << "  --repair-retries=N retry budget for repairs that trip the\n"
      << "                     degrade budget or the round deadline\n"
      << "  --producers=N      multi-producer ingest: --updates lines tagged\n"
      << "                     'p<ID> <payload>' route to producer ID\n"
      << "                     (untagged lines to p0); batches merge into\n"
      << "                     deterministic generations, one bad stream\n"
      << "                     quarantines/ejects only that producer\n"
      << "  --queue-cap=C      committed batches queued per producer before\n"
      << "                     backpressure (0 unbounded; a stream the cap\n"
      << "                     cannot admit single-threaded exits 2)\n"
      << "  --query=V[,V...]   after the stream drains, answer epoch-pinned\n"
      << "                     point queries (covered? nearest member?)\n"
      << "  --watchdog-deadline=W  per-epoch repair-work deadline: stuck\n"
      << "                     frontier repairs escalate to full, a stuck\n"
      << "                     full repair fail-stops (exit 1, journal\n"
      << "                     sealed); 0 disables\n"
      << "  --trace=FILE       per-round JSONL trace (MPC algorithms)\n"
      << "  --sharded=SPEC     stream the input as per-machine shards (no\n"
      << "                     global edge list): graph500:scale=S[,edgefactor=E]\n"
      << "                     | rmat:scale=S[,edgefactor=E,a=A,b=B,c=C]\n"
      << "                     | geometric3d:n=N,radius=R  (--seed applies);\n"
      << "                     MPC algorithms only\n"
      << "  --spill-dir=DIR    back the sharded adjacency with an mmapped\n"
      << "                     spill file in DIR (out-of-core ingestion)\n"
      << "  --validate-shards  run the cross-shard validator before computing\n"
      << "  --out=FILE         write the set, one vertex per line\n"
      << "  --print_set        print the set to stdout\n"
      << "  --verbose          debug logging\n"
      << "chaos soaks run in tools/chaos_soak (--schedules=N, --churn)\n";
  return 2;
}

RunSpec spec_from_flags(const Flags& flags) {
  RunSpec spec;
  spec.algorithm = flags.get("algorithm", "det_ruling_mpc");
  const auto algorithm = algorithm_from_name(spec.algorithm);
  if (!algorithm) {
    throw std::invalid_argument("unknown algorithm: " + spec.algorithm);
  }
  // Without an explicit --beta, run at the algorithm's minimum (an MIS
  // algorithm defaults to 1, the 2-ruling machinery to 2, ...).
  spec.beta = flags.has("beta")
                  ? static_cast<std::uint32_t>(flags.get_int("beta", 2))
                  : algorithm_info(*algorithm).min_beta;
  spec.input = flags.get("input", "");
  spec.gen = flags.get("gen", "");
  spec.n = static_cast<std::uint64_t>(flags.get_int("n", 10000));
  spec.avg_deg = flags.get_double("avg_deg", 8.0);
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  spec.machines = static_cast<std::uint32_t>(flags.get_int("machines", 8));
  spec.memory_words =
      static_cast<std::uint64_t>(flags.get_int("memory_words", 1 << 24));
  spec.threads = static_cast<std::uint32_t>(flags.get_int("threads", 1));
  spec.budget = static_cast<std::uint64_t>(flags.get_int("budget", 0));
  spec.faults = flags.get("faults", "");
  spec.checkpoint_every =
      static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 0));
  spec.budget_policy = flags.get("budget-policy", "strict");
  mpc::parse_budget_policy(spec.budget_policy);  // validate early
  spec.deadline = static_cast<std::uint64_t>(flags.get_int("deadline", 0));
  spec.integrity = flags.get_bool("integrity", false);
  return spec;
}

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.size() < 2) {
    std::cerr << "error: " << path << " is not a replay log (need meta and "
              << "summary lines)\n";
    return 2;
  }
  const ReplayReport report = replay_log(lines);
  std::cout << "replay=" << (report.ok() ? "ok" : "mismatch") << "\n"
            << "replay_file=" << path << "\n"
            << "algorithm=" << report.spec.algorithm << "\n"
            << "phases_checked=" << report.phases_checked << "\n"
            << "rounds=" << report.result.metrics.rounds << "\n"
            << "faults_injected=" << report.result.metrics.faults_injected
            << "\n"
            << "checkpoints=" << report.result.metrics.checkpoints << "\n"
            << "recovery_rounds=" << report.result.metrics.recovery_rounds
            << "\n"
            << "peak_rss_kb=" << peak_rss_kb() << "\n";
  if (!report.ok()) {
    std::cerr << "replay mismatch (" << report.mismatches
              << " total), first at " << report.first_mismatch << "\n";
    return 1;
  }
  return 0;
}

// The sharded front end: the input is described by --sharded=SPEC and never
// materialized as an edge list — the shards stream straight into the CSR
// Graph (in RAM, or spilled under --spill-dir), and the algorithm and the
// certifier both run on that Graph. Verification is the in-model
// certificate (the sequential checker is not run on out-of-core inputs), so
// exit 0 means the certificate validated.
int run_sharded(const Flags& flags) {
  const RunSpec spec = spec_from_flags(flags);
  RulingSetOptions options = options_from_spec(spec);
  const AlgorithmInfo& info = algorithm_info(options.algorithm);
  if (info.model != Model::kMpc) {
    return usage("--sharded runs MPC algorithms only; '" +
                 std::string(info.name) + "' is " + model_name(info.model));
  }
  check_beta(info, options.beta);
  const bool faulty =
      options.mpc.faults.enabled || options.mpc.checkpoint_every != 0;

  const shard::ShardSpec shard_spec =
      shard::parse_shard_spec(flags.get("sharded", ""), spec.seed);
  shard::IngestOptions ingest;
  if (flags.has("spill-dir")) {
    ingest.spill_dir = flags.get("spill-dir", "");
    shard::validate_spill_dir(ingest.spill_dir);
  }
  const auto src = shard::make_sharded_source(shard_spec, spec.machines);

  if (flags.get_bool("validate-shards", false)) {
    const shard::ShardValidationReport report =
        shard::validate_sharded_source(*src);
    std::cout << "shards_valid=" << (report.ok() ? 1 : 0) << "\n";
    if (!report.ok()) {
      std::cerr << report.to_string() << "\n";
      return 1;
    }
  }

  std::ofstream trace_out;
  if (flags.has("trace")) {
    trace_out.open(flags.get("trace", ""));
    if (!trace_out) {
      std::cerr << "error: cannot write " << flags.get("trace", "") << "\n";
      return 2;
    }
    options.mpc.trace_hook = [&trace_out](const mpc::RoundTrace& trace) {
      trace_out << mpc::to_json(trace) << "\n";
    };
  }

  const Graph g = shard::build_shard_csr(*src, ingest);
  const RulingSetResult result = compute_ruling_set(g, options);

  std::cout << "algorithm=" << info.name << "\n"
            << "model=mpc\n"
            << "sharded=" << shard_spec.to_string() << "\n"
            << "n=" << src->num_vertices() << "\n"
            << "raw_edges=" << src->raw_edges() << "\n"
            << "machines=" << spec.machines << "\n"
            << "beta=" << options.beta << "\n"
            << "size=" << result.ruling_set.size() << "\n"
            << "phases=" << result.phases << "\n"
            << "rounds=" << result.metrics.rounds << "\n"
            << "words=" << result.metrics.total_words << "\n"
            << "peak_memory_words=" << result.metrics.max_storage_words
            << "\n"
            << "random_words=" << result.metrics.random_words << "\n"
            << "violations=" << result.metrics.violations << "\n";
  if (faulty) {
    std::cout << "faults_injected=" << result.metrics.faults_injected << "\n"
              << "checkpoints=" << result.metrics.checkpoints << "\n"
              << "recovery_rounds=" << result.metrics.recovery_rounds << "\n";
  }

  // Certify on the Graph the algorithm ran on, in a clean-room simulator.
  const RulingSetCertificate cert =
      mpc::certify_ruling_set(g, result.ruling_set, options.beta, options.mpc);
  std::cout << "certificate=" << cert.to_string() << "\n"
            << "certify_rounds=" << cert.rounds << "\n"
            << "certified=" << (cert.valid() ? 1 : 0) << "\n"
            << "peak_rss_kb=" << peak_rss_kb() << "\n";

  if (flags.has("out")) {
    std::ofstream out(flags.get("out", ""));
    if (!out) {
      std::cerr << "error: cannot write " << flags.get("out", "") << "\n";
      return 2;
    }
    for (VertexId v : result.ruling_set) out << v << "\n";
  }
  if (flags.get_bool("print_set", false)) {
    for (VertexId v : result.ruling_set) std::cout << v << "\n";
  }
  return cert.valid() ? 0 : 1;
}

// The long-lived service front end: load (or --recover) the resident graph,
// stream update batches from --updates (a file, or stdin as "-"), maintain
// the ruling set incrementally, and certify every epoch. With --producers=N
// the stream is producer-tagged ("p<ID> <payload>") and routed through the
// multi-producer ingest front: batches merge into deterministic generations
// and a bad stream strikes/ejects only its own producer. One key=value
// stanza per applied batch (or generation/tombstone), then a summary; exit 0
// only when every epoch certified, 1 when the service could not maintain its
// certified contract (certification/repair failure, or a watchdog fail-stop
// sealing the journal), 2 for usage/input errors (including a bad producer
// tag or a stream the --queue-cap can never admit single-threaded).
int run_serve(const Flags& flags) {
  const RunSpec spec = spec_from_flags(flags);
  serve::ServiceConfig cfg;
  cfg.options = options_from_spec(spec);
  cfg.admit_budget =
      static_cast<std::uint64_t>(flags.get_int("admit-budget", 0));
  cfg.max_epochs_per_apply =
      static_cast<std::uint64_t>(flags.get_int("max-epochs", 0));
  cfg.full_certify_every =
      static_cast<std::uint64_t>(flags.get_int("full-certify-every", 16));
  cfg.max_repair_retries =
      static_cast<std::uint32_t>(flags.get_int("repair-retries", 3));
  cfg.full_threshold = flags.get_double("full-threshold", 0.10);
  cfg.journal_path = flags.get("journal", "");
  cfg.watchdog_deadline =
      static_cast<std::uint64_t>(flags.get_int("watchdog-deadline", 0));

  std::optional<serve::RulingSetService> recovered;
  if (flags.get_bool("recover", false)) {
    // A journal that cannot be read or decoded is an input error (exit 2),
    // distinct from a live service failing its certified contract (exit 1).
    try {
      recovered.emplace(serve::RulingSetService::recover(cfg));
    } catch (const serve::ServiceError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  try {
    serve::RulingSetService service =
        recovered ? std::move(*recovered)
                  : serve::RulingSetService(build_graph(spec), cfg);

    const auto producers =
        static_cast<std::uint32_t>(flags.get_int("producers", 1));
    std::vector<serve::UpdateBatch> batches;
    const std::string updates_path = flags.get("updates", "");
    std::ifstream updates_file;
    std::istream* updates_in = nullptr;
    if (updates_path == "-") {
      updates_in = &std::cin;
    } else if (!updates_path.empty()) {
      updates_file.open(updates_path);
      if (!updates_file) {
        std::cerr << "error: cannot read " << updates_path << "\n";
        return 2;
      }
      updates_in = &updates_file;
    }
    if (producers <= 1 && updates_in != nullptr) {
      batches = serve::parse_update_stream(*updates_in,
                                           service.graph().num_vertices());
    }

    std::cout << "serve=1\n"
              << "algorithm=" << algorithm_name(cfg.options.algorithm) << "\n"
              << "beta=" << cfg.options.beta << "\n"
              << "n=" << service.graph().num_vertices() << "\n"
              << "recovered=" << service.metrics().recoveries << "\n"
              << "start_epoch=" << service.epoch() << "\n"
              << "initial_size=" << service.ruling_set().size() << "\n";

    std::size_t index = 0;
    auto apply_one = [&](const serve::UpdateBatch& batch, const char* label) {
      serve::BatchReport report = service.apply(batch);
      while (service.pending() > 0) {
        const serve::BatchReport more = service.drain();
        report.epochs += more.epochs;
        report.effective_updates += more.effective_updates;
        if (static_cast<std::uint8_t>(more.scope) >
            static_cast<std::uint8_t>(report.scope)) {
          report.scope = more.scope;
        }
        report.set_size = more.set_size;
      }
      std::cout << label << "=" << index++ << "\n"
                << "  epoch=" << service.epoch() << "\n"
                << "  updates=" << report.updates << "\n"
                << "  effective_updates=" << report.effective_updates << "\n"
                << "  epochs=" << report.epochs << "\n"
                << "  scope=" << serve::repair_scope_name(report.scope)
                << "\n"
                << "  dirty_vertices=" << report.dirty_vertices << "\n"
                << "  repair_retries=" << report.repair_retries << "\n"
                << "  size=" << report.set_size << "\n";
    };

    if (producers > 1) {
      // Producer-tagged stream mode: route each line through the ingest
      // front; tombstones journal before any dependent generation applies.
      serve::IngestConfig icfg;
      icfg.num_producers = producers;
      icfg.queue_cap =
          static_cast<std::uint64_t>(flags.get_int("queue-cap", 4));
      icfg.num_vertices = service.graph().num_vertices();
      serve::MultiProducerIngest ingest(icfg);
      auto pump = [&]() -> std::uint64_t {
        std::uint64_t taken = 0;
        for (const serve::ProducerTombstone& t : ingest.take_tombstones()) {
          service.record_tombstone(t);
          std::cout << "tombstone=p" << t.producer << "\n"
                    << "  line=" << t.line << "\n"
                    << "  strikes=" << t.strikes << "\n"
                    << "  reason=" << t.reason << "\n";
        }
        while (std::optional<serve::UpdateBatch> gen =
                   ingest.take_generation()) {
          apply_one(*gen, "generation");
          ++taken;
        }
        return taken;
      };
      std::string line;
      std::uint64_t lineno = 0;
      while (updates_in != nullptr && std::getline(*updates_in, line)) {
        ++lineno;
        for (;;) {
          const serve::PushStatus status = ingest.offer_tagged_line(line);
          if (status == serve::PushStatus::kBadTag) {
            std::cerr << "error: line " << lineno
                      << ": bad producer tag (want p0..p" << (producers - 1)
                      << ")\n";
            return 2;
          }
          if (status == serve::PushStatus::kWouldBlock) {
            if (pump() == 0) {
              // Nothing could merge (another producer's generation slot is
              // still open), so the cap can never clear single-threaded.
              std::cerr << "error: line " << lineno
                        << ": producer queue over --queue-cap with no "
                           "generation ready (raise --queue-cap or reorder "
                           "the stream)\n";
              return 2;
            }
            continue;  // space freed; resubmit the same line
          }
          if (status == serve::PushStatus::kBackoff) continue;  // cooldown
          break;  // consumed (or dropped: ejected/closed streams stay dead)
        }
      }
      ingest.close_all();
      pump();
      const serve::IngestMetrics im = ingest.metrics();
      std::cout << "producers=" << producers << "\n"
                << "generations=" << im.generations << "\n"
                << "backpressure=" << im.backpressure << "\n"
                << "producer_strikes=" << im.strikes << "\n"
                << "producer_ejections=" << im.ejections << "\n";
    } else {
      for (const serve::UpdateBatch& batch : batches) {
        apply_one(batch, "batch");
      }
    }

    if (flags.has("query")) {
      // Epoch-pinned point queries from the last committed epoch's
      // immutable snapshot handle.
      const serve::QueryHandle snap = service.query();
      std::stringstream spec_in(flags.get("query", ""));
      std::string token;
      while (std::getline(spec_in, token, ',')) {
        std::uint64_t v = 0;
        try {
          v = std::stoull(token);
        } catch (const std::exception&) {
          std::cerr << "error: --query: bad vertex '" << token << "'\n";
          return 2;
        }
        if (v >= snap->graph().num_vertices()) {
          std::cerr << "error: --query: vertex " << v << " out of range\n";
          return 2;
        }
        const serve::PointQueryResult r =
            snap->nearest_member(static_cast<VertexId>(v));
        std::cout << "query=" << v << "\n"
                  << "  epoch=" << snap->epoch() << "\n"
                  << "  covered=" << (r.covered ? 1 : 0) << "\n";
        if (r.covered) {
          std::cout << "  member=" << r.member << "\n"
                    << "  distance=" << r.distance << "\n";
        }
      }
    }

    const serve::ServiceMetrics& m = service.metrics();
    std::cout << "batches=" << m.batches << "\n"
              << "epochs=" << service.epoch() << "\n"
              << "updates_applied=" << m.updates_applied << "\n"
              << "updates_noop=" << m.updates_noop << "\n"
              << "skips=" << m.skips << "\n"
              << "frontier_repairs=" << m.repairs_frontier << "\n"
              << "full_recomputes=" << m.repairs_full << "\n"
              << "cascade_repairs=" << m.cascade_repairs << "\n"
              << "repair_retries=" << m.repair_retries << "\n"
              << "region_certifications=" << m.certifications_region << "\n"
              << "full_certifications=" << m.certifications_full << "\n"
              << "journal_writes=" << m.journal_writes << "\n"
              << "tombstones=" << m.tombstones << "\n"
              << "heartbeats=" << m.heartbeats << "\n"
              << "watchdog_escalations=" << m.watchdog_escalations << "\n"
              << "watchdog_failstops=" << m.watchdog_failstops << "\n"
              << "sealed=" << (service.sealed() ? 1 : 0) << "\n"
              << "churn_ewma=" << service.churn_ewma() << "\n"
              << "size=" << service.ruling_set().size() << "\n"
              << "peak_rss_kb=" << peak_rss_kb() << "\n";

    if (flags.has("out")) {
      std::ofstream out(flags.get("out", ""));
      if (!out) {
        std::cerr << "error: cannot write " << flags.get("out", "") << "\n";
        return 2;
      }
      for (VertexId v : service.ruling_set()) out << v << "\n";
    }
    if (flags.get_bool("print_set", false)) {
      for (VertexId v : service.ruling_set()) std::cout << v << "\n";
    }
    return 0;
  } catch (const serve::ServiceError& e) {
    // The run started but the service could not maintain its certified
    // contract — that is the "completed but failed" exit, not a usage error.
    std::cerr << "service error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.get_bool("verbose", false)) {
    Logger::instance().set_level(LogLevel::kDebug);
  }
  // A mistyped flag must not silently run with its default (exit-code
  // contract: usage errors are 2, never a plausible-looking result).
  static const std::set<std::string> kKnownFlags = {
      "admit-budget",          "algorithm", "avg_deg", "beta",
      "budget",    "budget-policy",
      "checkpoint-every",      "deadline",  "faults",  "full-certify-every",
      "full-threshold",        "gen",
      "input",     "integrity",             "journal", "machines",
      "max-epochs",            "memory_words",
      "n",         "out",      "paranoid",  "print_set",
      "producers", "query",    "queue-cap",
      "record",    "recover",  "repair-retries",
      "replay",    "seed",     "serve",     "sharded",
      "spill-dir", "threads",  "trace",     "updates",
      "validate-shards",       "verbose",   "watchdog-deadline"};
  for (const std::string& key : flags.keys()) {
    if (kKnownFlags.count(key) == 0) {
      return usage("unknown flag: --" + key);
    }
  }

  try {
    if (flags.has("sharded")) {
      // A sharded run builds its graph from the shards, so the modes that
      // take one from elsewhere (or record a materialized RunSpec) are
      // incompatible.
      if (flags.has("input") || flags.has("gen") || flags.has("record") ||
          flags.has("replay") || flags.get_bool("serve", false)) {
        return usage(
            "--sharded cannot be combined with --input, --gen, --record, "
            "--replay, or --serve");
      }
      return run_sharded(flags);
    }
    if (flags.get_bool("serve", false)) {
      if (flags.has("sharded") || flags.has("record") || flags.has("replay")) {
        return usage(
            "--serve cannot be combined with --sharded, --record, or "
            "--replay");
      }
      if (!flags.has("input") && !flags.has("gen") &&
          !flags.get_bool("recover", false)) {
        return usage("--serve needs --input=FILE, --gen=NAME, or --recover");
      }
      return run_serve(flags);
    }
    if (flags.has("replay")) {
      return run_replay(flags.get("replay", ""));
    }
    if (!flags.has("input") && !flags.has("gen")) {
      return usage(
          "need --input=FILE, --gen=NAME, --replay=FILE, or --sharded=SPEC");
    }

    const RunSpec spec = spec_from_flags(flags);
    const Graph g = build_graph(spec);
    RulingSetOptions options = options_from_spec(spec);
    const AlgorithmInfo& info = algorithm_info(options.algorithm);
    const bool faulty =
        options.mpc.faults.enabled || options.mpc.checkpoint_every != 0;

    std::ofstream trace_out;
    std::ofstream record_out;
    std::vector<mpc::TraceHook> hooks;
    if (flags.has("trace")) {
      trace_out.open(flags.get("trace", ""));
      if (!trace_out) {
        std::cerr << "error: cannot write " << flags.get("trace", "") << "\n";
        return 2;
      }
      hooks.push_back([&trace_out](const mpc::RoundTrace& trace) {
        trace_out << mpc::to_json(trace) << "\n";
      });
    }
    if (flags.has("record")) {
      record_out.open(flags.get("record", ""));
      if (!record_out) {
        std::cerr << "error: cannot write " << flags.get("record", "") << "\n";
        return 2;
      }
      record_out << spec_to_json(spec) << "\n";
      hooks.push_back([&record_out](const mpc::RoundTrace& trace) {
        record_out << record_line(trace) << "\n";
      });
    }
    if (hooks.size() == 1) {
      options.mpc.trace_hook = hooks.front();
    } else if (hooks.size() > 1) {
      options.mpc.trace_hook = [hooks](const mpc::RoundTrace& trace) {
        for (const auto& hook : hooks) hook(trace);
      };
    }

    const RulingSetResult result = compute_ruling_set(g, options);
    if (record_out.is_open()) {
      record_out << summary_json(result) << "\n";
    }
    // AGLP's guarantee is a function of n; everyone else delivers the
    // requested beta.
    const std::uint32_t beta =
        options.algorithm == Algorithm::kAglpCongest ? result.beta
                                                     : options.beta;
    const auto report = check_ruling_set(g, result.ruling_set, beta);

    std::cout << "algorithm=" << info.name << "\n"
              << "model=" << model_name(info.model) << "\n"
              << "n=" << g.num_vertices() << "\n"
              << "m=" << g.num_edges() << "\n"
              << "beta=" << beta << "\n"
              << "size=" << result.ruling_set.size() << "\n"
              << "radius=" << report.radius << "\n"
              << "valid=" << (report.valid ? 1 : 0) << "\n"
              << "phases=" << result.phases << "\n";
    if (info.model == Model::kCongest) {
      std::cout << "rounds=" << result.congest_metrics.rounds << "\n"
                << "total_bits=" << result.congest_metrics.total_bits << "\n"
                << "random_words=" << result.congest_metrics.random_words
                << "\n";
    } else {
      std::cout << "rounds=" << result.metrics.rounds << "\n"
                << "words=" << result.metrics.total_words << "\n"
                << "peak_memory_words=" << result.metrics.max_storage_words
                << "\n"
                << "random_words=" << result.metrics.random_words << "\n"
                << "violations=" << result.metrics.violations << "\n";
      // Fault-ledger keys appear only when the subsystem is on, so default
      // runs keep the historical output byte-for-byte.
      if (faulty) {
        std::cout << "faults_injected=" << result.metrics.faults_injected
                  << "\n"
                  << "checkpoints=" << result.metrics.checkpoints << "\n"
                  << "recovery_rounds=" << result.metrics.recovery_rounds
                  << "\n";
      }
      // Integrity-ledger keys appear whenever verification ran (forced by
      // corruption faults or opted into with --integrity).
      if (options.mpc.integrity || options.mpc.faults.corrupt_prob > 0.0) {
        std::cout << "corrupt_detected=" << result.metrics.corrupt_detected
                  << "\n"
                  << "integrity_retries=" << result.metrics.integrity_retries
                  << "\n"
                  << "quarantined_rounds="
                  << result.metrics.quarantined_rounds << "\n";
      }
      if (options.mpc.budget_policy == mpc::BudgetPolicy::kDegrade) {
        std::cout << "degraded_subrounds="
                  << result.metrics.degraded_subrounds << "\n";
      }
      if (options.mpc.round_deadline != 0) {
        std::cout << "deadline_misses=" << result.metrics.deadline_misses
                  << "\n"
                  << "speculative_rounds="
                  << result.metrics.speculative_rounds << "\n";
      }
    }

    // Reported uniformly from every run mode (standard, replay, sharded,
    // serve), not just the out-of-core path.
    std::cout << "peak_rss_kb=" << peak_rss_kb() << "\n";

    // --paranoid: re-derive validity through the in-model certification
    // pass, then cross-validate the certificate against a sequential
    // recomputation. Both must agree for exit 0.
    bool certified = true;
    if (flags.get_bool("paranoid", false)) {
      const RulingSetCertificate cert =
          mpc::certify_ruling_set(g, result.ruling_set, beta, options.mpc);
      const bool cross_ok = cross_validate_certificate(
          g, result.ruling_set, cert);
      certified = cert.valid() && cross_ok;
      std::cout << "certificate=" << cert.to_string() << "\n"
                << "certify_rounds=" << cert.rounds << "\n"
                << "cross_validated=" << (cross_ok ? 1 : 0) << "\n"
                << "certified=" << (certified ? 1 : 0) << "\n";
    }

    if (flags.has("out")) {
      std::ofstream out(flags.get("out", ""));
      if (!out) {
        std::cerr << "error: cannot write " << flags.get("out", "") << "\n";
        return 2;
      }
      for (VertexId v : result.ruling_set) out << v << "\n";
    }
    if (flags.get_bool("print_set", false)) {
      for (VertexId v : result.ruling_set) std::cout << v << "\n";
    }
    return report.valid && certified ? 0 : 1;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
}
