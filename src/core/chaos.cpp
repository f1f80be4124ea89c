#include "core/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/replay.hpp"
#include "core/ruling_set.hpp"
#include "graph/graph.hpp"
#include "mpc/certify.hpp"
#include "serve/ingest.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace rsets {
namespace {

// SplitMix64 of `x`: the schedule-parameter mixer. Independent of every
// simulator RNG stream — it only picks which knobs a schedule turns on.
std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

// Picks one of four values using two bits of `h` at `slot`.
template <class T>
T pick(std::uint64_t h, unsigned slot, const T (&choices)[4]) {
  return choices[(h >> (2 * slot)) & 3];
}

void append_prob(std::string& spec, const char* kind, double p) {
  if (p <= 0.0) return;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%s~%g", spec.empty() ? "" : ",", kind, p);
  spec += buf;
}

const char* kGenerators[4] = {"gnp", "gnm", "power_law", "tree"};

}  // namespace

std::string chaos_fault_spec(std::uint64_t base_seed, std::uint64_t index) {
  const std::uint64_t h = mix(base_seed ^ mix(index));
  std::string spec;
  // Corruption is always on — this harness exists to soak the integrity
  // layer — with the other kinds mixed in at schedule-dependent rates
  // (several slots include 0, so schedules also cover the pairwise
  // combinations).
  // The 0.3 tier is a "hot link": sources corrupt in consecutive phases
  // (and occasionally exhaust the per-message retry bound), driving the
  // quarantine path, not just single-retry healing.
  append_prob(spec, "corrupt", pick(h, 0, {0.005, 0.02, 0.05, 0.3}));
  append_prob(spec, "reorder", pick(h, 1, {0.0, 0.1, 0.25, 0.5}));
  append_prob(spec, "drop", pick(h, 2, {0.0, 0.005, 0.01, 0.02}));
  append_prob(spec, "dup", pick(h, 3, {0.0, 0.005, 0.01, 0.02}));
  append_prob(spec, "crash", pick(h, 4, {0.0, 0.0, 0.005, 0.01}));
  append_prob(spec, "straggler", pick(h, 5, {0.0, 0.0, 0.01, 0.02}));
  char seed[32];
  std::snprintf(seed, sizeof(seed), ",seed=%llu",
                static_cast<unsigned long long>(h | 1));
  spec += seed;
  return spec;
}

namespace {

// Schedule `s`'s graph and run shape, shared by both soaks. The thread width
// rotates across schedules so the soaks (and their TSan stages in
// tools/check_tsan.sh) exercise the parallel barrier pipeline — sharded
// merge, parallel verify/index, threaded callbacks — not just the
// sequential path. Results are thread-invariant by construction, and every
// run of a schedule and its reference share the width.
template <class Options>
RunSpec schedule_spec(const Options& options, std::uint64_t s) {
  static constexpr std::uint32_t kSoakThreadWidths[] = {1, 2, 4};
  RunSpec spec;
  spec.gen = kGenerators[s % 4];
  spec.n = options.n;
  spec.avg_deg = options.avg_deg;
  spec.seed = options.base_seed + s;
  spec.machines = options.machines;
  spec.threads = kSoakThreadWidths[s % 3];
  return spec;
}

// The schedule loop both soaks run: body(s, base spec, graph, fault spec)
// per schedule, then the schedule count and the progress callback.
template <class Options, class Report, class Body>
void for_each_schedule(const Options& options, Report& report, Body&& body) {
  for (std::uint64_t s = 0; s < options.schedules; ++s) {
    const RunSpec base = schedule_spec(options, s);
    body(s, base, build_graph(base), chaos_fault_spec(options.base_seed, s));
    ++report.schedules_run;
    if (options.progress) options.progress(s + 1, report.runs);
  }
}

// A broken contract, thrown from a run's checks and recorded by run_checked.
struct SoakFailure {
  std::string what;
};

[[noreturn]] void fail(std::string what) { throw SoakFailure{std::move(what)}; }

// Runs one (schedule, algorithm) check body, recording a broken contract or
// a service error as a failure that carries the run's exact fault spec.
template <class Body>
void run_checked(std::vector<ChaosFailure>& failures, std::uint64_t s,
                 const RunSpec& run, Body&& body) {
  try {
    body();
  } catch (const SoakFailure& f) {
    failures.push_back({s, run.algorithm, run.faults, f.what});
  } catch (const serve::ServiceError& e) {
    failures.push_back({s, run.algorithm, run.faults,
                        std::string("service error: ") + e.what()});
  }
}

// Clean-room in-model certification of `set`, then the independent
// sequential cross-validation of the certificate.
void certify_or_fail(const Graph& g, const std::vector<VertexId>& set,
                     std::uint32_t beta, const mpc::MpcConfig& mpc) {
  const RulingSetCertificate cert = mpc::certify_ruling_set(g, set, beta, mpc);
  if (!cert.valid()) fail("certification failed: " + cert.to_string());
  if (!cross_validate_certificate(g, set, cert)) {
    fail("certificate failed sequential cross-validation");
  }
}

}  // namespace

ChaosReport run_chaos_soak(const ChaosOptions& options) {
  ChaosReport report;
  for_each_schedule(options, report, [&](std::uint64_t s, const RunSpec& base,
                                         const Graph& g,
                                         const std::string& fault_spec) {
    for (const AlgorithmInfo& info : algorithm_registry()) {
      if (info.model != Model::kMpc) continue;
      RunSpec run = base;
      run.algorithm = std::string(info.name);
      run.beta = info.min_beta;
      // Every third schedule checkpoints, so crash recovery exercises both
      // the from-round-zero and the from-durable-checkpoint paths.
      run.checkpoint_every = (s % 3 == 0) ? 2 : 0;

      // Ground truth: the fault-free execution of the same spec.
      const RulingSetResult truth =
          compute_ruling_set(g, options_from_spec(run));

      run.faults = fault_spec;
      const RulingSetOptions faulty_options = options_from_spec(run);
      const RulingSetResult faulty = compute_ruling_set(g, faulty_options);
      ++report.runs;
      report.faults_injected += faulty.metrics.faults_injected;
      report.corrupt_detected += faulty.metrics.corrupt_detected;
      report.integrity_retries += faulty.metrics.integrity_retries;
      report.quarantined_rounds += faulty.metrics.quarantined_rounds;
      report.recovery_rounds += faulty.metrics.recovery_rounds;

      run_checked(report.failures, s, run, [&] {
        if (faulty.ruling_set != truth.ruling_set) {
          fail("faulty output diverged from the fault-free run (size " +
               std::to_string(faulty.ruling_set.size()) + " vs " +
               std::to_string(truth.ruling_set.size()) + ")");
        }
        if (!options.certify) return;
        certify_or_fail(g, faulty.ruling_set, run.beta, faulty_options.mpc);
        ++report.certified;
      });
    }
  });
  return report;
}

namespace {

// Thrown from the service's crash_hook to kill it mid-batch; deliberately
// not derived from std::exception so no cleanup path can swallow it.
struct SimulatedCrash {};

void accumulate(ChurnReport& report, const serve::ServiceMetrics& m) {
  report.epochs += m.epochs;
  report.updates_applied += m.updates_applied;
  report.skips += m.skips;
  report.frontier_repairs += m.repairs_frontier;
  report.full_recomputes += m.repairs_full;
  report.cascade_repairs += m.cascade_repairs;
  report.repair_retries += m.repair_retries;
  report.region_certifications += m.certifications_region;
  report.full_certifications += m.certifications_full;
  report.recoveries += m.recoveries;
  report.faults_injected += m.faults_injected;
}

// One producer's scripted stream: protocol lines per batch, plus where (if
// anywhere) its stream is poisoned and how the producer reacts to a strike.
struct ProducerScript {
  std::vector<std::vector<std::string>> batches;
  std::size_t poison_batch = static_cast<std::size_t>(-1);
  bool heal = false;  // skip the poison line when resubmitting after a strike
};

struct ProducerState {
  std::size_t batch = 0;
  std::size_t line = 0;
  bool skip_poison = false;
  bool done = false;
};

// Advances producer `p` by exactly one push attempt against `ingest`,
// modelling real producer behavior: a strike resubmits the whole batch from
// its first line (a healing producer drops the poison line first), backoff
// and backpressure leave the cursor where it is, ejection ends the stream,
// and the last batch is followed by close(). The same state machine drives
// both the interleaved run and the canonical single-producer replay, so the
// expected generation contents are computed by the code under test's own
// validation rules — only the *interleaving* differs.
serve::PushStatus producer_step(serve::MultiProducerIngest& ingest,
                                std::uint32_t p, const ProducerScript& script,
                                ProducerState& st) {
  if (st.done) return serve::PushStatus::kClosed;
  if (st.batch >= script.batches.size()) {
    ingest.close(p);
    st.done = true;
    return serve::PushStatus::kClosed;
  }
  if (st.skip_poison && st.batch == script.poison_batch && st.line == 0) {
    st.line = 1;  // the poison line is always the first line of its batch
  }
  const std::vector<std::string>& lines = script.batches[st.batch];
  const serve::PushStatus status = ingest.offer_line(p, lines[st.line]);
  switch (status) {
    case serve::PushStatus::kAccepted:
      ++st.line;
      break;
    case serve::PushStatus::kCommitted:
      ++st.batch;
      st.line = 0;
      break;
    case serve::PushStatus::kWouldBlock:
    case serve::PushStatus::kBackoff:
      break;  // line not consumed; retry on a later turn
    case serve::PushStatus::kRejected:
      st.line = 0;
      if (script.heal) st.skip_poison = true;
      break;
    default:  // kEjected / kClosed / kBadTag
      st.done = true;
      break;
  }
  if (!st.done && st.batch >= script.batches.size()) {
    ingest.close(p);
    st.done = true;
  }
  return status;
}

// Schedule flavors that poison one producer's stream with a malformed line.
// s%4==1 repeats the strike until the producer is ejected and tombstoned;
// that needs a second producer, since ejecting the only one would drop the
// rest of the stream. s%4==3 strikes once, then the producer heals and
// recovers from quarantine.
bool eject_flavor(const ChurnOptions& options, std::uint64_t s) {
  return options.producers > 1 && s % 4 == 1;
}
bool heal_flavor(std::uint64_t s) { return s % 4 == 3; }

std::vector<ProducerScript> build_producer_scripts(const ChurnOptions& options,
                                                   std::uint64_t s) {
  const std::uint32_t producers = options.producers;
  const std::uint64_t per_batch =
      std::max<std::uint64_t>(1, options.batch_updates / producers);
  const auto poisoned = static_cast<std::uint32_t>(s % producers);
  const bool poison = eject_flavor(options, s) || heal_flavor(s);
  std::vector<ProducerScript> scripts(producers);
  for (std::uint32_t p = 0; p < producers; ++p) {
    ProducerScript& script = scripts[p];
    for (std::uint64_t b = 0; b < options.batches; ++b) {
      const serve::UpdateBatch batch = chaos_churn_batch(
          options.base_seed, s, b * producers + p, options.n, per_batch);
      std::vector<std::string> lines;
      if (poison && p == poisoned && b == options.batches / 2) {
        lines.push_back("+ 1 1");  // self-loop: malformed, costs a strike
        script.poison_batch = b;
        script.heal = heal_flavor(s);
      }
      for (const serve::EdgeUpdate& u : batch.updates) {
        lines.push_back(serve::to_line(u));
      }
      if ((b + p) % 2 == 0) {
        // Exercise the integrity line on the verify-good path.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "checksum %llx",
                      static_cast<unsigned long long>(
                          serve::batch_checksum(batch.updates)));
        lines.push_back(buf);
      }
      lines.push_back("commit");
      script.batches.push_back(std::move(lines));
    }
  }
  return scripts;
}

// Reference replay: each producer's stream alone, through a fresh
// single-producer ingest with the same validation knobs and no cap. Yields
// the committed batch list the interleaved run must align into generations.
std::vector<std::vector<serve::UpdateBatch>> canonical_producer_batches(
    const std::vector<ProducerScript>& scripts,
    const serve::IngestConfig& shape) {
  std::vector<std::vector<serve::UpdateBatch>> out(scripts.size());
  for (std::size_t p = 0; p < scripts.size(); ++p) {
    serve::IngestConfig solo_cfg;
    solo_cfg.num_producers = 1;
    solo_cfg.queue_cap = 0;  // the reference replay never feels backpressure
    solo_cfg.max_strikes = shape.max_strikes;
    solo_cfg.num_vertices = shape.num_vertices;
    serve::MultiProducerIngest solo(solo_cfg);
    ProducerState st;
    while (!st.done) producer_step(solo, 0, scripts[p], st);
    while (std::optional<serve::UpdateBatch> g = solo.take_generation()) {
      out[p].push_back(std::move(*g));
    }
  }
  return out;
}

std::vector<serve::UpdateBatch> expected_generations(
    const std::vector<std::vector<serve::UpdateBatch>>& canonical) {
  std::size_t max_generations = 0;
  for (const auto& batches : canonical) {
    max_generations = std::max(max_generations, batches.size());
  }
  std::vector<serve::UpdateBatch> gens(max_generations);
  for (std::size_t g = 0; g < max_generations; ++g) {
    for (const auto& batches : canonical) {  // producer-id order
      if (g < batches.size()) {
        gens[g].updates.insert(gens[g].updates.end(),
                               batches[g].updates.begin(),
                               batches[g].updates.end());
      }
    }
  }
  return gens;
}

// Twin-comparable slice of the service ledger: everything except the
// durability counters, which legitimately differ between a
// crashed-and-recovered (or tombstone-journaling) service and its uncrashed
// twin.
serve::ServiceMetrics twin_ledger(serve::ServiceMetrics m) {
  m.journal_writes = m.recoveries = m.tombstones = 0;
  return m;
}

// Brute-force check of one epoch-pinned point query: BFS over the
// snapshot's own graph, nearest member by (distance, id).
bool point_query_consistent(const serve::QuerySnapshot& snap, VertexId v) {
  const Graph& g = snap.graph();
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId m : snap.ruling_set()) in_set[m] = true;
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_vertices(), kUnreached);
  std::deque<VertexId> queue{v};
  dist[v] = 0;
  bool covered = false;
  VertexId member = 0;
  std::uint32_t best = kUnreached;
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop_front();
    if (in_set[x] &&
        (!covered || dist[x] < best || (dist[x] == best && x < member))) {
      covered = true;
      member = x;
      best = dist[x];
    }
    if (dist[x] >= snap.beta()) continue;
    for (VertexId w : g.neighbors(x)) {
      if (dist[w] != kUnreached) continue;
      dist[w] = dist[x] + 1;
      queue.push_back(w);
    }
  }
  const serve::PointQueryResult r = snap.nearest_member(v);
  if (r.covered != covered) return false;
  if (!covered) return true;
  return r.member == member && r.distance == best &&
         snap.covered(v) && snap.is_member(member);
}

}  // namespace

serve::UpdateBatch chaos_churn_batch(std::uint64_t base_seed,
                                     std::uint64_t index, std::uint64_t batch,
                                     std::uint64_t n, std::uint64_t updates) {
  serve::UpdateBatch out;
  if (n < 2) return out;
  std::uint64_t state =
      mix(base_seed ^ mix(index ^ 0x636875726eull)) ^ mix(batch + 17);
  for (std::uint64_t i = 0; i < updates; ++i) {
    state = mix(state + i + 1);
    const VertexId u = static_cast<VertexId>(state % n);
    state = mix(state);
    VertexId v = static_cast<VertexId>(state % n);
    if (v == u) v = static_cast<VertexId>((v + 1) % n);
    state = mix(state);
    const auto op = (state & 1) ? serve::EdgeUpdate::Op::kInsert
                                : serve::EdgeUpdate::Op::kDelete;
    out.updates.push_back({op, u, v});
    if ((state >> 8) % 8 == 0) {
      // Contradictory duplicate of the same pair: the later line must win
      // (stream semantics), and whichever side is a no-op must cancel.
      out.updates.push_back({op == serve::EdgeUpdate::Op::kInsert
                                 ? serve::EdgeUpdate::Op::kDelete
                                 : serve::EdgeUpdate::Op::kInsert,
                             u, v});
    }
  }
  return out;
}

ChurnReport run_churn_soak(const ChurnOptions& options) {
  if (options.producers == 0) {
    throw std::invalid_argument("run_churn_soak: producers must be >= 1");
  }
  ChurnReport report;
  // The MPC registry plus the sequential greedy backend (the exact
  // β-hop-cascade repair path).
  std::vector<const AlgorithmInfo*> algorithms{
      &algorithm_info(Algorithm::kGreedySequential)};
  for (const AlgorithmInfo& info : algorithm_registry()) {
    if (info.model == Model::kMpc) algorithms.push_back(&info);
  }

  for_each_schedule(options, report, [&](std::uint64_t s, const RunSpec& base,
                                         const Graph& g,
                                         const std::string& fault_spec) {
    // Service-shape knobs rotate independently of the fault spec so the
    // admission/deferral/escalation paths all see every fault mix.
    const std::uint64_t h = mix(options.base_seed ^ mix(s ^ 0x5ca1ab1eull));
    const bool crash_schedule = !options.journal_dir.empty() && s % 3 == 0;
    const auto poisoned = static_cast<std::uint32_t>(s % options.producers);

    // Producer scripts and the canonical generation alignment they must
    // merge into are pure functions of the schedule, shared across the
    // algorithm sweep.
    serve::IngestConfig ishape;
    ishape.num_producers = options.producers;
    ishape.queue_cap = options.queue_cap;
    ishape.num_vertices = static_cast<VertexId>(options.n);
    const std::vector<ProducerScript> scripts =
        build_producer_scripts(options, s);
    const std::vector<serve::UpdateBatch> expected =
        expected_generations(canonical_producer_batches(scripts, ishape));

    for (const AlgorithmInfo* info : algorithms) {
      RunSpec run = base;
      run.algorithm = std::string(info->name);
      run.beta = info->max_beta == 0 ? std::max(info->min_beta, 2u)
                                     : info->min_beta;

      // Fault-free from-scratch options: the parity oracle. The service
      // itself runs under the fault schedule — faults may only move the
      // cost ledger, so the maintained bits must still match this oracle.
      const RulingSetOptions truth_options = options_from_spec(run);
      run.faults = fault_spec;

      std::vector<std::string> service_lines;
      serve::ServiceConfig cfg;
      cfg.options = options_from_spec(run);
      cfg.options.mpc.trace_hook =
          [&service_lines](const mpc::RoundTrace& trace) {
            service_lines.push_back(record_line(trace));
          };
      cfg.admit_budget = pick<std::uint64_t>(h, 0, {0, 4, 8, 16});
      cfg.max_epochs_per_apply = pick<std::uint64_t>(h, 1, {0, 0, 2, 3});
      cfg.full_certify_every = pick<std::uint64_t>(h, 2, {1, 4, 8, 16});
      cfg.full_threshold = pick(h, 3, {0.02, 0.05, 0.1, 0.3});
      // Half the schedules arm the watchdog with a deadline far above any
      // soak-sized repair: the armed path must not perturb parity (tripping
      // it is a deliberate unit-test scenario, not a soak flavor).
      cfg.watchdog_deadline =
          pick<std::uint64_t>(h, 4, {0, 0, 1u << 20, 1u << 20});
      if (!options.journal_dir.empty()) {
        cfg.journal_path = options.journal_dir + "/churn_s" +
                           std::to_string(s) + "_" + run.algorithm + ".rsj";
      }

      ++report.runs;
      run_checked(report.failures, s, run, [&] {
        serve::MultiProducerIngest ingest(ishape);
        serve::RulingSetService service(g, cfg);
        std::vector<serve::UpdateBatch> applied;
        bool crashed_any = false;

        // Journals ready tombstones, then applies every aligned generation,
        // running the parity battery after each: canonical alignment, oracle
        // set identity, single-rerun ledger + record-log comparison,
        // brute-forced point queries, and epoch-pinning of a handle taken
        // before the commit.
        auto pump = [&] {
          for (const serve::ProducerTombstone& t : ingest.take_tombstones()) {
            service.record_tombstone(t);
          }
          while (std::optional<serve::UpdateBatch> next =
                     ingest.take_generation()) {
            const std::size_t index = applied.size();
            if (index >= expected.size() ||
                next->updates != expected[index].updates) {
              fail("generation " + std::to_string(index) +
                   " diverged from the canonical producer alignment");
            }
            applied.push_back(std::move(*next));
            const serve::UpdateBatch& gen = applied.back();

            const serve::QueryHandle pinned = service.query();
            const auto probe = static_cast<VertexId>(mix(h + index) % options.n);
            const std::uint64_t pinned_epoch = pinned->epoch();
            const serve::PointQueryResult before = pinned->nearest_member(probe);

            service_lines.clear();
            const bool crash_here =
                crash_schedule && index == expected.size() / 2;
            bool crashed = false;
            const std::uint64_t epoch_before = service.epoch();
            if (crash_here) {
              service.crash_hook = [](std::string_view stage) {
                if (stage == "pre-commit") throw SimulatedCrash{};
              };
            }
            serve::BatchReport breport;
            try {
              breport = service.apply(gen);
            } catch (const SimulatedCrash&) {
              crashed = true;
            }
            if (crashed) {
              crashed_any = true;
              ++report.crashes_injected;
              accumulate(report, service.metrics());
              service = serve::RulingSetService::recover(cfg);
              service_lines.clear();
              // A batch is durably admitted at its first epoch commit; a
              // crash before that means the client must resubmit it.
              breport = service.epoch() == epoch_before ? service.apply(gen)
                                                        : service.drain();
            }
            service.crash_hook = nullptr;
            // Drain deferrals so the parity checks see the whole generation.
            while (service.pending() > 0) {
              const serve::BatchReport more = service.drain();
              breport.epochs += more.epochs;
              breport.repair_retries += more.repair_retries;
            }
            ++report.batches_applied;
            report.updates_deferred += breport.deferred;

            const RulingSetResult oracle =
                compute_ruling_set(service.snapshot(), truth_options);
            if (service.ruling_set() != oracle.ruling_set) {
              fail("incremental set diverged from from-scratch recompute at "
                   "generation " +
                   std::to_string(index) + " (size " +
                   std::to_string(service.ruling_set().size()) + " vs " +
                   std::to_string(oracle.ruling_set.size()) + ")");
            }
            // When the generation committed as exactly one un-retried rerun,
            // the whole repair ledger and the record-log bodies must match a
            // from-scratch run under the options the repair actually used
            // (retries trace every attempt, so they only check set parity).
            if (breport.epochs == 1 &&
                breport.scope != serve::RepairScope::kSkip &&
                breport.repair_retries == 0 && !service_lines.empty()) {
              std::vector<std::string> oracle_lines;
              RulingSetOptions oracle_options = service.last_repair_options();
              oracle_options.mpc.trace_hook =
                  [&oracle_lines](const mpc::RoundTrace& trace) {
                    oracle_lines.push_back(record_line(trace));
                  };
              const RulingSetResult rerun =
                  compute_ruling_set(service.snapshot(), oracle_options);
              if (service.last_repair_result().metrics != rerun.metrics) {
                fail("repair cost ledger diverged from the from-scratch rerun "
                     "at generation " +
                     std::to_string(index));
              }
              if (service_lines != oracle_lines) {
                fail("record-log bodies diverged from the from-scratch rerun "
                     "at generation " +
                     std::to_string(index));
              }
            }

            // A fresh handle reflects exactly the committed epoch...
            const serve::QueryHandle fresh = service.query();
            if (fresh->epoch() != service.epoch()) {
              fail("fresh query handle is not at the committed epoch");
            }
            for (int q = 0; q < 3; ++q) {
              const auto v =
                  static_cast<VertexId>(mix(h + 31 * index + q) % options.n);
              if (!point_query_consistent(*fresh, v)) {
                fail("point query inconsistent with brute force at epoch " +
                     std::to_string(service.epoch()));
              }
              ++report.query_checks;
            }
            // ...while the pinned handle stays frozen at its epoch.
            const serve::PointQueryResult after = pinned->nearest_member(probe);
            if (pinned->epoch() != pinned_epoch ||
                after.covered != before.covered ||
                (after.covered && (after.member != before.member ||
                                   after.distance != before.distance))) {
              fail("epoch-pinned query handle changed across a commit");
            }
          }
        };

        // Seeded interleaving: pick any unfinished producer, advance it one
        // push attempt, pump on backpressure and periodically. Different
        // schedules (and the mix stream) visit different interleavings; the
        // alignment check above proves the service never sees them.
        std::vector<ProducerState> states(options.producers);
        std::uint64_t rng = mix(h ^ 0xC0FFEEull);
        for (std::uint64_t steps = 1;; ++steps) {
          std::vector<std::uint32_t> active;
          for (std::uint32_t p = 0; p < options.producers; ++p) {
            if (!states[p].done) active.push_back(p);
          }
          if (active.empty()) break;
          rng = mix(rng);
          const std::uint32_t p = active[rng % active.size()];
          const serve::PushStatus status =
              producer_step(ingest, p, scripts[p], states[p]);
          if (status == serve::PushStatus::kWouldBlock || steps % 7 == 0) {
            pump();
          }
        }
        ingest.close_all();
        pump();  // once all streams closed, every queued batch is takeable

        const serve::IngestMetrics im = ingest.metrics();
        if (!ingest.drained()) fail("ingest front not drained after close_all");
        if (applied.size() != expected.size()) {
          fail("applied " + std::to_string(applied.size()) +
               " generations, canonical alignment has " +
               std::to_string(expected.size()));
        }
        if (eject_flavor(options, s)) {
          if (!ingest.ejected(poisoned) || im.ejections != 1) {
            fail("poisoned producer was not ejected");
          }
          const std::vector<serve::ProducerTombstone>& tombstones =
              service.tombstones();
          if (std::none_of(tombstones.begin(), tombstones.end(),
                           [&](const serve::ProducerTombstone& t) {
                             return t.producer == poisoned;
                           })) {
            fail("ejection tombstone was not journaled");
          }
        }
        if (heal_flavor(s) && (im.ejections != 0 || im.strikes == 0)) {
          fail("healing producer should strike and recover, saw " +
               std::to_string(im.strikes) + " strikes / " +
               std::to_string(im.ejections) + " ejections");
        }

        // The uncrashed, unjournaled twin fed the merged sequence from
        // scratch: final bits must match, and on crash-free schedules so
        // must the whole twin-comparable metrics ledger.
        serve::ServiceConfig twin_cfg = cfg;
        twin_cfg.options.mpc.trace_hook = nullptr;
        twin_cfg.journal_path.clear();
        serve::RulingSetService twin(g, twin_cfg);
        for (const serve::UpdateBatch& gen : applied) {
          twin.apply(gen);
          while (twin.pending() > 0) twin.drain();
        }
        if (twin.ruling_set() != service.ruling_set()) {
          fail("final set diverged from the single-producer twin");
        }
        if (twin.graph().fingerprint() != service.graph().fingerprint()) {
          fail("final graph fingerprint diverged from the twin");
        }
        if (twin.epoch() != service.epoch()) {
          fail("final epoch diverged from the twin");
        }
        if (twin.metrics().heartbeats != service.metrics().heartbeats) {
          fail("heartbeat position diverged from the twin (" +
               std::to_string(service.metrics().heartbeats) + " vs " +
               std::to_string(twin.metrics().heartbeats) + ")");
        }
        if (!crashed_any &&
            twin_ledger(twin.metrics()) != twin_ledger(service.metrics())) {
          fail("service metrics ledger diverged from the twin");
        }

        if (options.certify) {
          certify_or_fail(service.snapshot(), service.ruling_set(), run.beta,
                          cfg.options.mpc);
          ++report.certified;
        }
        report.generations += im.generations;
        report.backpressure += im.backpressure;
        report.producer_strikes += im.strikes;
        report.producer_ejections += im.ejections;
        accumulate(report, service.metrics());
        report.heartbeats += service.metrics().heartbeats;
      });
    }
  });
  return report;
}

}  // namespace rsets
