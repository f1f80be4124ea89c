// Chaos-soak driver: N seeded mixed-fault schedules across every MPC
// algorithm, asserting the fault-tolerance contract (bit-identical outputs
// vs fault-free runs, plus certified validity) — see core/chaos.hpp.
//
// Usage:
//   chaos_soak                          # 200 schedules, the full contract
//   chaos_soak --schedules=40 --n=300   # the CI smoke configuration
//   chaos_soak --no-certify             # identity checks only (fastest)
//   chaos_soak --churn --journal_dir=D  # fault+churn soak over the
//                                       # long-lived service through a
//                                       # 1-producer ingest front, with twin
//                                       # and pinned-query checks
//                                       # (crash-mid-batch recovery needs
//                                       # --journal_dir)
//   chaos_soak --churn --producers=4    # the same soak with 4 producers:
//                                       # seeded interleavings, backpressure,
//                                       # quarantine/ejection
//
// Prints an aggregate key=value report; exits 0 only when every schedule
// upheld the contract. A failure line carries the schedule index and the
// exact --faults spec, so any failure reproduces under rsets_cli.
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "util/flags.hpp"

namespace {

// Prints every failure with its reproduction spec; returns the exit code.
int report_failures(const std::vector<rsets::ChaosFailure>& failures) {
  for (const rsets::ChaosFailure& f : failures) {
    std::cerr << "soak failure: schedule " << f.schedule << " algorithm "
              << f.algorithm << " faults " << f.fault_spec << ": " << f.what
              << "\n";
  }
  return failures.empty() ? 0 : 1;
}

int run_churn(const rsets::Flags& flags) {
  using namespace rsets;
  ChurnOptions options;
  options.schedules =
      static_cast<std::uint64_t>(flags.get_int("schedules", 100));
  options.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.n = static_cast<std::uint64_t>(flags.get_int("n", 300));
  options.avg_deg = flags.get_double("avg_deg", 5.0);
  options.machines = static_cast<std::uint32_t>(flags.get_int("machines", 8));
  options.batches = static_cast<std::uint64_t>(flags.get_int("batches", 5));
  options.batch_updates =
      static_cast<std::uint64_t>(flags.get_int("batch_updates", 24));
  options.certify = !flags.get_bool("no-certify", false);
  options.journal_dir = flags.get("journal_dir", "");
  options.producers =
      static_cast<std::uint32_t>(flags.get_int("producers", 1));
  options.queue_cap =
      static_cast<std::uint64_t>(flags.get_int("queue_cap", 2));
  if (flags.get_bool("progress", false)) {
    options.progress = [](std::uint64_t schedules, std::uint64_t runs) {
      if (schedules % 10 == 0) {
        std::cerr << "chaos_soak(churn): " << schedules << " schedules, "
                  << runs << " services\n";
      }
    };
  }

  const ChurnReport report = run_churn_soak(options);
  std::cout << "soak=" << (report.ok() ? "ok" : "failed") << "\n"
            << "mode=churn\n"
            << "schedules=" << report.schedules_run << "\n"
            << "runs=" << report.runs << "\n"
            << "batches=" << report.batches_applied << "\n"
            << "epochs=" << report.epochs << "\n"
            << "updates_applied=" << report.updates_applied << "\n"
            << "updates_deferred=" << report.updates_deferred << "\n"
            << "skips=" << report.skips << "\n"
            << "frontier_repairs=" << report.frontier_repairs << "\n"
            << "full_recomputes=" << report.full_recomputes << "\n"
            << "cascade_repairs=" << report.cascade_repairs << "\n"
            << "repair_retries=" << report.repair_retries << "\n"
            << "region_certifications=" << report.region_certifications
            << "\n"
            << "full_certifications=" << report.full_certifications << "\n"
            << "faults_injected=" << report.faults_injected << "\n"
            << "crashes_injected=" << report.crashes_injected << "\n"
            << "recoveries=" << report.recoveries << "\n"
            << "certified=" << report.certified << "\n"
            << "producers=" << options.producers << "\n"
            << "generations=" << report.generations << "\n"
            << "backpressure=" << report.backpressure << "\n"
            << "producer_strikes=" << report.producer_strikes << "\n"
            << "producer_ejections=" << report.producer_ejections << "\n"
            << "query_checks=" << report.query_checks << "\n"
            << "heartbeats=" << report.heartbeats << "\n"
            << "failures=" << report.failures.size() << "\n";
  return report_failures(report.failures);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsets;
  const Flags flags(argc, argv);
  static const std::set<std::string> kKnownFlags = {
      "schedules", "seed",     "n",        "avg_deg",       "machines",
      "no-certify", "progress", "churn",   "batches",       "batch_updates",
      "journal_dir", "producers", "queue_cap"};
  for (const std::string& key : flags.keys()) {
    if (kKnownFlags.count(key) == 0) {
      std::cerr << "error: unknown flag --" << key
                << " (want --schedules=N --seed=S --n=N --avg_deg=D "
                   "--machines=M --no-certify --progress --churn "
                   "--batches=B --batch_updates=U --journal_dir=DIR "
                   "--producers=P --queue_cap=C)\n";
      return 2;
    }
  }

  try {
    if (flags.get_bool("churn", false)) return run_churn(flags);

    ChaosOptions options;
    options.schedules =
        static_cast<std::uint64_t>(flags.get_int("schedules", 200));
    options.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.n = static_cast<std::uint64_t>(flags.get_int("n", 600));
    options.avg_deg = flags.get_double("avg_deg", 6.0);
    options.machines =
        static_cast<std::uint32_t>(flags.get_int("machines", 8));
    options.certify = !flags.get_bool("no-certify", false);
    if (flags.get_bool("progress", false)) {
      options.progress = [](std::uint64_t schedules, std::uint64_t runs) {
        if (schedules % 10 == 0) {
          std::cerr << "chaos_soak: " << schedules << " schedules, " << runs
                    << " runs\n";
        }
      };
    }

    const ChaosReport report = run_chaos_soak(options);
    std::cout << "soak=" << (report.ok() ? "ok" : "failed") << "\n"
              << "schedules=" << report.schedules_run << "\n"
              << "runs=" << report.runs << "\n"
              << "faults_injected=" << report.faults_injected << "\n"
              << "corrupt_detected=" << report.corrupt_detected << "\n"
              << "integrity_retries=" << report.integrity_retries << "\n"
              << "quarantined_rounds=" << report.quarantined_rounds << "\n"
              << "recovery_rounds=" << report.recovery_rounds << "\n"
              << "certified=" << report.certified << "\n"
              << "failures=" << report.failures.size() << "\n";
    return report_failures(report.failures);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
