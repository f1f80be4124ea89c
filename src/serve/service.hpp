// Long-lived ruling-set service: a resident graph under edge churn whose
// β-ruling set is maintained incrementally and certified after every batch.
//
// Contract (the one the fault+churn chaos soak asserts bit-for-bit): after
// every committed epoch, ruling_set() equals the registered algorithm's
// from-scratch output on the current graph — the maintained object is a pure
// function of the graph, never of the update history. Repair exploits the
// locality of ruling sets (a β-ruling set's influence radius is β hops, the
// observation Pai–Pemmaraju's bounds rest on) in three tiers:
//
//   kSkip      the batch cancelled to nothing against the resident graph
//              (insert of a present edge, delete of an absent one): the
//              output is provably unchanged and no algorithm runs.
//   kFrontier  low churn. The sequential greedy backend is repaired exactly
//              by an id-ordered cascade confined to the β-hop frontier of
//              the batch (DESIGN.md §4.7 proves the fixed-point argument);
//              the MPC/CONGEST backends re-run the registered algorithm —
//              their outputs are global functions of the graph, so a
//              frontier-local rerun cannot reproduce them bit-for-bit — but
//              certification is restricted to the β-hop dirty region around
//              the touched edges and the membership diff (sound: outside
//              that region neither the graph nor the set changed, so old
//              dominating paths survive verbatim).
//   kFull      the churn estimator (EWMA of per-epoch effective-update
//              fraction) exceeded its threshold: recompute and run the full
//              in-model certification pass plus its sequential
//              cross-validation.
//
// Admission control reuses the degrade-budget idea at the batch layer:
// batches with more effective updates than `admit_budget` are split into
// sub-batches (one committed epoch each), sub-batches beyond
// `max_epochs_per_apply` stay in the pending queue — deferred, never
// silently dropped — and a repair whose MPC run trips the strict memory
// budget or the round deadline is retried with exponential relaxation
// (degrade policy / doubled deadline) up to `max_repair_retries`.
//
// Epochs are durable through a sealed journal written with the checkpoint
// subsystem's v4 primitives (SnapshotWriter + whole-image FNV seal + atomic
// tmp/fsync/rename publish with .prev rotation): a crash mid-batch recovers
// to the last committed epoch, with the pending queue intact.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/ruling_set.hpp"
#include "serve/dynamic_graph.hpp"
#include "serve/ingest.hpp"
#include "serve/query.hpp"
#include "serve/updates.hpp"

namespace rsets::serve {

class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(const std::string& what) : std::runtime_error(what) {}
};

struct ServiceConfig {
  // The registered algorithm maintained by this service (any registry
  // entry; the MPC backends are the serving scenario, greedy demonstrates
  // exact frontier repair).
  RulingSetOptions options;
  // Max effective (graph-changing) updates admitted into one committed
  // epoch; 0 = unlimited. Larger batches are split into sub-batches.
  std::uint64_t admit_budget = 0;
  // Max epochs committed per apply()/drain() call; 0 = drain fully. The
  // remainder stays pending (deferred, journaled, never dropped).
  std::uint64_t max_epochs_per_apply = 0;
  // Full-path escalation: when the churn EWMA (effective updates / edges,
  // smoothed) or the instantaneous batch fraction exceeds this, skip the
  // frontier analysis and run full recompute + full certification.
  double full_threshold = 0.10;
  // Every k-th committed epoch runs the full in-model certification
  // (mpc::certify_ruling_set + sequential cross-validation) even on the
  // frontier path; 0 = only when escalated. The full pass runs on the
  // snapshot regardless of backend.
  std::uint64_t full_certify_every = 16;
  // Bounded retry for repairs that trip the strict budget (retried under
  // the degrade policy) or report deadline misses (retried with the
  // deadline doubled; the final attempt drops it).
  std::uint32_t max_repair_retries = 3;
  // Durable epoch journal; "" disables journaling (recover() then throws).
  std::string journal_path;
  // Liveness watchdog over the epoch loop; 0 disables. The work measure is
  // deterministic (MPC backends: simulator rounds of the repair run; greedy
  // cascade: work-queue pops), never wall time, so a watchdog decision is
  // bit-reproducible. A frontier-tier repair whose work exceeds this
  // deadline escalates the epoch to the full tier (full recompute + full
  // certification); a full-tier repair whose work exceeds
  // kWatchdogFullFactor * deadline fail-stops the service — the epoch still
  // commits (it is already certified and journaled), the journal is marked
  // sealed, and apply()/drain() throw ServiceError until an operator
  // recover()s explicitly.
  std::uint64_t watchdog_deadline = 0;
};

// Full-tier watchdog budget multiplier: the full tier is allowed
// kWatchdogFullFactor times the frontier deadline before fail-stop.
inline constexpr std::uint64_t kWatchdogFullFactor = 4;

enum class RepairScope : std::uint8_t { kSkip = 0, kFrontier = 1, kFull = 2 };

const char* repair_scope_name(RepairScope scope);

// What one apply()/drain() call did.
struct BatchReport {
  std::uint64_t updates = 0;            // raw updates enqueued by this call
  std::uint64_t effective_updates = 0;  // graph-changing updates committed
  std::uint64_t epochs = 0;             // epochs committed by this call
  std::uint64_t deferred = 0;           // updates still pending afterwards
  RepairScope scope = RepairScope::kSkip;  // widest scope this call used
  std::uint64_t dirty_vertices = 0;     // last certified region size
  std::uint64_t repair_retries = 0;     // retries spent by this call
  bool certified = false;               // every committed epoch certified
  std::uint64_t set_size = 0;
};

struct ServiceMetrics {
  std::uint64_t epochs = 0;             // committed epochs (monotone)
  std::uint64_t batches = 0;            // apply() calls
  std::uint64_t updates_seen = 0;       // raw updates enqueued
  std::uint64_t updates_applied = 0;    // effective graph changes
  std::uint64_t updates_noop = 0;       // cancelled against the graph
  std::uint64_t skips = 0;              // sub-batches with no effective update
  std::uint64_t repairs_frontier = 0;
  std::uint64_t repairs_full = 0;
  std::uint64_t cascade_repairs = 0;    // greedy exact-frontier repairs
  std::uint64_t repair_retries = 0;
  std::uint64_t quarantine_escalations = 0;  // repairs that forced full certify
  std::uint64_t certifications_region = 0;
  std::uint64_t certifications_full = 0;
  std::uint64_t journal_writes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t faults_injected = 0;  // summed over all repair reruns
  // Liveness ledger (PR 9): heartbeats tick at fixed stages of every epoch
  // commit (post-repair, post-certify, and at the commit point just before
  // the journal write) and persist in the journal like epoch_ — an absolute
  // liveness position, not a per-process counter, so a crashed-and-recovered
  // service ends at the same position as an uncrashed twin.
  std::uint64_t heartbeats = 0;
  std::uint64_t watchdog_escalations = 0;  // frontier → full promotions
  std::uint64_t watchdog_failstops = 0;    // full-tier budget exhausted
  std::uint64_t tombstones = 0;            // producer ejections journaled

  bool operator==(const ServiceMetrics&) const = default;
};

class RulingSetService {
 public:
  // Loads the initial graph, computes the initial set (epoch 0), certifies
  // it, and writes the first journal entry when journaling is configured.
  RulingSetService(const Graph& initial, ServiceConfig config);

  // Restores a service from cfg.journal_path (falling back to the .prev
  // generation exactly like checkpoint reads): graph, set, epoch, and the
  // pending queue land at the last committed epoch. Throws ServiceError
  // when the journal is missing/corrupt beyond the fallback or was written
  // by a different (algorithm, beta, n) configuration.
  static RulingSetService recover(ServiceConfig config);

  // Applies one client batch: enqueue, then drain the pending queue within
  // the admission limits. Throws ServiceError if certification fails (the
  // service must never serve an uncertified set); after any throw the
  // in-memory state is indeterminate and the owner should recover() from
  // the journal.
  BatchReport apply(const UpdateBatch& batch);

  // Drains deferred updates only (same admission limits).
  BatchReport drain();

  const std::vector<VertexId>& ruling_set() const { return set_; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t pending() const { return pending_.size(); }
  double churn_ewma() const { return churn_ewma_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  const DynamicGraph& graph() const { return graph_; }
  Graph snapshot() const { return graph_.snapshot(); }
  const ServiceConfig& config() const { return config_; }

  // The last algorithm rerun: its full result ledger and the options the
  // run actually used after retry relaxation — a from-scratch
  // compute_ruling_set(snapshot(), last_repair_options()) reproduces both
  // byte-for-byte (the churn-parity tests pin exactly this). Zeroed /
  // config defaults while no rerun has happened (skip or cascade paths).
  const RulingSetResult& last_repair_result() const { return last_result_; }
  const RulingSetOptions& last_repair_options() const {
    return last_options_;
  }

  // Epoch-pinned point queries: an immutable snapshot of the last committed
  // epoch, republished under a mutex only at commit points (construction,
  // each committed epoch, recovery). Safe to call from any thread while the
  // owner thread applies batches; the handle stays valid (and frozen at its
  // epoch) for as long as the caller holds it.
  QueryHandle query() const;

  // Journals a producer ejection from the ingest front. Durable before it
  // returns (when journaling is configured): the tombstone write uses the
  // same sealed tmp/fsync/rename path as epoch commits, so a crash after
  // this call recovers a journal that still names the dead producer.
  void record_tombstone(const ProducerTombstone& tombstone);
  const std::vector<ProducerTombstone>& tombstones() const {
    return tombstones_;
  }

  // True after a watchdog fail-stop: the journal is sealed and
  // apply()/drain() throw until an operator recover()s.
  bool sealed() const { return sealed_; }

  // Test/chaos hook, called at named stages of every epoch commit
  // ("pre-apply", "pre-commit", "committed") and of every tombstone record
  // ("pre-tombstone", "tombstone-recorded"); throwing from it simulates a
  // crash at that point.
  std::function<void(std::string_view)> crash_hook;

 private:
  RulingSetService() = default;

  BatchReport drain_pending(BatchReport report);
  void commit_epoch(BatchReport& report);
  RulingSetResult run_repair(const Graph& snapshot, BatchReport& report,
                             bool* force_full_certify);
  std::vector<VertexId> cascade_repair(
      std::span<const VertexId> seeds,
      const std::vector<std::pair<VertexId, VertexId>>& deleted,
      std::uint64_t* pops);
  void certify_epoch(const Graph& snap, std::span<const VertexId> dirty_seeds,
                     std::span<const VertexId> old_set, bool full,
                     BatchReport& report);
  void write_journal();
  void publish_snapshot(Graph graph);

  ServiceConfig config_;
  DynamicGraph graph_;
  std::vector<VertexId> set_;
  std::vector<bool> in_set_;  // mirrors set_
  std::uint64_t epoch_ = 0;
  double churn_ewma_ = 0.0;
  std::vector<EdgeUpdate> pending_;  // FIFO deferred-update queue
  ServiceMetrics metrics_;
  RulingSetResult last_result_;
  RulingSetOptions last_options_;
  std::vector<ProducerTombstone> tombstones_;
  bool sealed_ = false;
  // unique_ptr keeps the service movable (recover() returns by value); the
  // mutex guards only the handle swap, never the snapshot contents.
  std::unique_ptr<std::mutex> query_mu_ = std::make_unique<std::mutex>();
  QueryHandle query_handle_;
};

// Frontier-restricted sequential validity check, exposed for tests and the
// chaos harness: independence for members inside `region` plus
// β-domination of every region vertex, examined only through the β-hop
// fringe around the region. Sound as a per-epoch certificate when, outside
// `region`, neither the graph nor the membership changed since the last
// certified epoch (DESIGN.md §4.7).
bool region_valid(const DynamicGraph& g, std::span<const VertexId> set,
                  std::uint32_t beta, std::span<const VertexId> region);

}  // namespace rsets::serve
