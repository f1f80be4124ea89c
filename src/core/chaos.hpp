// Chaos-soak harness: seeded mixed-fault schedules across every MPC
// algorithm, asserting the fault-tolerance contract end to end.
//
// Each schedule derives a graph and a mixed fault specification (crashes,
// stragglers, drops, duplicates, payload corruption, delivery reordering,
// plus periodic checkpoints) deterministically from (base_seed, schedule
// index), then runs every Model::kMpc algorithm in the registry twice: once
// fault-free and once under the schedule. The contract checked per run:
//
//   1. the faulty run's ruling set is bit-identical to the fault-free one
//      (faults may only move the cost ledger, never the answer), and
//   2. the output passes in-model certification plus an independent
//      sequential cross-validation (mpc::certify_ruling_set).
//
// Everything is a pure function of ChaosOptions, so a failing schedule
// index reproduces exactly — the failure record carries the fault spec
// string to rerun it under `rsets_cli --faults=...`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/updates.hpp"

namespace rsets {

struct ChaosOptions {
  // Seeded mixed-fault schedules to run (each covers every MPC algorithm).
  std::uint64_t schedules = 200;
  std::uint64_t base_seed = 1;
  // Per-schedule graph shape (the generator cycles through gnp, gnm,
  // power_law, and tree).
  std::uint64_t n = 600;
  double avg_deg = 6.0;
  std::uint32_t machines = 8;
  // Run the certification + cross-validation pass on every faulty output
  // (skippable for quick smoke runs; identity against the fault-free set is
  // always checked).
  bool certify = true;
  // Optional progress callback: (schedules finished, runs finished).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct ChaosFailure {
  std::uint64_t schedule = 0;
  std::string algorithm;
  std::string fault_spec;  // rerun with rsets_cli --faults=<this>
  std::string what;        // which contract broke, with detail
};

struct ChaosReport {
  std::uint64_t schedules_run = 0;
  std::uint64_t runs = 0;  // faulty executions (algorithms x schedules)
  // Aggregated over all faulty runs.
  std::uint64_t faults_injected = 0;
  std::uint64_t corrupt_detected = 0;
  std::uint64_t integrity_retries = 0;
  std::uint64_t quarantined_rounds = 0;
  std::uint64_t recovery_rounds = 0;
  std::uint64_t certified = 0;  // runs that passed the certification pass
  std::vector<ChaosFailure> failures;

  bool ok() const { return failures.empty(); }
};

// The deterministic fault specification schedule `index` runs under (public
// so a failure can be reproduced or inspected without rerunning the soak).
std::string chaos_fault_spec(std::uint64_t base_seed, std::uint64_t index);

ChaosReport run_chaos_soak(const ChaosOptions& options);

// --- fault + churn soak -----------------------------------------------------
//
// The long-lived-service counterpart of run_chaos_soak: each schedule builds
// a resident RulingSetService per algorithm (the MPC registry plus the
// sequential greedy backend, whose exact cascade repair is the locality
// showcase), then drives seeded update batches through it under the same
// mixed fault specification, rotating admission budgets, deferral limits,
// escalation thresholds, watchdog arming, and simulator thread widths. The
// batches reach the service through a MultiProducerIngest front with
// ChurnOptions::producers producers, advanced by a seeded line-interleaving
// scheduler. The checks per schedule:
//
//   1. the taken generations are exactly the canonical per-producer batch
//      alignment (merge determinism under any interleaving);
//   2. after every drained generation, the incrementally maintained set is
//      bit-identical to a from-scratch, fault-free recompute on the current
//      graph, and the repair ledger and record-log bodies match a
//      from-scratch rerun whenever the generation committed as one
//      un-retried rerun;
//   3. point queries on a fresh handle agree with brute force, and a
//      handle taken before the commit stays pinned at its epoch;
//   4. the final state is bit-identical (set + graph fingerprint + epoch +
//      heartbeats; the metrics ledger minus its durability counters on
//      crash-free schedules) to an uncrashed, unjournaled twin fed the
//      merged sequence from scratch, and passes full certification.
//
// Every third schedule also kills the service mid-batch (a crash_hook throw
// at the pre-commit stage), recovers it from the sealed journal, and
// finishes the batch — recovery must land on the same bits. Schedules with
// s%4==3 poison one producer's stream once, then the producer heals and
// recovers from quarantine; with two or more producers, s%4==1 poisons it
// until the producer is ejected and its tombstone journaled.

struct ChurnOptions {
  std::uint64_t schedules = 100;
  std::uint64_t base_seed = 1;
  // Initial per-schedule graph shape (same generator rotation as the fault
  // soak: gnp, gnm, power_law, tree).
  std::uint64_t n = 300;
  double avg_deg = 5.0;
  std::uint32_t machines = 8;
  // Update batches pushed through each service and raw updates per batch.
  std::uint64_t batches = 5;
  std::uint64_t batch_updates = 24;
  // Run the full in-model certification + sequential cross-validation on
  // each service's final state (per-epoch certification always runs inside
  // the service itself).
  bool certify = true;
  // Directory for service journals; "" disables journaling AND the
  // crash/recovery exercise (quick in-memory smoke). The soak writes one
  // journal per (schedule, algorithm) and leaves cleanup to the caller.
  std::string journal_dir;
  // Producers feeding the ingest front (>= 1). Each commits `batches`
  // batches of batch_updates / producers updates, so generation g merges
  // every producer's g-th batch. The ejection flavor needs at least two.
  std::uint32_t producers = 1;
  // Per-producer committed-batch queue cap of the ingest front (exercises
  // backpressure); 0 = unbounded.
  std::uint64_t queue_cap = 2;
  // Optional progress callback: (schedules finished, service runs finished).
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

struct ChurnReport {
  std::uint64_t schedules_run = 0;
  std::uint64_t runs = 0;  // service lifetimes (algorithms x schedules)
  std::uint64_t batches_applied = 0;
  std::uint64_t epochs = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_deferred = 0;
  // Repair-scope mix over all epochs.
  std::uint64_t skips = 0;
  std::uint64_t frontier_repairs = 0;
  std::uint64_t full_recomputes = 0;
  std::uint64_t cascade_repairs = 0;
  std::uint64_t repair_retries = 0;
  std::uint64_t region_certifications = 0;
  std::uint64_t full_certifications = 0;
  // Fault + crash ledger.
  std::uint64_t faults_injected = 0;
  std::uint64_t crashes_injected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t certified = 0;  // final states that passed full certification
  // Ingest-front and query ledger.
  std::uint64_t generations = 0;         // aligned generations applied
  std::uint64_t backpressure = 0;        // pushes bounced/blocked by the cap
  std::uint64_t producer_strikes = 0;    // malformed/integrity strikes
  std::uint64_t producer_ejections = 0;  // tombstoned producers
  std::uint64_t query_checks = 0;        // point queries verified brute-force
  std::uint64_t heartbeats = 0;          // final services' liveness ticks
  std::vector<ChaosFailure> failures;

  bool ok() const { return failures.empty(); }
};

// The deterministic update batch `batch` of churn schedule `index` over an
// n-vertex id space (public for reproduction, like chaos_fault_spec).
// Batches mix inserts and deletes and occasionally emit contradictory
// duplicate lines, exercising last-write-wins and no-op cancellation.
serve::UpdateBatch chaos_churn_batch(std::uint64_t base_seed,
                                     std::uint64_t index, std::uint64_t batch,
                                     std::uint64_t n, std::uint64_t updates);

// Throws std::invalid_argument when options.producers is 0.
ChurnReport run_churn_soak(const ChurnOptions& options);

}  // namespace rsets
