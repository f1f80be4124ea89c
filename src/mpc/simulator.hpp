// The synchronous MPC round loop with word-exact accounting.
//
// Algorithms are written as drivers: per-machine state lives in arrays owned
// by the algorithm, and each round executes a callback once per machine. The
// discipline (not enforceable in-process, but honored by every algorithm in
// this library, spot-checked in tests, and guarded by the TSan build — see
// tools/check_tsan.sh) is that the callback for machine i reads and writes
// only machine i's state slice and its Inbox; all cross-machine information
// flows through messages, which the simulator counts and caps.
//
// That discipline is exactly what makes rounds embarrassingly parallel: when
// MpcConfig::num_threads != 1 the callbacks of one phase execute on a worker
// pool, and the superstep barrier itself is sharded by destination machine
// (DESIGN.md §4.6): checksum verification, inbox index builds, and the
// canonical outbox merge each run as a parallel pass over destinations,
// while the ordered fault-event drain and quarantine/retry escalation stay
// on the coordinator. The merged in-flight sequence is still canonical —
// machines in id order, destinations ascending, send order within a buffer —
// because slot positions are fixed serially before workers move any bytes.
// The receive-side bandwidth check is word-exact and each machine's RNG
// stream is private — so results and MpcMetrics are bit-identical to
// sequential execution (asserted in tests/test_threaded_determinism.cpp and
// tests/test_barrier_parity.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpc/fault/checkpoint.hpp"
#include "mpc/fault/injector.hpp"
#include "mpc/machine.hpp"
#include "mpc/message.hpp"

namespace rsets::mpc {

// Bounded self-healing knobs of the integrity layer (DESIGN.md §4.4). A
// corrupted delivery is retransmitted at most kMaxIntegrityRetries times
// before the source is quarantined; a source whose messages corrupt in
// kQuarantineStreak consecutive phases is quarantined even when every
// individual delivery healed within the bound.
inline constexpr unsigned kMaxIntegrityRetries = 3;
inline constexpr std::uint64_t kQuarantineStreak = 3;

class Simulator {
 public:
  explicit Simulator(const MpcConfig& config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  MachineId num_machines() const { return config_.num_machines; }
  const MpcConfig& config() const { return config_; }
  Machine& machine(MachineId m) { return machines_.at(m); }
  const Machine& machine(MachineId m) const { return machines_.at(m); }

  // Threads the round callbacks actually run on (num_threads resolved
  // against hardware_concurrency and the machine count).
  unsigned effective_threads() const { return effective_threads_; }

  // Runs one synchronous round: delivers the messages sent in the previous
  // round, then invokes `body(machine, inbox)` once per machine (in id order
  // when sequential, concurrently otherwise), then collects outboxes in
  // machine-id order for the next delivery and enforces the receive-side
  // bandwidth cap.
  using RoundBody = std::function<void(Machine&, const Inbox&)>;
  void round(const RoundBody& body);

  // Delivers all in-flight messages now WITHOUT spending a round: in the BSP
  // semantics, receipt happens at the start of the next round, so a
  // send-round followed by drain() models one full MPC round (send + receive
  // of <= S words each). The receive-side bandwidth cap is enforced here.
  void drain(const RoundBody& body);

  // True if any aggregated buffer is still awaiting delivery.
  bool messages_in_flight() const { return !in_flight_.empty(); }

  // Folds per-machine counters (storage peaks, violations, RNG draws) into
  // the metrics without running a round; call after setup work done outside
  // `round`, or before reading final metrics.
  void sync_metrics();

  const MpcMetrics& metrics() const { return metrics_; }

  // Adds `extra` to the round counter without executing anything — used to
  // charge rounds that the simulation collapses for computational
  // feasibility but that the real algorithm would spend (documented at each
  // call site).
  void charge_rounds(std::uint64_t extra) { metrics_.rounds += extra; }

  // --- fault tolerance -----------------------------------------------------
  // Registers a named hook whose state is serialized into every checkpoint
  // and decoded back on restore. Drivers register their per-machine state
  // arrays (and the DistGraph) right after construction, before the first
  // round that might checkpoint or crash. Registration order defines the
  // encoding order; names are validated on restore. The hook must outlive
  // the simulator's last checkpoint/restore call.
  void register_snapshotable(const std::string& name, Snapshotable* hook);

  // Encodes the full simulator state at the current superstep barrier:
  // metrics, in-flight messages, per-machine counters and RNG cursors, and
  // every registered Snapshotable. Call only between rounds (never from a
  // round body).
  Checkpoint make_checkpoint() const;

  // Decodes `checkpoint` back into the simulator and the registered hooks,
  // returning the run to the barrier it was taken at. Throws CheckpointError
  // on version/shape mismatch or if the registered hooks differ from the
  // ones the checkpoint was written with.
  void restore_checkpoint(const Checkpoint& checkpoint);

  // Round of the last durable checkpoint (0 = the initial state, which is
  // always durable — it can be reconstructed from the input). Crash recovery
  // charges `current round - last_checkpoint_round()` re-executed rounds.
  std::uint64_t last_checkpoint_round() const { return last_checkpoint_round_; }

  // Most recent durable checkpoint image (empty until the first one is taken
  // by MpcConfig::checkpoint_every).
  const Checkpoint& last_checkpoint() const { return last_checkpoint_; }

 private:
  class WorkerPool;

  void run_phase(const RoundBody& body, bool reset_send_budget, bool drain);
  // Runs task(0..num_tasks-1): sequentially on the calling thread when
  // effective_threads_ == 1 (the historical behavior, including the early
  // exception exit), otherwise on the worker pool with every task executed,
  // exceptions captured per task, and the lowest-index exception rethrown —
  // the same exception a sequential run surfaces first.
  void run_indexed(std::uint32_t num_tasks,
                   const std::function<void(std::uint32_t)>& task);
  // Folds per-machine counters into metrics_; returns the cap violations
  // newly observed this phase (the per-round delta surfaced in traces).
  std::uint64_t refresh_metrics_after_round(
      const std::vector<std::uint64_t>& recv_words);
  // Barrier-level fault work for the round being entered: periodic durable
  // checkpoint, injected crashes (snapshot/scramble/restore + recovery
  // charge) and stragglers. Appends events to `events` and returns the round
  // charge to apply after the phase's trace hook ran.
  std::uint64_t handle_barrier(std::vector<FaultEvent>& events);

  // Arena recycling (coordinator thread only): delivered buffers hand their
  // arenas back after the phase's callbacks returned, and the outbox merge
  // hands them out again — so steady-state rounds allocate nothing on the
  // transport path.
  std::vector<Word> acquire_arena();
  void recycle_arena(std::vector<Word>&& arena);

  MpcConfig config_;
  unsigned effective_threads_ = 1;
  // Checksum verification on every delivery: forced on by corruption faults
  // (the attack is survivable only with the defense on) or opted into with
  // MpcConfig::integrity. Checksums ride in the charged message header, so
  // this flag never moves the word ledger.
  bool integrity_active_ = false;
  std::vector<Machine> machines_;
  // One aggregated buffer per (src, dst) pair with traffic, in canonical
  // merge order: machines in id order, destinations ascending within a
  // machine, send order within a buffer.
  std::vector<AggBuffer> in_flight_;
  // Spare arenas, cleared but with capacity retained (see acquire_arena).
  std::vector<std::vector<Word>> arena_pool_;
  // Phase-scoped scratch, kept as members so steady-state rounds reuse their
  // capacity. delivery_[d] holds the whole buffers addressed to machine d
  // this phase; inboxes_[d] is rebuilt over them each phase (its views alias
  // the delivered arenas, dead once those recycle). During a parallel phase
  // each index d is written by exactly one worker.
  std::vector<std::vector<AggBuffer>> delivery_;
  std::vector<Inbox> inboxes_;
  // Destination-sharded merge plan (DESIGN.md §4.6): the coordinator scans
  // out_counts_ in canonical order, recording one slot per (src, dst) pair
  // with traffic — the slot's index IS the buffer's in-flight position and
  // seq — plus a pre-acquired replacement arena (arena_pool_ is
  // coordinator-only). Workers then execute dest_slots_[d] (src-ascending by
  // construction), so each arena move targets a distinct slot.
  struct MergeSlot {
    MachineId src = 0;
    MachineId dst = 0;
    std::uint32_t messages = 0;
    std::vector<Word> replacement;
  };
  std::vector<MergeSlot> merge_slots_;
  std::vector<std::vector<std::uint32_t>> dest_slots_;
  MpcMetrics metrics_;
  std::unique_ptr<WorkerPool> pool_;  // created on demand, only if parallel
  std::unique_ptr<FaultInjector> injector_;  // only if config_.faults.enabled
  std::vector<std::pair<std::string, Snapshotable*>> snapshotables_;
  std::uint64_t last_checkpoint_round_ = 0;
  Checkpoint last_checkpoint_;
  // Consecutive round-deadline misses per machine; drives the exponential
  // backoff of speculative re-execution charges. Serialized in checkpoints
  // (format v2) so recovery resumes the same backoff schedule.
  std::vector<std::uint64_t> deadline_streak_;
  // Consecutive phases in which a machine's outgoing messages corrupted;
  // reaching kQuarantineStreak (or exhausting the per-message retry bound)
  // quarantines the source: its round is re-executed from the barrier
  // snapshot. Serialized in checkpoints (format v3) so recovery resumes the
  // same quarantine pressure.
  std::vector<std::uint64_t> corrupt_streak_;
  // metrics_.violations as of the last emitted trace line, so each line
  // reports every violation observed since the previous line — including
  // ones folded in by hook-less sync_metrics() calls (e.g. charge_rounds
  // during graph distribution).
  std::uint64_t last_traced_violations_ = 0;
};

}  // namespace rsets::mpc
