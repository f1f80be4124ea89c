#include "mpc/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace rsets::mpc {
namespace {

unsigned resolve_threads(unsigned requested, MachineId num_machines) {
  unsigned t = requested == 0
                   ? std::max(1u, std::thread::hardware_concurrency())
                   : requested;
  return std::min<unsigned>(std::max(1u, t), std::max<MachineId>(1, num_machines));
}

}  // namespace

// A persistent pool executing one task index set per generation. Workers
// claim machine indices through an atomic counter, so scheduling order is
// arbitrary — correctness does not depend on it because each task touches
// only its machine's slice; determinism is restored by the caller merging
// arenas against the serially-fixed canonical plan afterwards.
class Simulator::WorkerPool {
 public:
  explicit WorkerPool(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Runs task(0..num_tasks-1) across the workers and the calling thread;
  // returns after every task has finished. `task` must not throw (callers
  // capture exceptions per task).
  void run(std::uint32_t num_tasks,
           const std::function<void(std::uint32_t)>& task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      task_ = &task;
      num_tasks_ = num_tasks;
      next_task_.store(0, std::memory_order_relaxed);
      idle_workers_ = 0;
      ++generation_;
    }
    work_ready_.notify_all();
    // The caller participates instead of blocking idle.
    drain_tasks(task, num_tasks);
    std::unique_lock<std::mutex> lock(mu_);
    all_idle_.wait(lock, [&] { return idle_workers_ == threads_.size(); });
    task_ = nullptr;
  }

 private:
  void drain_tasks(const std::function<void(std::uint32_t)>& task,
                   std::uint32_t num_tasks) {
    while (true) {
      const std::uint32_t i =
          next_task_.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) break;
      task(i);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(std::uint32_t)>* task = nullptr;
      std::uint32_t num_tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        task = task_;
        num_tasks = num_tasks_;
      }
      drain_tasks(*task, num_tasks);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (++idle_workers_ == threads_.size()) all_idle_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::vector<std::thread> threads_;
  const std::function<void(std::uint32_t)>* task_ = nullptr;
  std::uint32_t num_tasks_ = 0;
  std::atomic<std::uint32_t> next_task_{0};
  std::size_t idle_workers_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

Simulator::Simulator(const MpcConfig& config) : config_(config) {
  if (config_.num_machines == 0) {
    throw std::invalid_argument("Simulator: need at least one machine");
  }
  effective_threads_ =
      resolve_threads(config_.num_threads, config_.num_machines);
  machines_.reserve(config_.num_machines);
  for (MachineId m = 0; m < config_.num_machines; ++m) {
    machines_.emplace_back(m, config_);
  }
  deadline_streak_.assign(config_.num_machines, 0);
  corrupt_streak_.assign(config_.num_machines, 0);
  delivery_.resize(config_.num_machines);
  inboxes_.resize(config_.num_machines);
  dest_slots_.resize(config_.num_machines);
  if (config_.faults.enabled) {
    injector_ =
        std::make_unique<FaultInjector>(config_.faults, config_.num_machines);
  }
  integrity_active_ =
      config_.integrity || (injector_ && injector_->has_corrupt_faults());
}

Simulator::~Simulator() = default;

void Simulator::run_indexed(std::uint32_t num_tasks,
                            const std::function<void(std::uint32_t)>& task) {
  if (effective_threads_ <= 1) {
    // Sequential path: identical to the historical loop, including the
    // exception point (a throwing task exits before later tasks run).
    for (std::uint32_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  if (!pool_) {
    pool_ = std::make_unique<WorkerPool>(effective_threads_ - 1);
  }
  // Parallel path: every task runs (exceptions are captured, not propagated
  // mid-pass), then the lowest-index exception is rethrown — the same
  // exception a sequential run surfaces first.
  std::vector<std::exception_ptr> errors(num_tasks);
  pool_->run(num_tasks, [&](std::uint32_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void Simulator::round(const RoundBody& body) {
  ++metrics_.rounds;
  run_phase(body, /*reset_send_budget=*/true, /*drain=*/false);
}

void Simulator::drain(const RoundBody& body) {
  // Receipt of the previous round's sends; no new round starts. Sends made
  // inside a drain body count against the *next* round's budget, so we do
  // not reset the send accounting here — but drain bodies by convention do
  // not send (delivery handlers only).
  run_phase(body, /*reset_send_budget=*/false, /*drain=*/true);
}

void Simulator::run_phase(const RoundBody& body, bool reset_send_budget,
                          bool drain) {
  const auto wall_start = std::chrono::steady_clock::now();

  // Barrier-level fault work (periodic checkpoints, crashes, stragglers)
  // happens only when a round starts, not at drain boundaries — a drain is
  // the receive half of the round whose barrier already ran.
  std::vector<FaultEvent> fault_events;
  std::uint64_t deferred_round_charge = 0;
  if (!drain && (injector_ || config_.checkpoint_every != 0)) {
    deferred_round_charge = handle_barrier(fault_events);
  }

  // Deliver: partition in-flight aggregated buffers by destination. Buffer
  // order within a destination follows in_flight_ order, which run_phase
  // fixed by merging send arenas in canonical order last phase — so delivery is
  // identical regardless of how the upcoming callbacks are scheduled.
  // Transport faults are drawn here, per buffer in merged order: the
  // reliable-delivery layer retransmits a dropped copy and deduplicates a
  // duplicated one within the barrier, so the inbox contents are unchanged
  // and only the retransmitted words are charged (into this phase's ledger,
  // keeping the trace-sum == metrics identity). Since aggregation, the unit
  // the adversary can drop/duplicate/corrupt is the whole (src, dst) buffer
  // — one wire transfer — so a retransmission recharges every message it
  // carried.
  std::uint64_t retransmit_messages = 0;
  std::uint64_t retransmit_words = 0;
  const bool transport_faults = injector_ && injector_->has_transport_faults();
  const bool corrupt_faults = injector_ && injector_->has_corrupt_faults();

  // Reorder fault: the adversary permutes this delivery's in-flight buffer
  // sequence; the transport heals by re-sorting on the sequence numbers
  // stamped at arena merge, restoring canonical order before any
  // per-buffer draw or partition happens. No words are charged — sequence
  // numbers ride in the already-charged framing words.
  if (injector_ && injector_->has_reorder_faults()) {
    std::vector<std::uint32_t> perm;
    if (injector_->reorder_fault(metrics_.rounds, in_flight_.size(), perm)) {
      std::vector<AggBuffer> shuffled(in_flight_.size());
      for (std::size_t i = 0; i < perm.size(); ++i) {
        shuffled[i] = std::move(in_flight_[perm[i]]);
      }
      in_flight_ = std::move(shuffled);
      std::sort(in_flight_.begin(), in_flight_.end(),
                [](const AggBuffer& a, const AggBuffer& b) {
                  return a.seq < b.seq;
                });
      FaultEvent e;
      e.kind = FaultKind::kReorder;
      e.round = metrics_.rounds;
      e.words = in_flight_.size();  // buffers permuted
      ++metrics_.faults_injected;
      fault_events.push_back(e);
    }
  }

  // Per-source integrity bookkeeping for this phase: which sources produced
  // a corrupted delivery, and which exhausted the bounded retry.
  std::vector<std::uint8_t> corrupted_src;
  std::vector<std::uint8_t> exhausted_src;
  if (corrupt_faults) {
    corrupted_src.assign(config_.num_machines, 0);
    exhausted_src.assign(config_.num_machines, 0);
  }

  // Maps the flat payload-bit index the injector drew to the arena word
  // holding it, walking the record framing (framing words carry addressing
  // and are modelled as protected — only payload bits corrupt, exactly as
  // in the per-message transport).
  const auto payload_word_at = [](const AggBuffer& buf,
                                  std::uint64_t word_idx) -> std::size_t {
    std::size_t at = 0;
    while (true) {
      const std::uint64_t len = buf.arena[at + 1];
      if (word_idx < len) {
        return at + kHeaderWords + static_cast<std::size_t>(word_idx);
      }
      word_idx -= len;
      at += kHeaderWords + static_cast<std::size_t>(len);
    }
  };

  for (AggBuffer& buf : in_flight_) {
    if (transport_faults) {
      FaultEvent event;
      if (injector_->transport_fault(metrics_.rounds, buf.src, buf.words(),
                                     event)) {
        retransmit_messages += buf.messages;
        retransmit_words += event.words;
        ++metrics_.faults_injected;
        fault_events.push_back(event);
      }
    }
    if (corrupt_faults) {
      // Bounded self-healing delivery: each attempt may corrupt (the
      // injector flips a real payload bit somewhere in the buffer); the
      // receive-side batch checksum catches the flip and triggers a
      // retransmission of the whole buffer, charged like a dropped-buffer
      // retransmit. The retry re-draws, so a noisy link can corrupt its own
      // retry — after kMaxIntegrityRetries corrupted attempts the transport
      // delivers the pristine copy and hands the source to quarantine
      // instead of retrying forever.
      const std::uint64_t payload_bits =
          static_cast<std::uint64_t>(buf.words() -
                                     std::size_t{kHeaderWords} * buf.messages) *
          64;
      for (unsigned attempt = 1;; ++attempt) {
        FaultEvent event;
        std::uint64_t bit = 0;
        if (!injector_->corrupt_fault(metrics_.rounds, buf.src, buf.words(),
                                      payload_bits, event, bit)) {
          break;  // this attempt delivered clean
        }
        const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
        const std::size_t flipped = payload_word_at(buf, bit >> 6);
        buf.arena[flipped] ^= mask;  // the flip happens for real
        if (buffer_checksum(buf) == buf.checksum) {
          // Unreachable: FNV-1a detects every single-bit flip in a word
          // (see util/fnv.hpp). Kept as the honest alternative — if the
          // digest ever missed, the corrupted payload would be delivered.
          break;
        }
        ++metrics_.corrupt_detected;
        ++metrics_.faults_injected;
        fault_events.push_back(event);
        // Heal: the sender retransmits the pristine copy (undo the flip),
        // charged into this phase's ledger like a drop retransmission.
        buf.arena[flipped] ^= mask;
        ++metrics_.integrity_retries;
        retransmit_messages += buf.messages;
        retransmit_words += buf.words();
        corrupted_src[buf.src] = 1;
        if (attempt >= kMaxIntegrityRetries) {
          exhausted_src[buf.src] = 1;
          break;
        }
      }
    }
    delivery_[buf.dst].push_back(std::move(buf));
  }
  in_flight_.clear();

  // Quarantine: a source that corrupted in kQuarantineStreak consecutive
  // phases — or exhausted a message's retry bound outright — has its round
  // re-executed from the barrier snapshot (the roundtrip happens after the
  // callbacks, sharing the deadline-speculation path). One re-executed
  // round is charged per quarantined source.
  bool barrier_roundtrip = false;
  if (corrupt_faults) {
    for (MachineId m = 0; m < config_.num_machines; ++m) {
      bool quarantine = exhausted_src[m] != 0;
      if (corrupted_src[m] != 0) {
        if (++corrupt_streak_[m] >= kQuarantineStreak) quarantine = true;
      } else {
        corrupt_streak_[m] = 0;
      }
      if (!quarantine) continue;
      FaultEvent e;
      e.kind = FaultKind::kQuarantine;
      e.round = metrics_.rounds;
      e.machine = m;
      e.words = corrupt_streak_[m];  // streak that triggered it
      e.delay_rounds = 1;            // rounds re-executed
      ++metrics_.quarantined_rounds;
      deferred_round_charge += 1;
      ++metrics_.faults_injected;
      fault_events.push_back(e);
      corrupt_streak_[m] = 0;  // the source restarts clean
      barrier_roundtrip = true;
    }
  }

  // Snapshot per-machine send cursors so degrade/deadline accounting can
  // attribute exactly this phase's sent words (drain phases do not reset the
  // cursor). Taken on the coordinating thread before any callback runs.
  std::vector<std::uint64_t> sent_before;
  const bool track_phase_work = config_.budget_policy == BudgetPolicy::kDegrade ||
                                config_.round_deadline != 0;
  if (track_phase_work && !reset_send_budget) {
    sent_before.resize(config_.num_machines);
    for (MachineId m = 0; m < config_.num_machines; ++m) {
      sent_before[m] = machines_[m].sent_words_this_round_;
    }
  }

  // Parallel delivery pass, sharded by destination (DESIGN.md §4.6): one
  // worker per destination verifies the batch checksum of every buffer
  // addressed to it (when the integrity layer is active) and builds the
  // (tag, src) inbox index over the delivered arenas. Worker d touches only
  // delivery_[d], inboxes_[d], and recv_words[d], so the pass is race-free;
  // the buffers within a destination are already in canonical order (the
  // serial partition above preserved in-flight order), so the index —
  // including its sorted-detection fast path — is byte-identical to the
  // sequential build.
  std::vector<std::uint64_t> recv_words(config_.num_machines, 0);
  run_indexed(config_.num_machines, [&](std::uint32_t d) {
    if (integrity_active_) {
      for (const AggBuffer& buf : delivery_[d]) {
        // Verify-on-receive, one digest per aggregated buffer. After the
        // healing loop above a mismatch means the transport itself is
        // broken, so it is a hard failure — and in fault-free integrity
        // runs this check is exactly what IntegrityAllMpc in
        // tests/test_integrity.cpp proves to be free.
        if (buffer_checksum(buf) != buf.checksum) {
          throw MpcViolation("integrity: checksum mismatch on delivery from "
                             "machine " +
                             std::to_string(buf.src));
        }
      }
    }
    // The inbox only indexes the delivered buffers — payload views alias
    // their arenas, which the coordinator keeps alive (and recycles) after
    // every callback has returned.
    inboxes_[d].build(std::span<const AggBuffer>(delivery_[d]));
    recv_words[d] = inboxes_[d].total_words();
  });

  auto run_machine = [&](MachineId m) {
    Machine& machine = machines_[m];
    if (reset_send_budget) machine.sent_words_this_round_ = 0;
    const Inbox& inbox = inboxes_[m];
    if (recv_words[m] > config_.memory_words) {
      // kDegrade spreads the over-budget receive across sub-rounds, charged
      // at the phase barrier below; the inbox itself is delivered whole so
      // the callback's behavior is bit-identical to the unconstrained run.
      if (config_.budget_policy == BudgetPolicy::kStrict) {
        throw MpcViolation("machine " + std::to_string(m) +
                           " exceeded receive bandwidth: " +
                           std::to_string(recv_words[m]) + " > " +
                           std::to_string(config_.memory_words) + " words");
      }
      if (config_.budget_policy == BudgetPolicy::kTrace) ++machine.violations_;
    }
    body(machine, inbox);
  };

  run_indexed(config_.num_machines,
              [&](std::uint32_t m) { run_machine(static_cast<MachineId>(m)); });

  // Every callback has returned: the delivered arenas are dead weight now,
  // so hand them to the recycle pool before the merge below asks for fresh
  // ones. Coordinator thread only. (The inbox views over these arenas are
  // dead too — each inboxes_[d] is rebuilt before its next read.)
  for (std::vector<AggBuffer>& bufs : delivery_) {
    for (AggBuffer& buf : bufs) recycle_arena(std::move(buf.arena));
    bufs.clear();
  }

  // Collect sends in canonical merge order — machines in id order,
  // destinations ascending within a machine, send order within a buffer —
  // so the merged in_flight_ sequence (and with it all downstream delivery,
  // accounting, and tie-breaking) is independent of callback scheduling.
  //
  // The merge is sharded by destination (DESIGN.md §4.6). The coordinator
  // first fixes the canonical plan serially: one slot per (src, dst) pair
  // with traffic, whose index IS the buffer's in-flight position (and seq —
  // the anchor reorder healing sorts back to), plus a replacement arena
  // pre-acquired from the coordinator-only recycle pool. Workers — one per
  // destination — then move the arenas out of the machines, install the
  // replacements, and stamp the batch checksum (the expensive part, and the
  // reason the pass is parallel). dest_slots_[d] is src-ascending because
  // the serial scan is src-major, each slot is touched by exactly one
  // worker, and slot positions never depend on scheduling — so the merged
  // bytes are identical at any thread width.
  std::uint64_t phase_messages = retransmit_messages;
  std::uint64_t phase_words = retransmit_words;
  merge_slots_.clear();
  for (std::vector<std::uint32_t>& slots : dest_slots_) slots.clear();
  for (MachineId m = 0; m < config_.num_machines; ++m) {
    Machine& machine = machines_[m];
    for (MachineId dst = 0; dst < config_.num_machines; ++dst) {
      if (machine.out_counts_[dst] == 0) continue;
      dest_slots_[dst].push_back(
          static_cast<std::uint32_t>(merge_slots_.size()));
      merge_slots_.push_back(
          {m, dst, machine.out_counts_[dst], acquire_arena()});
    }
  }
  in_flight_.resize(merge_slots_.size());
  run_indexed(config_.num_machines, [&](std::uint32_t d) {
    for (const std::uint32_t i : dest_slots_[d]) {
      MergeSlot& slot = merge_slots_[i];
      Machine& machine = machines_[slot.src];
      AggBuffer& buf = in_flight_[i];
      buf.src = slot.src;
      buf.dst = slot.dst;
      buf.messages = slot.messages;
      buf.arena = std::move(machine.out_arenas_[slot.dst]);
      machine.out_arenas_[slot.dst] = std::move(slot.replacement);
      machine.out_counts_[slot.dst] = 0;
      // Stamp the transport header: seq is the canonical position fixed by
      // the serial scan; the batch checksum is computed only when
      // verification will run. Both ride in the per-record framing words
      // already charged at send time.
      buf.seq = i;
      if (integrity_active_) buf.checksum = buffer_checksum(buf);
    }
  });
  for (const AggBuffer& buf : in_flight_) {
    phase_messages += buf.messages;
    phase_words += buf.words();
  }
  metrics_.messages += phase_messages;
  metrics_.total_words += phase_words;

  // This phase's sent words per machine (cursors were reset for round
  // phases, so the delta against sent_before is 0 there).
  auto phase_sent = [&](MachineId m) {
    const std::uint64_t now = machines_[m].sent_words_this_round_;
    return sent_before.empty() ? now : now - sent_before[m];
  };

  // Graceful degradation: an over-budget phase is modelled as spill-and-
  // resend. Each S-word wave beyond the first costs one extra sub-round;
  // waves on different machines of the same phase overlap (the barrier
  // waits for the slowest machine), so the charge is the max over machines,
  // per direction. Over-budget persistent storage pays its spill/fetch
  // waves every round it persists (round phases only — a drain is the
  // receive half of a round already charged).
  std::uint64_t phase_degraded = 0;
  if (config_.budget_policy == BudgetPolicy::kDegrade) {
    const std::uint64_t cap = config_.memory_words;
    auto extra_waves = [cap](std::uint64_t words) -> std::uint64_t {
      return words > cap ? (words + cap - 1) / cap - 1 : 0;
    };
    std::uint64_t recv_waves = 0, send_waves = 0, storage_waves = 0;
    for (MachineId m = 0; m < config_.num_machines; ++m) {
      recv_waves = std::max(recv_waves, extra_waves(recv_words[m]));
      send_waves = std::max(send_waves, extra_waves(phase_sent(m)));
      if (!drain && machines_[m].storage_words_ > cap) {
        const std::uint64_t excess = machines_[m].storage_words_ - cap;
        storage_waves = std::max(storage_waves, (excess + cap - 1) / cap);
      }
    }
    phase_degraded = recv_waves + send_waves + storage_waves;
    metrics_.degraded_subrounds += phase_degraded;
    deferred_round_charge += phase_degraded;
  }

  // Straggler deadlines: a machine whose phase work (words in + words out)
  // exceeds the deadline missed the barrier. It is speculatively re-executed
  // from an in-memory barrier snapshot — a genuine encode/decode through the
  // registered Snapshotable hooks, landing on the exact same state because
  // the work is deterministic — and the retry is charged with exponential
  // backoff per consecutive miss (capped at 32 rounds per retry).
  if (config_.round_deadline != 0) {
    bool any_miss = false;
    for (MachineId m = 0; m < config_.num_machines; ++m) {
      const std::uint64_t work = recv_words[m] + phase_sent(m);
      if (work > config_.round_deadline) {
        any_miss = true;
        ++metrics_.deadline_misses;
        const std::uint64_t streak = ++deadline_streak_[m];
        const std::uint64_t backoff = std::uint64_t{1}
                                      << std::min<std::uint64_t>(streak - 1, 5);
        metrics_.speculative_rounds += backoff;
        deferred_round_charge += backoff;
        FaultEvent e;
        e.kind = FaultKind::kDeadline;
        e.round = metrics_.rounds;
        e.machine = m;
        e.delay_rounds = backoff;
        e.words = work;
        fault_events.push_back(e);
      } else {
        deadline_streak_[m] = 0;
      }
    }
    if (any_miss) barrier_roundtrip = true;
  }

  // Speculative/quarantine re-execution shares one barrier-snapshot
  // roundtrip: a genuine encode/decode through the registered Snapshotable
  // hooks, landing on the exact same state because the work is
  // deterministic.
  if (barrier_roundtrip) {
    // The roundtrip resets trace attribution (restore_checkpoint cannot
    // know it is an identity replay), so preserve it across the replay.
    const std::uint64_t saved_traced = last_traced_violations_;
    restore_checkpoint(make_checkpoint());
    last_traced_violations_ = saved_traced;
  }

  refresh_metrics_after_round(recv_words);

  if (config_.trace_hook) {
    RoundTrace trace;
    trace.round = metrics_.rounds;
    trace.drain = drain;
    trace.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    trace.messages = phase_messages;
    trace.words_sent = phase_words;
    for (std::uint64_t words : recv_words) {
      trace.words_recv += words;
      trace.max_recv_words = std::max(trace.max_recv_words, words);
    }
    // Delta since the previous trace line (not the previous sync), so
    // violations folded in by hook-less syncs still surface on a line.
    trace.violations = metrics_.violations - last_traced_violations_;
    last_traced_violations_ = metrics_.violations;
    trace.degraded_subrounds = phase_degraded;
    trace.faults = std::move(fault_events);
    config_.trace_hook(trace);
  }

  // Straggler stalls and crash-recovery re-execution are charged after the
  // trace hook, so the phase keeps the round label its barrier ran under and
  // the next round starts past the charged delay.
  metrics_.rounds += deferred_round_charge;
}

std::uint64_t Simulator::handle_barrier(std::vector<FaultEvent>& events) {
  // A durable checkpoint scheduled for this barrier is taken first, so a
  // crash injected at the same barrier recovers from it at zero charge.
  if (config_.checkpoint_every != 0 &&
      metrics_.rounds % config_.checkpoint_every == 0) {
    last_checkpoint_ = make_checkpoint();
    last_checkpoint_round_ = metrics_.rounds;
    ++metrics_.checkpoints;
    FaultEvent e;
    e.kind = FaultKind::kCheckpoint;
    e.round = metrics_.rounds;
    e.checkpoint = last_checkpoint_.bytes.size();
    events.push_back(e);
  }
  if (!injector_) return 0;

  std::uint64_t round_charge = 0;
  std::vector<FaultEvent> injected = injector_->barrier_faults(metrics_.rounds);
  std::vector<MachineId> crashed;
  for (const FaultEvent& e : injected) {
    if (e.kind == FaultKind::kCrash) {
      crashed.push_back(e.machine);
    } else {
      round_charge += e.delay_rounds;  // straggler: the barrier waits
    }
  }
  if (!crashed.empty()) {
    // Crash-restart at the barrier: snapshot the barrier state, lose the
    // crashed machines' volatile state (and in-transit messages), then
    // recover by decoding the snapshot — a real restore, not a no-op — and
    // charge the supersteps since the last durable checkpoint, which
    // re-execution would replay bit-identically.
    Checkpoint barrier = make_checkpoint();
    for (MachineId m : crashed) {
      Machine& machine = machines_[m];
      machine.storage_words_ = ~std::size_t{0};
      machine.peak_storage_words_ = ~std::size_t{0};
      machine.sent_words_this_round_ = ~std::uint64_t{0};
      machine.violations_ = ~std::uint64_t{0};
      for (std::vector<Word>& arena : machine.out_arenas_) arena.clear();
      machine.out_counts_.assign(machine.out_counts_.size(), 0);
      Rng::State junk;
      for (std::uint64_t& s : junk.s) s = 0xDEADDEADDEADDEADull;
      junk.draws = ~std::uint64_t{0};
      machine.rng_.set_state(junk);
    }
    in_flight_.clear();
    restore_checkpoint(barrier);
    const std::uint64_t recovery = metrics_.rounds - last_checkpoint_round_;
    round_charge += recovery;
    metrics_.recovery_rounds += recovery;
    for (FaultEvent& e : injected) {
      if (e.kind != FaultKind::kCrash) continue;
      e.delay_rounds = recovery;
      e.checkpoint = last_checkpoint_round_;
    }
  }
  metrics_.faults_injected += injected.size();
  events.insert(events.end(), injected.begin(), injected.end());
  return round_charge;
}

void Simulator::register_snapshotable(const std::string& name,
                                      Snapshotable* hook) {
  if (name.empty() || hook == nullptr) {
    throw std::invalid_argument(
        "register_snapshotable: need a name and a hook");
  }
  for (const auto& [existing, _] : snapshotables_) {
    if (existing == name) {
      throw std::invalid_argument("register_snapshotable: duplicate name " +
                                  name);
    }
  }
  snapshotables_.emplace_back(name, hook);
}

Checkpoint Simulator::make_checkpoint() const {
  Checkpoint checkpoint;
  checkpoint.round = metrics_.rounds;
  SnapshotWriter w(checkpoint.bytes);
  w.u64(kCheckpointMagic);
  w.u64(kCheckpointVersion);
  w.u64(metrics_.rounds);
  w.u64(config_.num_machines);
  // Metrics ledger.
  w.u64(metrics_.rounds);
  w.u64(metrics_.messages);
  w.u64(metrics_.total_words);
  w.u64(metrics_.max_send_words);
  w.u64(metrics_.max_recv_words);
  w.u64(metrics_.max_storage_words);
  w.u64(metrics_.violations);
  w.u64(metrics_.random_words);
  w.u64(metrics_.faults_injected);
  w.u64(metrics_.checkpoints);
  w.u64(metrics_.recovery_rounds);
  w.u64(metrics_.degraded_subrounds);
  w.u64(metrics_.deadline_misses);
  w.u64(metrics_.speculative_rounds);
  w.u64(metrics_.corrupt_detected);
  w.u64(metrics_.integrity_retries);
  w.u64(metrics_.quarantined_rounds);
  // In-flight aggregated buffers (awaiting delivery at this barrier) —
  // format v4: (src, dst, messages, arena) per buffer; seq and checksum are
  // derived and re-stamped on restore.
  w.u64(in_flight_.size());
  for (const AggBuffer& buf : in_flight_) {
    w.u64(buf.src);
    w.u64(buf.dst);
    w.u64(buf.messages);
    w.vec(buf.arena);
  }
  // Per-machine counters and RNG cursors.
  for (MachineId m = 0; m < config_.num_machines; ++m) {
    const Machine& machine = machines_[m];
    w.u64(machine.storage_words_);
    w.u64(machine.peak_storage_words_);
    w.u64(machine.sent_words_this_round_);
    w.u64(machine.violations_);
    const Rng::State rng = machine.rng_.state();
    for (const std::uint64_t s : rng.s) w.u64(s);
    w.u64(rng.draws);
    w.u64(deadline_streak_[m]);
    w.u64(corrupt_streak_[m]);
  }
  // Driver state via registered hooks, each length-prefixed and named so
  // restore can validate shape before decoding.
  w.u64(snapshotables_.size());
  for (const auto& [name, hook] : snapshotables_) {
    w.str(name);
    std::vector<std::uint8_t> payload;
    SnapshotWriter pw(payload);
    hook->save(pw);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
  }
  // Seal last: the trailing whole-image digest covers everything above and
  // is what read_checkpoint_file / restore_checkpoint verify.
  seal_checkpoint(checkpoint.bytes);
  return checkpoint;
}

void Simulator::restore_checkpoint(const Checkpoint& checkpoint) {
  // Never decode an image whose whole-image digest does not verify: a
  // bit-rotted checkpoint must fail loudly here, not restore silently-wrong
  // state.
  verify_checkpoint_image(checkpoint.bytes, "restore_checkpoint");
  SnapshotReader r(checkpoint.bytes.data(), checkpoint.bytes.size());
  if (r.u64() != kCheckpointMagic) {
    throw CheckpointError("restore_checkpoint: bad magic");
  }
  if (r.u64() != kCheckpointVersion) {
    throw CheckpointError("restore_checkpoint: unsupported version");
  }
  r.u64();  // header round (duplicated in the metrics section below)
  if (r.u64() != config_.num_machines) {
    throw CheckpointError(
        "restore_checkpoint: machine count differs from this simulator");
  }
  metrics_.rounds = r.u64();
  metrics_.messages = r.u64();
  metrics_.total_words = r.u64();
  metrics_.max_send_words = r.u64();
  metrics_.max_recv_words = r.u64();
  metrics_.max_storage_words = static_cast<std::size_t>(r.u64());
  metrics_.violations = r.u64();
  metrics_.random_words = r.u64();
  metrics_.faults_injected = r.u64();
  metrics_.checkpoints = r.u64();
  metrics_.recovery_rounds = r.u64();
  metrics_.degraded_subrounds = r.u64();
  metrics_.deadline_misses = r.u64();
  metrics_.speculative_rounds = r.u64();
  metrics_.corrupt_detected = r.u64();
  metrics_.integrity_retries = r.u64();
  metrics_.quarantined_rounds = r.u64();
  const std::uint64_t num_buffers = r.u64();
  in_flight_.clear();
  for (std::uint64_t i = 0; i < num_buffers; ++i) {
    AggBuffer buf;
    buf.src = static_cast<MachineId>(r.u64());
    buf.dst = static_cast<MachineId>(r.u64());
    buf.messages = static_cast<std::uint32_t>(r.u64());
    r.vec(buf.arena);
    if (buf.dst >= config_.num_machines) {
      throw CheckpointError("restore_checkpoint: buffer to unknown machine");
    }
    // Validate the record framing before accepting the buffer: a decoder
    // must never hand the delivery path an arena whose walk would overrun.
    std::size_t at = 0;
    for (std::uint32_t msg = 0; msg < buf.messages; ++msg) {
      if (buf.arena.size() - at < kHeaderWords ||
          buf.arena[at + 1] > buf.arena.size() - at - kHeaderWords) {
        throw CheckpointError("restore_checkpoint: malformed buffer framing");
      }
      at += kHeaderWords + static_cast<std::size_t>(buf.arena[at + 1]);
    }
    if (at != buf.arena.size()) {
      throw CheckpointError("restore_checkpoint: malformed buffer framing");
    }
    // Transport header fields are not serialized; re-stamp them exactly as
    // the barrier merge did — seq is the in-flight position and the batch
    // checksum is a pure function of the buffer, so the restored sequence
    // is byte-identical to the snapshotted one.
    buf.seq = in_flight_.size();
    if (integrity_active_) buf.checksum = buffer_checksum(buf);
    in_flight_.push_back(std::move(buf));
  }
  for (MachineId m = 0; m < config_.num_machines; ++m) {
    Machine& machine = machines_[m];
    machine.storage_words_ = static_cast<std::size_t>(r.u64());
    machine.peak_storage_words_ = static_cast<std::size_t>(r.u64());
    machine.sent_words_this_round_ = r.u64();
    machine.violations_ = r.u64();
    Rng::State rng;
    for (std::uint64_t& s : rng.s) s = r.u64();
    rng.draws = r.u64();
    machine.rng_.set_state(rng);
    for (std::vector<Word>& arena : machine.out_arenas_) arena.clear();
    machine.out_counts_.assign(machine.out_counts_.size(), 0);
    deadline_streak_[m] = r.u64();
    corrupt_streak_[m] = r.u64();
  }
  if (r.u64() != snapshotables_.size()) {
    throw CheckpointError(
        "restore_checkpoint: registered snapshotables differ from the "
        "checkpoint's");
  }
  for (const auto& [name, hook] : snapshotables_) {
    if (r.str() != name) {
      throw CheckpointError("restore_checkpoint: expected section " + name);
    }
    const std::uint64_t size = r.u64();
    if (size > r.remaining()) {
      throw CheckpointError("restore_checkpoint: section " + name +
                            " truncated");
    }
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
    r.bytes(payload.data(), payload.size());
    SnapshotReader section(payload.data(), payload.size());
    hook->restore(section);
    if (section.remaining() != 0) {
      throw CheckpointError("restore_checkpoint: section " + name +
                            " has trailing bytes");
    }
  }
  // The only bytes allowed after the last section are the whole-image
  // digest appended by seal_checkpoint (already verified above).
  if (r.remaining() != sizeof(std::uint64_t)) {
    throw CheckpointError("restore_checkpoint: trailing bytes");
  }
  // Trace attribution cannot span a restore: the next trace line reports
  // violations observed from this barrier onward.
  last_traced_violations_ = metrics_.violations;
}

std::vector<Word> Simulator::acquire_arena() {
  if (arena_pool_.empty()) return {};
  std::vector<Word> arena = std::move(arena_pool_.back());
  arena_pool_.pop_back();
  return arena;
}

void Simulator::recycle_arena(std::vector<Word>&& arena) {
  arena.clear();  // capacity is the whole point; contents are dead
  arena_pool_.push_back(std::move(arena));
}

void Simulator::sync_metrics() {
  refresh_metrics_after_round(
      std::vector<std::uint64_t>(config_.num_machines, 0));
}

std::uint64_t Simulator::refresh_metrics_after_round(
    const std::vector<std::uint64_t>& recv_words) {
  std::uint64_t rng_draws = 0;
  std::uint64_t new_violations = 0;
  for (MachineId m = 0; m < config_.num_machines; ++m) {
    const Machine& machine = machines_[m];
    metrics_.max_send_words =
        std::max(metrics_.max_send_words, machine.sent_words_this_round_);
    metrics_.max_recv_words = std::max(metrics_.max_recv_words, recv_words[m]);
    metrics_.max_storage_words =
        std::max(metrics_.max_storage_words, machine.peak_storage_words_);
    new_violations += machine.violations_;
    machines_[m].violations_ = 0;
    rng_draws += machine.rng_.draws();
  }
  metrics_.violations += new_violations;
  metrics_.random_words = rng_draws;
  return new_violations;
}

}  // namespace rsets::mpc
