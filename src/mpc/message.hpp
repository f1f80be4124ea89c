// Messages and configuration for the MPC round simulator.
//
// The Massively Parallel Computation model (Karloff–Suri–Vassilvitskii):
// M machines, each with S words of memory; computation proceeds in
// synchronous rounds; per round each machine sends and receives at most S
// words. The simulator counts every word and (by default) hard-fails on
// violations, so model conformance (claim C3 in DESIGN.md) is structural.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpc/fault/fault.hpp"
#include "mpc/trace.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace rsets::mpc {

using Word = std::uint64_t;
using MachineId = std::uint32_t;

// Every message is charged a fixed header in addition to its payload,
// modelling addressing overhead and discouraging word-free signalling. The
// header is where the transport metadata rides: addressing (src/dst/tag),
// the delivery sequence number, and — when the integrity layer is active —
// the FNV-1a payload checksum. None of them are charged beyond these two
// words, which is why enabling integrity checking never moves the ledger.
inline constexpr std::size_t kHeaderWords = 2;

// The transport unit: every (src, dst) pair
// with traffic in a phase moves exactly one AggBuffer. The arena is a flat
// Word sequence of framed records, one per logical message:
//
//   [tag, payload_len, payload_0, ..., payload_{len-1}] ...
//
// The two framing words per record ARE the charged kHeaderWords — they carry
// the tag and the record boundary, and (amortized across the buffer) the
// addressing, sequence number, and batch checksum below — so
// words() == arena.size() and the word ledger is exactly where the
// per-message transport had it.
struct AggBuffer {
  MachineId src = 0;
  MachineId dst = 0;
  // Logical messages framed in the arena.
  std::uint32_t messages = 0;
  // Transport header fields, stamped by the simulator when the buffer is
  // merged into the in-flight sequence (never by senders): `seq` is the
  // position in canonical machine-id merge order — the self-healing anchor
  // reorder faults are sorted back by — and `checksum` is the FNV-1a batch
  // digest verify-on-receive compares against (stamped only while the
  // integrity layer is active).
  std::uint64_t seq = 0;
  Word checksum = 0;
  std::vector<Word> arena;

  std::size_t words() const { return arena.size(); }
};

// FNV-1a digest of everything the transport must deliver intact: addressing
// plus the whole framed arena — ONE digest per aggregated buffer instead of
// one per message. The arena (the bulk of the work) goes through the
// four-lane batch construction so the word multiplies pipeline instead of
// serializing; every lane keeps the multiply-by-odd-prime bijection, so the
// digest stays sensitive to every single-bit flip within a word (see
// util/fnv.hpp) — exactly the corruption the fault model injects. Checksums
// are recomputed at stamp and verify time, never persisted, so the digest
// formula is free to change between releases.
inline Word buffer_checksum(const AggBuffer& b) {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_word(h, b.src);
  h = fnv1a_word(h, b.dst);
  h = fnv1a_word(h, b.messages);
  return fnv1a_words_batch(b.arena.data(), b.arena.size(), h);
}

// A decoded view of one logical message inside a delivered AggBuffer. The
// payload span aliases the buffer's arena — receiving copies nothing.
struct MessageView {
  MachineId src = 0;
  std::uint32_t tag = 0;
  std::span<const Word> payload;
};

// What happens when a machine exceeds its S-word storage or per-round
// bandwidth budget.
enum class BudgetPolicy : std::uint8_t {
  // Count the violation in metrics and keep going — used by stress benches
  // that chart how close algorithms run to the caps.
  kTrace = 0,
  // Throw MpcViolation at the first excess word (the historical default):
  // model conformance is structural.
  kStrict = 1,
  // Graceful degradation: the excess is spilled and re-sent across extra
  // sub-rounds, charged to MpcMetrics::rounds and attributed per phase as
  // degraded_subrounds in the trace. Results are bit-identical to a kTrace
  // run — degradation only changes the round accounting, never delivery
  // order or payloads. Violations stay 0: the budget was honored, at a
  // latency cost.
  kDegrade = 2,
};

inline const char* budget_policy_name(BudgetPolicy policy) {
  switch (policy) {
    case BudgetPolicy::kTrace:
      return "trace";
    case BudgetPolicy::kStrict:
      return "strict";
    case BudgetPolicy::kDegrade:
      return "degrade";
  }
  return "?";
}

// Parses "trace" | "strict" | "degrade"; throws rsets::Error(kBadFlag)
// otherwise — the same structured taxonomy every other user-facing parser
// (fault specs, edge lists, CLI flags) reports through.
inline BudgetPolicy parse_budget_policy(const std::string& name) {
  if (name == "trace") return BudgetPolicy::kTrace;
  if (name == "strict") return BudgetPolicy::kStrict;
  if (name == "degrade") return BudgetPolicy::kDegrade;
  throw Error(ErrorCode::kBadFlag,
              "budget policy must be trace|strict|degrade, got '" + name +
                  "'");
}

struct MpcConfig {
  MachineId num_machines = 8;
  std::size_t memory_words = std::size_t{1} << 20;  // S
  BudgetPolicy budget_policy = BudgetPolicy::kStrict;
  std::uint64_t seed = 1;  // base seed for per-machine RNG streams
  // Worker threads executing the per-machine round callbacks AND the
  // destination-sharded barrier (canonical merge, checksum stamp/verify,
  // inbox index builds): 1 runs everything sequentially on the calling
  // thread (the historical behavior), 0 uses hardware_concurrency, k > 1
  // uses k workers. Results and metrics are bit-identical for every value —
  // see "Threading model" and §4.6 in DESIGN.md — because callbacks only
  // touch their own machine's state slice, and each (src, dst) arena slot
  // and each destination's inbox is written by exactly one worker in the
  // fixed canonical order.
  unsigned num_threads = 1;
  // Optional per-phase observer (see mpc/trace.hpp). Purely observational:
  // it runs on the simulator's calling thread after the phase completes and
  // cannot change results or metrics.
  TraceHook trace_hook;
  // Fault injection plan (see mpc/fault/fault.hpp). Disabled by default;
  // with faults.enabled == false the simulator takes the historical code
  // path and results, metrics, and traces are bit-identical to a build
  // without the fault subsystem.
  FaultConfig faults;
  // Work-unit budget per round (0 = no deadline). A machine's work in a
  // phase is the words it received plus the words it sent; a machine whose
  // work exceeds the deadline is a straggler: the simulator speculatively
  // re-executes it from an in-memory checkpoint (exercising the registered
  // Snapshotable hooks) and charges retry rounds with exponential backoff
  // per consecutive miss. Results are unchanged — speculation replays the
  // exact same deterministic work — only the rounds/deadline ledger moves.
  std::uint64_t round_deadline = 0;
  // Take a durable checkpoint at every k-th round barrier (0 = never).
  // Checkpoints bound crash-recovery re-execution: a crash at round r
  // restores from the last checkpoint at round c and charges r - c
  // recovery rounds. Checkpointing alone never changes results or the
  // existing metrics fields — only MpcMetrics::checkpoints and the trace's
  // checkpoint events.
  std::uint64_t checkpoint_every = 0;
  // Verify the FNV-1a checksum of every delivered message even when no
  // corruption fault can fire. The check is CPU-only: checksums ride in the
  // already-charged message header, so a fault-free run with integrity on
  // is byte-identical to one with it off (IntegrityAllMpc in
  // tests/test_integrity.cpp gates exactly this). Corruption faults
  // (FaultConfig::corrupt_prob) activate verification implicitly — the
  // attack is survivable only with the defense on.
  bool integrity = false;
};

struct MpcMetrics {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_words = 0;
  // Worst per-machine, per-round bandwidth actually used.
  std::uint64_t max_send_words = 0;
  std::uint64_t max_recv_words = 0;
  // Worst persistent storage held by any machine at any time.
  std::size_t max_storage_words = 0;
  // Cap violations observed (only counted under BudgetPolicy::kTrace).
  std::uint64_t violations = 0;
  // Random 64-bit words drawn across all machines (0 for deterministic
  // algorithms — claim C2). Fault-injector draws are NOT counted here —
  // the injector has its own stream.
  std::uint64_t random_words = 0;
  // Fault subsystem ledger (all zero when faults are disabled and
  // checkpoint_every == 0).
  std::uint64_t faults_injected = 0;
  std::uint64_t checkpoints = 0;       // durable checkpoints taken
  std::uint64_t recovery_rounds = 0;   // supersteps re-executed after crashes
  // Graceful-degradation ledger (all zero outside BudgetPolicy::kDegrade).
  // Extra sub-rounds charged for spill-and-resend of over-budget phases;
  // also folded into rounds.
  std::uint64_t degraded_subrounds = 0;
  // Straggler-deadline ledger (all zero when round_deadline == 0).
  std::uint64_t deadline_misses = 0;    // machine-phases over the deadline
  std::uint64_t speculative_rounds = 0; // retry rounds charged (with backoff)
  // Integrity ledger (all zero unless corruption faults fire; verification
  // alone — MpcConfig::integrity on a clean run — never moves it).
  std::uint64_t corrupt_detected = 0;   // checksum mismatches caught on receive
  std::uint64_t integrity_retries = 0;  // retransmissions those triggered
  std::uint64_t quarantined_rounds = 0; // rounds re-executed after quarantine

  bool operator==(const MpcMetrics&) const = default;
};

class MpcViolation : public std::runtime_error {
 public:
  explicit MpcViolation(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace rsets::mpc
