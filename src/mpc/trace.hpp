// Per-round execution traces for the MPC simulator.
//
// When MpcConfig::trace_hook is set, the simulator invokes it once per
// executed phase (round or drain boundary) with the communication ledger of
// that phase and the wall time spent running the machine callbacks. The hook
// observes; it cannot perturb the simulation — metrics and results are
// identical with or without it.
//
// The JSONL encoding (one object per line, stable key order) is the exchange
// format the CLI (`--trace=FILE`) and the benches emit, so round-level
// behavior is observable rather than asserted:
//
//   {"round":12,"drain":0,"wall_ms":0.41,"messages":96,"words_sent":4032,
//    "words_recv":4032,"max_recv_words":560}
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mpc/fault/fault.hpp"

namespace rsets::mpc {

struct RoundTrace {
  // Value of the round counter when the phase ran (1-based; a drain shares
  // the index of the round whose sends it delivers).
  std::uint64_t round = 0;
  // True for a drain boundary (delivery without spending a round).
  bool drain = false;
  // Wall time of the whole phase in milliseconds, measured on the calling
  // thread: barrier fault handling, delivery and integrity checks, the
  // machine callbacks, and the send-arena merge and accounting.
  double wall_ms = 0.0;
  // Messages collected from the per-destination send arenas this phase.
  std::uint64_t messages = 0;
  // Words (payload + headers) those messages carry.
  std::uint64_t words_sent = 0;
  // Words delivered to inboxes at the start of this phase.
  std::uint64_t words_recv = 0;
  // Largest single inbox delivered this phase (the receive-side peak the
  // bandwidth cap is checked against).
  std::uint64_t max_recv_words = 0;
  // Cap violations observed this phase (non-zero only under
  // BudgetPolicy::kTrace; a strict run throws at the first one).
  std::uint64_t violations = 0;
  // Extra sub-rounds charged to this phase by BudgetPolicy::kDegrade
  // (spill-and-resend waves beyond the S-word budget). Emitted in JSON only
  // when non-zero, keeping default traces in the historical byte format.
  std::uint64_t degraded_subrounds = 0;
  // Faults injected and checkpoints taken during this phase (empty unless
  // the fault subsystem is active). Extra JSON keys for these appear only
  // when non-empty/non-zero, so default-config traces are byte-identical to
  // the pre-fault format.
  std::vector<FaultEvent> faults;
};

using TraceHook = std::function<void(const RoundTrace&)>;

// One-line JSON object (no trailing newline), stable key order.
std::string to_json(const RoundTrace& trace);

}  // namespace rsets::mpc
