// Fuzz harness for the service's update-stream surfaces.
//
// Two modes, selected by the input's first byte so both stay covered:
//
//   * Parser mode: parse_update_stream either returns well-formed batches
//     (every update in range, no self-loops) or throws rsets::Error with a
//     specific code and a 1-based line diagnostic. Any other exception (or
//     a crash) escaping the parser is a bug, so only rsets::Error is caught.
//     The vertex bound alternates between tiny (range rejections fire
//     constantly) and unbounded (the numeric paths run to completion).
//
//   * Ingest mode: the same bytes drive a producer-tagged MultiProducerIngest
//     stream line by line (offer_tagged_line). The front must never throw at
//     all — malformed lines become per-producer strikes, bad tags are
//     diagnosed statuses, repeated strikes eject with a tombstone — and its
//     postconditions are trapped directly: every taken generation holds only
//     in-range, non-self-loop updates, ejected producers never accept
//     another line, and after close_all + a full drain the front reports
//     drained().
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/ingest.hpp"
#include "serve/updates.hpp"
#include "util/error.hpp"

namespace {

void fuzz_parser(const std::uint8_t* data, std::size_t size) {
  const rsets::VertexId bound =
      (size > 0 && (data[0] & 2)) ? 97 : rsets::serve::kNoVertexBound;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  try {
    const auto batches = rsets::serve::parse_update_stream(in, bound);
    // Touch every parsed update so malformed output cannot hide behind
    // laziness; verify the parser's own postconditions while at it.
    volatile std::size_t sink = 0;
    for (const auto& batch : batches) {
      for (const auto& update : batch.updates) {
        if (update.u == update.v || update.u >= bound || update.v >= bound) {
          __builtin_trap();  // postcondition violation IS the crash
        }
        sink = sink + update.u + update.v;
      }
    }
    (void)sink;
  } catch (const rsets::Error&) {
    // Structured rejection is the expected path for malformed input.
  }
}

void fuzz_ingest(const std::uint8_t* data, std::size_t size) {
  using rsets::serve::PushStatus;
  rsets::serve::IngestConfig cfg;
  cfg.num_producers = 1 + (size > 0 ? data[0] % 4 : 0);
  cfg.queue_cap = (size > 0 && (data[0] & 8)) ? 1 : 0;
  cfg.max_strikes = (size > 0 && (data[0] & 16)) ? 0 : 2;
  cfg.num_vertices =
      (size > 0 && (data[0] & 2)) ? 97 : rsets::serve::kNoVertexBound;
  rsets::serve::MultiProducerIngest ingest(cfg);

  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  std::uint64_t tombstoned = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::uint32_t producer = 0;
    const PushStatus status = ingest.offer_tagged_line(line, &producer);
    if (status == PushStatus::kWouldBlock) {
      // The non-blocking front under a cap: drain, then the resubmitted
      // line must land (a committed batch always frees alignment progress
      // eventually; if nothing is ready the line is simply dropped here —
      // the fuzz contract is no-throw/no-crash, not lossless replay).
      while (ingest.take_generation().has_value()) {
      }
      (void)ingest.offer_tagged_line(line, &producer);
    } else if (status == PushStatus::kEjected) {
      // Ejection is sticky: the same producer must never accept again.
      if (ingest.offer_line(producer, "+ 1 2") == PushStatus::kAccepted) {
        __builtin_trap();
      }
    }
    tombstoned += ingest.take_tombstones().size();
  }
  ingest.close_all();

  volatile std::size_t sink = 0;
  while (std::optional<rsets::serve::UpdateBatch> gen =
             ingest.take_generation()) {
    for (const auto& update : gen->updates) {
      if (update.u == update.v || update.u >= cfg.num_vertices ||
          update.v >= cfg.num_vertices) {
        __builtin_trap();  // only validated batches may merge
      }
      sink = sink + update.u + update.v;
    }
  }
  (void)sink;
  tombstoned += ingest.take_tombstones().size();
  if (tombstoned != ingest.metrics().ejections) __builtin_trap();
  if (!ingest.drained()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 0 && (data[0] & 1)) {
    fuzz_ingest(data + 1, size - 1);
  } else {
    fuzz_parser(data, size);
  }
  return 0;
}
