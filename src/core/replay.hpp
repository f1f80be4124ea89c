// Record/replay engine for ruling-set runs.
//
// A replay log is JSONL: a meta line carrying the full run specification
// (RunSpec), one line per simulator phase with wall_ms zeroed (the only
// nondeterministic trace field), and a summary line with the final metrics
// ledger and a hash of the output set. Because every algorithm, the
// simulator, and the fault injector are deterministic given the spec,
// replaying the spec regenerates the log byte-for-byte — faults,
// checkpoints, recoveries, corruption healing and all — and any divergence
// is reported with the first mismatching line.
//
// This engine is the library form of what `rsets_cli --record/--replay`
// exposes; it lives in rsets_core so round-trips are unit-testable and the
// chaos-soak harness can reuse the spec plumbing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/ruling_set.hpp"
#include "graph/graph.hpp"
#include "mpc/trace.hpp"

namespace rsets {

// Everything needed to reproduce a run — captured in the meta line and
// reconstructed by replay.
struct RunSpec {
  std::string algorithm = "det_ruling_mpc";
  std::uint32_t beta = 2;  // resolved (never the "algorithm default" marker)
  std::string input;       // edge-list path; empty when generated
  std::string gen;         // generator name; empty when --input
  std::uint64_t n = 10000;
  double avg_deg = 8.0;
  std::uint64_t seed = 1;
  std::uint32_t machines = 8;
  std::uint64_t memory_words = 1 << 24;
  std::uint32_t threads = 1;
  std::uint64_t budget = 0;
  std::string faults;  // spec string, parsed by mpc::parse_fault_spec
  std::uint64_t checkpoint_every = 0;
  std::string budget_policy = "strict";
  std::uint64_t deadline = 0;
  bool integrity = false;  // force verify-on-receive in fault-free runs
};

// v2: the meta line gains budget_policy/deadline and the summary line gains
// the degradation and deadline ledgers.
// v3: the meta line gains integrity and the summary line gains the
// integrity ledger (corrupt_detected/integrity_retries/quarantined_rounds).
// v4: the meta line gains transport (aggregated|legacy) — fault draws are
// per aggregated buffer since the transport redesign, so a v3 log's faulty
// records would not replay bit-identically.
// v5: transport is dropped from the meta line — the legacy mode is deleted
// and there is exactly one transport, so the key carried no information; a
// v4 log naming a transport is rejected rather than silently accepted.
// Older logs are rejected with a clear version diagnostic rather than
// replayed against mismatched semantics.
inline constexpr const char* kReplayFormat = "rsets-replay-v5";

// Meta line round trip. spec_from_json throws std::invalid_argument on a
// missing key, a malformed value, or a log whose format tag is not
// kReplayFormat (the diagnostic names both versions).
std::string spec_to_json(const RunSpec& spec);
RunSpec spec_from_json(const std::string& line);

// Materializes the spec's graph: reads spec.input when set, otherwise runs
// the named generator. Throws on unknown generator names.
Graph build_graph(const RunSpec& spec);

// Translates the spec into dispatcher options (validating the algorithm
// name, fault spec, and budget policy).
RulingSetOptions options_from_spec(const RunSpec& spec);

// FNV-1a over the sorted vertex ids — a cheap, stable fingerprint of the
// output set for the summary line.
std::uint64_t ruling_set_hash(const std::vector<VertexId>& set);

// The 17-field metrics ledger as one flat JSON object, fields in struct
// order. Also the readable form of a ledger in test failure messages.
std::string metrics_json(const mpc::MpcMetrics& metrics);

// The summary line: set size, phases, the metrics_json fields, and the set
// fingerprint.
std::string summary_json(const RulingSetResult& result);

// One recorded phase line: the trace JSON with wall_ms zeroed so recorded
// lines are byte-reproducible.
std::string record_line(const mpc::RoundTrace& trace);

// Runs the spec and returns the complete replay log (meta line, phase
// lines, summary line). When `result_out` is non-null the run's result is
// copied there.
std::vector<std::string> record_run(const RunSpec& spec,
                                    RulingSetResult* result_out = nullptr);

struct ReplayReport {
  // Zero mismatches: every regenerated line was byte-identical to the log.
  std::uint64_t mismatches = 0;
  // Human-readable description of the first divergence (empty when ok).
  std::string first_mismatch;
  // Phase lines the replay regenerated.
  std::size_t phases_checked = 0;
  RunSpec spec;
  RulingSetResult result;

  bool ok() const { return mismatches == 0; }
};

// Re-runs the specification in lines.front() and byte-compares every
// regenerated line (phases and summary) against the log. Throws
// std::invalid_argument when the log is too short or its meta line does not
// parse.
ReplayReport replay_log(const std::vector<std::string>& lines);

}  // namespace rsets
