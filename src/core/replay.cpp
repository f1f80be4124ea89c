#include "core/replay.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/fnv.hpp"

namespace rsets {
namespace {

void append_json_str(std::ostream& out, const char* key,
                     const std::string& value) {
  out << "\"" << key << "\":\"" << value << "\"";
}

// Minimal extraction from the flat JSON the recorder writes: values are
// unescaped strings or plain numbers, keys are unique. Not a JSON parser.
std::string json_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    throw std::invalid_argument("replay log: meta line lacks key '" + key +
                                "'");
  }
  std::size_t v = at + needle.size();
  if (v < line.size() && line[v] == '"') {
    const std::size_t end = line.find('"', v + 1);
    if (end == std::string::npos) {
      throw std::invalid_argument("replay log: unterminated string for '" +
                                  key + "'");
    }
    return line.substr(v + 1, end - v - 1);
  }
  std::size_t end = v;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(v, end - v);
}

std::uint64_t json_u64(const std::string& line, const std::string& key) {
  const std::string value = json_value(line, key);
  try {
    std::size_t consumed = 0;
    const std::uint64_t v = std::stoull(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("replay log: key '" + key +
                                "' has non-numeric value '" + value + "'");
  }
}

double json_double(const std::string& line, const std::string& key) {
  const std::string value = json_value(line, key);
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("replay log: key '" + key +
                                "' has non-numeric value '" + value + "'");
  }
}

// The 17 ledger fields as comma-separated JSON members, in struct order.
void append_metrics_fields(std::ostream& out, const mpc::MpcMetrics& m) {
  out << "\"rounds\":" << m.rounds << ",\"messages\":" << m.messages
      << ",\"total_words\":" << m.total_words
      << ",\"max_send_words\":" << m.max_send_words
      << ",\"max_recv_words\":" << m.max_recv_words
      << ",\"max_storage_words\":" << m.max_storage_words
      << ",\"violations\":" << m.violations
      << ",\"random_words\":" << m.random_words
      << ",\"faults_injected\":" << m.faults_injected
      << ",\"checkpoints\":" << m.checkpoints
      << ",\"recovery_rounds\":" << m.recovery_rounds
      << ",\"degraded_subrounds\":" << m.degraded_subrounds
      << ",\"deadline_misses\":" << m.deadline_misses
      << ",\"speculative_rounds\":" << m.speculative_rounds
      << ",\"corrupt_detected\":" << m.corrupt_detected
      << ",\"integrity_retries\":" << m.integrity_retries
      << ",\"quarantined_rounds\":" << m.quarantined_rounds;
}

}  // namespace

std::string spec_to_json(const RunSpec& spec) {
  std::ostringstream out;
  out << "{";
  append_json_str(out, "format", kReplayFormat);
  out << ",";
  append_json_str(out, "algorithm", spec.algorithm);
  out << ",\"beta\":" << spec.beta << ",";
  append_json_str(out, "input", spec.input);
  out << ",";
  append_json_str(out, "gen", spec.gen);
  char avg_deg[64];
  std::snprintf(avg_deg, sizeof(avg_deg), "%.17g", spec.avg_deg);
  out << ",\"n\":" << spec.n << ",\"avg_deg\":" << avg_deg
      << ",\"seed\":" << spec.seed << ",\"machines\":" << spec.machines
      << ",\"memory_words\":" << spec.memory_words
      << ",\"threads\":" << spec.threads << ",\"budget\":" << spec.budget
      << ",";
  append_json_str(out, "faults", spec.faults);
  out << ",\"checkpoint_every\":" << spec.checkpoint_every << ",";
  append_json_str(out, "budget_policy", spec.budget_policy);
  out << ",\"deadline\":" << spec.deadline
      << ",\"integrity\":" << (spec.integrity ? 1 : 0) << "}";
  return out.str();
}

RunSpec spec_from_json(const std::string& line) {
  if (const std::string format = json_value(line, "format");
      format != kReplayFormat) {
    throw std::invalid_argument("replay log: format is '" + format +
                                "', this build replays " +
                                std::string(kReplayFormat) + " only");
  }
  RunSpec spec;
  spec.algorithm = json_value(line, "algorithm");
  spec.beta = static_cast<std::uint32_t>(json_u64(line, "beta"));
  spec.input = json_value(line, "input");
  spec.gen = json_value(line, "gen");
  spec.n = json_u64(line, "n");
  spec.avg_deg = json_double(line, "avg_deg");
  spec.seed = json_u64(line, "seed");
  spec.machines = static_cast<std::uint32_t>(json_u64(line, "machines"));
  spec.memory_words = json_u64(line, "memory_words");
  spec.threads = static_cast<std::uint32_t>(json_u64(line, "threads"));
  spec.budget = json_u64(line, "budget");
  spec.faults = json_value(line, "faults");
  spec.checkpoint_every = json_u64(line, "checkpoint_every");
  spec.budget_policy = json_value(line, "budget_policy");
  mpc::parse_budget_policy(spec.budget_policy);  // validate before running
  spec.deadline = json_u64(line, "deadline");
  spec.integrity = json_u64(line, "integrity") != 0;
  return spec;
}

Graph build_graph(const RunSpec& spec) {
  if (!spec.input.empty()) {
    return read_edge_list_file(spec.input);
  }
  const auto n = static_cast<VertexId>(spec.n);
  if (spec.gen == "gnp") return gen::gnp(n, spec.avg_deg / n, spec.seed);
  if (spec.gen == "gnm") {
    return gen::gnm(n, static_cast<std::uint64_t>(spec.avg_deg * n / 2),
                    spec.seed);
  }
  if (spec.gen == "power_law") {
    return gen::power_law(n, 2.5, spec.avg_deg, spec.seed);
  }
  if (spec.gen == "regular") {
    auto d = static_cast<std::uint32_t>(spec.avg_deg);
    if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) ++d;
    return gen::random_regular(n, d, spec.seed);
  }
  if (spec.gen == "ba") {
    return gen::barabasi_albert(
        n,
        std::max<std::uint32_t>(1,
                                static_cast<std::uint32_t>(spec.avg_deg / 2)),
        spec.seed);
  }
  if (spec.gen == "tree") return gen::random_tree(n, spec.seed);
  if (spec.gen == "grid") {
    const auto side = static_cast<std::uint32_t>(std::sqrt(n));
    return gen::grid(side, side);
  }
  throw std::invalid_argument("unknown generator: " + spec.gen);
}

RulingSetOptions options_from_spec(const RunSpec& spec) {
  const auto algorithm = algorithm_from_name(spec.algorithm);
  if (!algorithm) {
    throw std::invalid_argument("unknown algorithm: " + spec.algorithm);
  }
  RulingSetOptions options;
  options.algorithm = *algorithm;
  options.beta = spec.beta;
  options.mpc.num_machines = spec.machines;
  options.mpc.memory_words = static_cast<std::size_t>(spec.memory_words);
  options.mpc.seed = spec.seed;
  options.mpc.num_threads = spec.threads;
  options.mpc.faults = mpc::parse_fault_spec(spec.faults);
  options.mpc.checkpoint_every = spec.checkpoint_every;
  options.mpc.budget_policy = mpc::parse_budget_policy(spec.budget_policy);
  options.mpc.round_deadline = spec.deadline;
  options.mpc.integrity = spec.integrity;
  options.congest.seed = spec.seed;
  options.gather_budget_words = spec.budget;
  return options;
}

std::uint64_t ruling_set_hash(const std::vector<VertexId>& set) {
  std::uint64_t h = kFnvOffsetBasis;
  for (VertexId v : set) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

std::string metrics_json(const mpc::MpcMetrics& metrics) {
  std::ostringstream out;
  out << "{";
  append_metrics_fields(out, metrics);
  out << "}";
  return out.str();
}

std::string summary_json(const RulingSetResult& result) {
  std::ostringstream out;
  out << "{\"summary\":1,\"size\":" << result.ruling_set.size()
      << ",\"phases\":" << result.phases << ",";
  append_metrics_fields(out, result.metrics);
  out << ",\"set_hash\":" << ruling_set_hash(result.ruling_set) << "}";
  return out.str();
}

std::string record_line(const mpc::RoundTrace& trace) {
  // Wall time is the only nondeterministic trace field; zero it so recorded
  // lines are byte-reproducible.
  mpc::RoundTrace stable = trace;
  stable.wall_ms = 0.0;
  return mpc::to_json(stable);
}

std::vector<std::string> record_run(const RunSpec& spec,
                                    RulingSetResult* result_out) {
  const Graph g = build_graph(spec);
  RulingSetOptions options = options_from_spec(spec);
  std::vector<std::string> lines;
  lines.push_back(spec_to_json(spec));
  options.mpc.trace_hook = [&lines](const mpc::RoundTrace& trace) {
    lines.push_back(record_line(trace));
  };
  RulingSetResult result = compute_ruling_set(g, options);
  lines.push_back(summary_json(result));
  if (result_out != nullptr) *result_out = std::move(result);
  return lines;
}

ReplayReport replay_log(const std::vector<std::string>& lines) {
  if (lines.size() < 2) {
    throw std::invalid_argument(
        "replay log: need at least a meta and a summary line");
  }
  ReplayReport report;
  report.spec = spec_from_json(lines.front());
  const Graph g = build_graph(report.spec);
  RulingSetOptions options = options_from_spec(report.spec);

  // Recorded phase lines sit between the meta line and the summary line.
  const std::size_t num_recorded = lines.size() - 2;
  std::size_t emitted = 0;
  options.mpc.trace_hook = [&](const mpc::RoundTrace& trace) {
    const std::string got = record_line(trace);
    if (emitted >= num_recorded) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = "extra phase beyond recorded log: " + got;
      }
    } else if (got != lines[1 + emitted]) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = "line " + std::to_string(2 + emitted) +
                                "\n  recorded: " + lines[1 + emitted] +
                                "\n  replayed: " + got;
      }
    }
    ++emitted;
  };

  report.result = compute_ruling_set(g, options);
  report.phases_checked = emitted;
  if (emitted < num_recorded) {
    ++report.mismatches;
    if (report.first_mismatch.empty()) {
      report.first_mismatch = "replay produced " + std::to_string(emitted) +
                              " phases, log has " +
                              std::to_string(num_recorded);
    }
  }
  const std::string summary = summary_json(report.result);
  if (summary != lines.back()) {
    ++report.mismatches;
    if (report.first_mismatch.empty()) {
      report.first_mismatch = "summary\n  recorded: " + lines.back() +
                              "\n  replayed: " + summary;
    }
  }
  return report;
}

}  // namespace rsets
