// Shared helpers for the wall-clock benches (E1b, E1c, A0, E12-E14; see
// EXPERIMENTS.md), which report through google-benchmark. The model-counter
// experiments are rows of claims.cpp.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "model.hpp"
#include "mpc/trace.hpp"

namespace rsets::bench {

// Where to dump per-round JSONL traces, or "" to skip. Benches that support
// tracing (the threaded-scaling sweeps) write one file per configuration
// into $RSETS_TRACE_DIR when it is set; with it unset they stay quiet so a
// plain bench run leaves no files behind.
inline std::string trace_path(const std::string& file_name) {
  const char* dir = std::getenv("RSETS_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/" + file_name;
}

// Owns a JSONL trace file and hands out a hook that appends one JSON object
// per executed round. Constructed from an empty path it produces an empty
// hook, so callers can unconditionally assign `trace.hook()`.
class JsonlTrace {
 public:
  explicit JsonlTrace(const std::string& path) {
    if (!path.empty()) out_ = std::make_shared<std::ofstream>(path);
  }

  mpc::TraceHook hook() const {
    if (!out_ || !out_->is_open()) return {};
    std::shared_ptr<std::ofstream> out = out_;
    return [out](const mpc::RoundTrace& trace) {
      *out << mpc::to_json(trace) << "\n";
    };
  }

 private:
  std::shared_ptr<std::ofstream> out_;
};

// Stamps the host into the benchmark context exactly once per process, so
// every JSON record a bench emits carries where it ran.
inline void add_host_context_once() {
  static const bool added = [] {
    char host[256] = {};
    if (gethostname(host, sizeof(host) - 1) != 0) {
      std::snprintf(host, sizeof(host), "unknown");
    }
    benchmark::AddCustomContext("hostname", host);
    return true;
  }();
  (void)added;
}

// Fills the standard counter set from a run. `cfg` is the MPC configuration
// the run used — its machine and thread counts go into every record so a
// result row is interpretable without the invoking script.
inline void report(benchmark::State& state, const Graph& g,
                   const RulingSetResult& result, const mpc::MpcConfig& cfg) {
  add_host_context_once();
  state.counters["num_machines"] = static_cast<double>(cfg.num_machines);
  state.counters["num_threads"] = static_cast<double>(cfg.num_threads);
  state.counters["rounds"] =
      static_cast<double>(result.metrics.rounds);
  state.counters["model_rounds"] =
      model_rounds(result, g.num_vertices(), RulingSetOptions{}.chunk_bits);
  state.counters["phases"] = static_cast<double>(result.phases);
  state.counters["words"] =
      static_cast<double>(result.metrics.total_words);
  state.counters["set_size"] =
      static_cast<double>(result.ruling_set.size());
  state.counters["rand_words"] =
      static_cast<double>(result.metrics.random_words);
  state.counters["violations"] =
      static_cast<double>(result.metrics.violations);
  const bool valid =
      is_beta_ruling_set(g, result.ruling_set, result.beta);
  state.counters["valid"] = valid ? 1.0 : 0.0;
  if (!valid) {
    state.SkipWithError("ruling set failed independent verification");
  }
}

// How this translation unit — and therefore the bench loop and the
// simulator code inlined into it — was compiled. google-benchmark's own
// `library_build_type` context field describes the *benchmark library*
// binary (a debug system package here), which made historical baselines
// claim "debug" for what were genuine Release runs of our code.
inline const char* bench_code_build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// Rewrites the `library_build_type` context field of an emitted JSON record
// to bench_code_build_type(), so the stamp describes the code under
// measurement instead of the system benchmark library.
// tools/check_bench_baseline.sh rejects baselines whose stamp (either
// field) is not a release build.
inline void restamp_build_type(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::string key = "\"library_build_type\": \"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return;
  const std::size_t begin = at + key.size();
  const std::size_t end = text.find('"', begin);
  if (end == std::string::npos) return;
  text.replace(begin, end - begin, bench_code_build_type());
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

// Entry point shared by every bench binary. Unless the caller already picked
// an output file, results additionally land in BENCH_<name>.json (google-
// benchmark's JSON schema) in the working directory, so a plain
// `./bench_rounds_vs_n` run leaves a machine-readable record behind and the
// plotting scripts never need to re-wire flags.
inline int run_bench_main(int argc, char** argv, const char* bench_name) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--benchmark_out=", 0) == 0) {
      out_path = arg.substr(std::string("--benchmark_out=").size());
    }
  }
  if (out_path.empty()) {
    out_path = std::string("BENCH_") + bench_name + ".json";
    out_flag = "--benchmark_out=" + out_path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
#ifndef RSETS_BENCH_BUILD_TYPE
#define RSETS_BENCH_BUILD_TYPE ""
#endif
  benchmark::AddCustomContext("rsets_build_type", RSETS_BENCH_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  restamp_build_type(out_path);
  return 0;
}

}  // namespace rsets::bench

#define RSETS_BENCH_MAIN(name)                              \
  int main(int argc, char** argv) {                         \
    return rsets::bench::run_bench_main(argc, argv, #name); \
  }
