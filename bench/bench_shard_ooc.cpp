// E12 — Out-of-core sharded ingestion: edges/sec and peak RSS.
//
// The claim under test: a sharded, spill-backed run never holds the global
// edge list, so its peak RSS is bounded by the CSR offsets plus the mmap
// eviction window — far below the materialized generator's footprint — at a
// streaming rate fast enough for multi-hundred-million-edge inputs.
//
// Ordering matters: VmHWM is a process-lifetime high-water mark, so the
// sharded configurations are registered (and therefore run) BEFORE the
// materialized comparison point inflates it. peak_rss_mb for a case is only
// meaningful if nothing bigger ran earlier in the process.
#include "bench_common.hpp"

#include "graph/shard/shard_csr.hpp"
#include "graph/shard/sharded_source.hpp"
#include "mpc/certify.hpp"

namespace rsets::bench {
namespace {

// scale=19, edgefactor=16: 2^19 vertices, 2^23 ~ 8.4M raw edges — the
// ten-million-edge smoke regime EXPERIMENTS.md E12 records; the acceptance
// run at scale=23 uses the same code path via the CLI.
shard::ShardSpec bench_spec() {
  shard::ShardSpec spec;
  spec.family = shard::ShardFamily::kGraph500;
  spec.scale = 19;
  spec.edgefactor = 16;
  spec.seed = 1;
  return spec;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Sharded streaming ingest straight into the spill-backed CSR: the full
// out-of-core path (two streaming passes + in-place dedup, pages evicted on
// a cadence). machines = state.range(0) proves the shard count does not
// change the cost profile.
void BM_ShardedIngestSpill(benchmark::State& state) {
  add_host_context_once();
  const shard::ShardSpec spec = bench_spec();
  const auto src = make_sharded_source(
      spec, static_cast<std::uint32_t>(state.range(0)));
  shard::IngestOptions ingest;
  ingest.spill_dir = "/tmp";
  std::uint64_t csr_words = 0;
  for (auto _ : state) {
    const Graph g = shard::build_shard_csr(*src, ingest);
    csr_words = src->num_vertices() + 1 + 2 * g.num_edges();
    benchmark::DoNotOptimize(csr_words);
  }
  state.counters["machines"] = static_cast<double>(state.range(0));
  state.counters["raw_edges"] = static_cast<double>(src->raw_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(src->raw_edges()), benchmark::Counter::kIsRate);
  state.counters["csr_words"] = static_cast<double>(csr_words);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

// End-to-end sharded det_ruling with in-model certification — what the
// acceptance run does, at smoke scale: ingest and solve are timed, then the
// same Graph is certified. valid reports the certificate.
void BM_ShardedDetRuling(benchmark::State& state) {
  add_host_context_once();
  const shard::ShardSpec spec = bench_spec();
  RulingSetOptions options;
  options.algorithm = Algorithm::kDetRulingMpc;
  options.beta = 2;
  options.mpc = default_mpc(static_cast<mpc::MachineId>(state.range(0)));
  const auto src = make_sharded_source(spec, options.mpc.num_machines);
  shard::IngestOptions ingest;
  ingest.spill_dir = "/tmp";
  Graph g;
  RulingSetResult result;
  for (auto _ : state) {
    g = shard::build_shard_csr(*src, ingest);
    result = compute_ruling_set(g, options);
  }
  const RulingSetCertificate cert = mpc::certify_ruling_set(
      g, result.ruling_set, options.beta, options.mpc);
  state.counters["machines"] = static_cast<double>(options.mpc.num_machines);
  state.counters["raw_edges"] = static_cast<double>(src->raw_edges());
  state.counters["rounds"] = static_cast<double>(result.metrics.rounds);
  state.counters["words"] = static_cast<double>(result.metrics.total_words);
  state.counters["set_size"] = static_cast<double>(result.ruling_set.size());
  state.counters["peak_rss_mb"] = peak_rss_mb();
  state.counters["valid"] = cert.valid() ? 1.0 : 0.0;
  if (!cert.valid()) {
    state.SkipWithError("sharded certificate failed");
  }
}

// The comparison point: materializing the same input as a global Graph.
// Runs LAST (registration order) so its allocation spike cannot pollute the
// sharded cases' high-water marks; its own peak_rss_mb is the "cost of not
// streaming" number EXPERIMENTS.md quotes.
void BM_MaterializedIngest(benchmark::State& state) {
  add_host_context_once();
  const shard::ShardSpec spec = bench_spec();
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const Graph g = shard::materialize(spec);
    edges = g.num_edges();
    benchmark::DoNotOptimize(edges);
  }
  const auto src = make_sharded_source(spec, 1);
  state.counters["raw_edges"] = static_cast<double>(src->raw_edges());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(src->raw_edges()), benchmark::Counter::kIsRate);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}

BENCHMARK(BM_ShardedIngestSpill)
    ->Arg(4)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedDetRuling)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaterializedIngest)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rsets::bench

RSETS_BENCH_MAIN(shard_ooc);
