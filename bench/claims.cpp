// The paper's model-cost claims C1-C5 as one table: every counter row of
// EXPERIMENTS.md E1-E11 and A1, one JSON line each (<experiment>/<point>/
// <algorithm>, then every deterministic counter). bench/claims.golden.jsonl
// pins the output byte for byte (ctest `claims_golden`); a change that means
// to move a counter re-records it with `./build/bench/rsets_claims >
// bench/claims.golden.jsonl` and names the moved rows. Exits 1 if a row fails
// a claim check: a 0/1 claim (valid, ...) != 1, or a per-machine peak > S.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/derand.hpp"
#include "core/det_matching.hpp"
#include "core/greedy.hpp"
#include "core/ruling_set.hpp"
#include "graph/generators.hpp"
#include "graph/verify.hpp"
#include "model.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/simulator.hpp"
#include "util/bits.hpp"
#include "util/stats.hpp"

namespace rsets::bench {
namespace {

// One output line. Integers print exactly and reals at %.17g, so equal
// text means equal values.
class Line {
 public:
  explicit Line(const std::string& row) : text_("{\"row\":\"" + row + "\"") {}
  Line& counts(
      std::initializer_list<std::pair<const char*, std::uint64_t>> fields) {
    for (const auto& [key, value] : fields) field(key, std::to_string(value));
    return *this;
  }
  Line& real(const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return field(key, buf);
  }
  // A 0/1 claim that must read 1.
  Line& require(const char* key, bool holds) {
    ok_ = ok_ && holds;
    return field(key, holds ? "1" : "0");
  }
  // S and the per-machine peaks (claim C3). Every peak must fit S, except
  // under the degrade policy, where a peak above S is demand the run paid
  // for in spill-and-resend sub-rounds (E10).
  Line& budget(const mpc::MpcConfig& cfg, const mpc::MpcMetrics& m) {
    const bool fits = std::max({m.max_storage_words, m.max_send_words,
                                m.max_recv_words}) <= cfg.memory_words;
    const bool paid = cfg.budget_policy == mpc::BudgetPolicy::kDegrade &&
                      m.degraded_subrounds > 0;
    ok_ = ok_ && (fits || paid);
    return counts({{"memory_words", cfg.memory_words},
                   {"peak_storage", m.max_storage_words},
                   {"peak_send", m.max_send_words},
                   {"peak_recv", m.max_recv_words}});
  }
  bool ok() const { return ok_; }
  std::string str() const { return text_ + "}"; }

 private:
  Line& field(const char* key, const std::string& value) {
    text_ += ",\"" + std::string(key) + "\":" + value;
    return *this;
  }
  std::string text_;
  bool ok_ = true;
};

// The peaks of several runs, for rows that aggregate them.
void fold_peaks(mpc::MpcMetrics& to, const mpc::MpcMetrics& m) {
  to.max_storage_words = std::max(to.max_storage_words, m.max_storage_words);
  to.max_send_words = std::max(to.max_send_words, m.max_send_words);
  to.max_recv_words = std::max(to.max_recv_words, m.max_recv_words);
}

// Rows that share a graph share one GraphFn and sit next to each other, so
// the runner builds each graph once.
using GraphFn = std::shared_ptr<const std::function<Graph()>>;
GraphFn graph(std::function<Graph()> make) {
  return std::make_shared<const std::function<Graph()>>(std::move(make));
}

// Experiment-specific counters, appended after the standard ones.
using Extra = std::function<void(const Graph&, const RulingSetResult&, Line&)>;

struct Row {
  std::string name;
  GraphFn graph;
  RulingSetOptions options;
  Extra extra = {};
  // Rows with no registry entry run this instead and print every counter.
  std::function<void(Line&)> custom = {};
};

RulingSetOptions solve(Algorithm algorithm,
                       std::uint64_t gather_budget_words = 0) {
  RulingSetOptions o;
  o.algorithm = algorithm;
  o.beta = algorithm_info(algorithm).min_beta;
  o.mpc = default_mpc();
  o.gather_budget_words = gather_budget_words;
  return o;
}

void run_ruling_row(const Row& row, const Graph& g, Line& line) {
  const RulingSetOptions& o = row.options;
  const RulingSetResult r = compute_ruling_set(g, o);
  if (algorithm_info(o.algorithm).model == Model::kCongest) {
    const congest::CongestMetrics& m = r.congest_metrics;
    line.counts({{"rounds", m.rounds}})
        .real("kbits", static_cast<double>(m.total_bits) / 1000.0)
        .counts({{"set_size", r.ruling_set.size()},
                 {"rand_words", m.random_words},
                 {"violations", m.violations},
                 {"palette", r.palette_size},
                 {"radius_bound", r.beta}});
  } else {
    const double phases = static_cast<double>(r.phases);
    line.counts({{"delta", g.max_degree()},
                 {"num_machines", o.mpc.num_machines},
                 {"num_threads", o.mpc.num_threads}, {"beta", o.beta},
                 {"budget", o.gather_budget_words},
                 {"chunk_bits", static_cast<std::uint64_t>(o.chunk_bits)},
                 {"rounds", r.metrics.rounds}})
        .real("model_rounds", model_rounds(r, g.num_vertices(), o.chunk_bits))
        .counts({{"phases", r.phases}, {"mark_steps", r.mark_steps}})
        .real("steps_per_phase", phases == 0 ? 0.0 : r.mark_steps / phases)
        .counts({{"chunks", r.derand_chunks}, {"words", r.metrics.total_words},
                 {"set_size", r.ruling_set.size()},
                 {"rand_words", r.metrics.random_words},
                 {"violations", r.metrics.violations}})
        .budget(o.mpc, r.metrics);
  }
  if (row.extra) row.extra(g, r, line);
  line.require("valid", is_beta_ruling_set(g, r.ruling_set, r.beta));
}

// One row per run on graph g, each named prefix + its algorithm.
void add_runs(std::vector<Row>& rows, const std::string& prefix,
              const GraphFn& g, std::initializer_list<RulingSetOptions> runs,
              const Extra& extra = {}) {
  for (const RulingSetOptions& o : runs) {
    rows.push_back({prefix + algorithm_name(o.algorithm), g, o, extra});
  }
}

using enum Algorithm;

// E5 (claims C1, C2): eight runs of one algorithm, aggregated. The
// randomized algorithm varies its seed; the deterministic one its machine
// count and seed, which must not matter: its row is valid only if every
// run returned the same set and drew no random word.
void across_runs(Line& line, Algorithm algorithm) {
  constexpr VertexId kN = 6000;
  const Graph g = gen::power_law(kN, 2.5, 10.0, 21);
  const bool deterministic = algorithm_info(algorithm).deterministic;
  Summary rounds, sizes;
  std::vector<VertexId> first;
  bool varies = false;
  bool valid = true;
  std::uint64_t random_words = 0;
  mpc::MpcMetrics peaks;
  for (std::uint64_t run = 0; run < 8; ++run) {
    RulingSetOptions o = solve(algorithm, 8ull * kN);
    if (deterministic) {
      o.mpc = default_mpc(static_cast<mpc::MachineId>(2 + (run % 4) * 2));
    }
    o.mpc.seed = (deterministic ? 1000 : 1) + run;
    const RulingSetResult r = compute_ruling_set(g, o);
    rounds.add(static_cast<double>(r.metrics.rounds));
    sizes.add(static_cast<double>(r.ruling_set.size()));
    random_words += r.metrics.random_words;
    fold_peaks(peaks, r.metrics);
    valid = valid && is_beta_ruling_set(g, r.ruling_set, r.beta);
    if (first.empty()) first = r.ruling_set;
    varies = varies || r.ruling_set != first;
  }
  if (deterministic) valid = valid && !varies && random_words == 0;
  line.real("rounds_mean", rounds.mean())
      .real("rounds_stddev", rounds.stddev())
      .real("size_mean", sizes.mean())
      .real("size_stddev", sizes.stddev())
      .counts({{"output_varies", varies ? 1 : 0}, {"rand_words", random_words}})
      .budget(default_mpc(), peaks)
      .require("valid", valid);
}

// E7 (claim C5): the estimator probe. Conditional expectations never lose
// value, and every marking covers at least 1/8 of its targets.
void estimator_probe(Line& line) {
  constexpr double kGuarantee = 0.125;
  double min_gain = 1e300;
  double min_cover = 1.0;
  mpc::MpcMetrics peaks;
  for (const std::uint32_t d : {8u, 16u, 32u, 64u}) {
    const Graph g = gen::random_regular(3000, 2 * d, 40 + d);
    mpc::Simulator sim(default_mpc());
    mpc::DistGraph dg(sim, g);
    std::vector<VertexId> targets;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) >= d) targets.push_back(v);
    }
    const DerandMarkOptions opt{.levels = std::max(ceil_log2(d + 1), 1),
                                .edge_budget = 1 << 22};
    const std::vector<bool> all(g.num_vertices(), true);
    const DerandMarkResult res = derand_mark(sim, dg, all, targets, opt);
    min_gain = std::min(min_gain, res.final_estimate - res.initial_estimate);
    min_cover = std::min(min_cover,
                         static_cast<double>(res.covered_targets) /
                             static_cast<double>(targets.size()));
    fold_peaks(peaks, sim.metrics());
  }
  line.real("estimate_gain_min", min_gain)
      .real("cover_fraction_min", min_cover)
      .real("guarantee", kGuarantee)
      .budget(default_mpc(), peaks)
      .require("valid", min_gain >= -1e-9 && min_cover >= kGuarantee);
}

// A1: deterministic maximal matching through the same seed-fixing engine.
void matching_row(Line& line, VertexId n) {
  const Graph g = gen::gnp(n, 8.0 / n, 47);
  mpc::MpcConfig cfg = default_mpc();
  cfg.memory_words = std::size_t{1} << 24;
  const DetMatchingResult r = det_matching_mpc(g, cfg);
  line.counts({{"iterations", r.iterations}, {"rounds", r.metrics.rounds},
               {"chunks", r.derand_chunks}, {"matched", r.matching.size()},
               {"edges", g.num_edges()},
               {"rand_words", r.metrics.random_words}})
      .budget(cfg, r.metrics)
      .require("valid", is_maximal_matching(g, r.matching) &&
                            r.metrics.random_words == 0);
}

// E9-E11 sweep one knob of det-ruling's MPC configuration. Every row
// prints the knob, the fault and degrade ledger, its overhead over the
// sweep's plain run, and whether its set is identical to that run's (it
// must be: faults and budgets cost rounds, never the answer).
Extra versus(const RulingSetResult& plain, const RulingSetOptions& o,
             const char* knob, double value) {
  const bool integrity_on = o.mpc.integrity || o.mpc.faults.corrupt_prob > 0;
  return [=](const Graph&, const RulingSetResult& r, Line& line) {
    const mpc::MpcMetrics& m = r.metrics;
    line.real(knob, value)
        .counts({{"integrity_on", integrity_on ? 1 : 0},
                 {"baseline_rounds", plain.metrics.rounds},
                 {"overhead_rounds", m.rounds - plain.metrics.rounds},
                 {"overhead_words", m.total_words - plain.metrics.total_words},
                 {"recovery_rounds", m.recovery_rounds},
                 {"checkpoints", m.checkpoints},
                 {"faults_injected", m.faults_injected},
                 {"degraded_subrounds", m.degraded_subrounds},
                 {"corrupt_detected", m.corrupt_detected},
                 {"integrity_retries", m.integrity_retries},
                 {"quarantined_rounds", m.quarantined_rounds}})
        .require("identical", r.ruling_set == plain.ruling_set);
  };
}

// The table, experiment by experiment.
std::vector<Row> claim_rows() {
  std::vector<Row> rows;
  // E1 (claim C1): rounds vs n on sparse G(n, 12/n) and dense G(n, 1/sqrt n).
  for (const bool dense : {false, true}) {
    for (const VertexId n : {500, 1000, 2000, 4000, 8000, 16000, 32000}) {
      const double p = dense ? std::sqrt(static_cast<double>(n)) / n : 12.0 / n;
      const GraphFn g = graph([n, p] { return gen::gnp(n, p, 77); });
      const std::string at = std::string("E1/") + (dense ? "dense" : "sparse") +
                             "/n=" + std::to_string(n) + "/";
      if (n >= 1000) {
        add_runs(rows, at, g,
                 {solve(kDetRulingMpc, 8ull * n),
                  solve(kSampleGatherMpc, 8ull * n), solve(kLubyMpc)});
      }
      // The derandomized Luby baseline is computationally dense; capped.
      if (n <= 4000) add_runs(rows, at, g, {solve(kDetLubyMpc)});
    }
  }
  {  // E2 (claim C1): rounds vs Delta at n = 8000.
    constexpr VertexId kN = 8000;
    for (const std::uint32_t d : {4, 16, 64, 128, 256, 512}) {
      add_runs(rows, "E2/regular/d=" + std::to_string(d) + "/",
               graph([d] { return gen::random_regular(kN, d, 99); }),
               {solve(kDetRulingMpc, 8ull * kN),
                solve(kSampleGatherMpc, 8ull * kN), solve(kLubyMpc)});
    }
    for (const double gamma : {2.1, 2.5, 3.0}) {
      char at[32];
      std::snprintf(at, sizeof(at), "E2/powerlaw/exponent=%.1f/", gamma);
      add_runs(rows, at,
               graph([gamma] { return gen::power_law(kN, gamma, 8, 99); }),
               {solve(kDetRulingMpc, 8ull * kN)});
    }
  }
  {  // E3 (claim C3): peaks and rounds as the gather budget falls 64n -> n/4.
    constexpr VertexId kN = 8000;
    const GraphFn g = graph([] { return gen::gnp(kN, 24.0 / kN, 5); });
    for (const std::uint64_t budget :
         {64ull * kN, 16ull * kN, 4ull * kN, 1ull * kN, kN / 4ull}) {
      add_runs(rows, "E3/budget=" + std::to_string(budget) + "/", g,
               {solve(kDetRulingMpc, budget), solve(kSampleGatherMpc, budget)});
    }
  }
  {  // E4 (claim C4): set size against a greedy MIS on eight families.
    constexpr VertexId kN = 4000;
    const auto side = static_cast<std::uint32_t>(std::sqrt(kN));
    const std::pair<const char*, std::function<Graph()>> families[] = {
        {"gnp8", [] { return gen::gnp(kN, 8.0 / kN, 9); }},
        {"gnp_logn", [] { return gen::gnp(kN, 2.0 * std::log(kN) / kN, 9); }},
        {"regular16", [] { return gen::random_regular(kN, 16, 9); }},
        {"powerlaw", [] { return gen::power_law(kN, 2.5, 8.0, 9); }},
        {"ba4", [] { return gen::barabasi_albert(kN, 4, 9); }},
        {"grid", [side] { return gen::grid(side, side); }},
        {"tree", [] { return gen::random_tree(kN, 9); }},
        {"cliques8", [] { return gen::clique_blowup(kN / 8, 8); }},
    };
    const Extra ratio = [](const Graph& g, const RulingSetResult& r,
                           Line& line) {
      const std::size_t greedy = greedy_mis(g).size();
      line.counts({{"greedy_mis", greedy}})
          .real("ratio_to_greedy", static_cast<double>(r.ruling_set.size()) /
                                       static_cast<double>(greedy));
    };
    for (const auto& [family, make] : families) {
      add_runs(rows, std::string("E4/") + family + "/", graph(make),
               {solve(kDetRulingMpc, 8ull * kN),
                solve(kSampleGatherMpc, 8ull * kN)},
               ratio);
    }
  }
  // E5 (claims C1, C2): determinism across seeds and machine counts.
  rows.push_back({"E5/8_seeds/sample_gather_mpc", {}, {}, {},
                  [](Line& l) { across_runs(l, kSampleGatherMpc); }});
  rows.push_back({"E5/8_seeds_and_machine_counts/det_ruling_mpc", {}, {}, {},
                  [](Line& l) { across_runs(l, kDetRulingMpc); }});
  {  // E6 (claim C4): beta = 2..6 on two families.
    constexpr VertexId kN = 6000;
    const std::pair<const char*, GraphFn> families[] = {
        {"gnp16", graph([] { return gen::gnp(kN, 16.0 / kN, 13); })},
        {"powerlaw", graph([] { return gen::power_law(kN, 2.5, 12.0, 13); })},
    };
    const Extra versus_greedy = [](const Graph& g, const RulingSetResult& r,
                                   Line& line) {
      line.counts({{"greedy_size", greedy_ruling_set(g, r.beta).size()},
                   {"radius", domination_radius(g, r.ruling_set)}});
    };
    for (const auto& [family, g] : families) {
      for (std::uint32_t beta = 2; beta <= 6; ++beta) {
        RulingSetOptions o = solve(kDetRulingMpc, 8ull * kN);
        o.beta = beta;
        const std::string at = std::string("E6/") + family + "/beta=" +
                               std::to_string(beta) + "/";
        add_runs(rows, at, g, {o}, versus_greedy);
      }
    }
  }
  {  // E7 (claim C5): chunk width trades aggregation rounds against 2^c
     // estimator passes per chunk, while model_rounds stays put.
    constexpr VertexId kN = 6000;
    const GraphFn g = graph([] { return gen::gnp(kN, 24.0 / kN, 31); });
    for (const int bits : {1, 2, 4, 8}) {
      RulingSetOptions o = solve(kDetRulingMpc, 8ull * kN);
      o.chunk_bits = bits;
      add_runs(rows, "E7/chunk_bits=" + std::to_string(bits) + "/", g, {o});
    }
    rows.push_back({"E7/estimator_probe", {}, {}, {}, estimator_probe});
  }
  {  // E8: CONGEST vs MPC on a bounded-degree and a heavy-tailed family.
     // The coloring baselines are palette-bound: bounded degree only.
    RulingSetOptions beta2 = solve(kBetaRulingCongest);
    beta2.beta = 2;
    for (const bool powerlaw : {false, true}) {
      for (const VertexId n : {1000, 4000, 16000}) {
        const GraphFn g = graph([powerlaw, n] {
          return powerlaw ? gen::power_law(n, 2.5, 8.0, 3)
                          : gen::random_regular(n, 8, 3);
        });
        const std::string at = std::string("E8/") +
                               (powerlaw ? "powerlaw/n=" : "regular/n=") +
                               std::to_string(n) + "/";
        add_runs(rows, at, g, {solve(kLubyCongest)});
        if (!powerlaw) add_runs(rows, at, g, {solve(kColoringMisCongest)});
        add_runs(rows, at, g, {beta2, solve(kAglpCongest)});
        if (!powerlaw) add_runs(rows, at, g, {solve(kDetRulingCongest)});
        add_runs(rows, at, g, {solve(kDetRulingMpc, 8ull * n)});
      }
    }
  }
  // E9 and E11 run det-ruling on G(6000, 16/n), E10 on G(4000, 12/n).
  constexpr VertexId kN = 6000;
  const GraphFn g = graph([] { return gen::gnp(kN, 16.0 / kN, 13); });
  const RulingSetOptions plain = solve(kDetRulingMpc, 8ull * kN);
  const RulingSetResult base = compute_ruling_set((*g)(), plain);
  // E9: recovery overhead as the checkpoint interval grows, crash rate fixed.
  for (const std::uint64_t every : {1, 2, 4, 8, 16}) {
    RulingSetOptions o = plain;
    o.mpc.faults.enabled = true;
    o.mpc.faults.seed = 99;
    o.mpc.faults.crash_prob = 0.02;
    o.mpc.checkpoint_every = every;
    add_runs(rows, "E9/checkpoint_every=" + std::to_string(every) + "/", g,
             {o}, versus(base, o, "checkpoint_every", every));
  }
  {  // E10: degrade-mode overhead as S halves from S0, the smallest power of
     // two the unconstrained run fits. The gather budget is pinned to the
     // sweep's floor (below S0/16 it clips), so the set never changes.
    constexpr std::uint64_t kGatherPin = 512;
    const GraphFn g10 = graph([] { return gen::gnp(4000, 12.0 / 4000, 17); });
    RulingSetOptions unconstrained = solve(kDetRulingMpc, kGatherPin);
    unconstrained.mpc.budget_policy = mpc::BudgetPolicy::kTrace;
    const RulingSetResult base10 = compute_ruling_set((*g10)(), unconstrained);
    std::uint64_t s0 = 1;
    while (s0 < base10.metrics.max_storage_words) s0 <<= 1;
    for (std::uint64_t shrink = 0; shrink <= 4; ++shrink) {
      RulingSetOptions o = unconstrained;
      o.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
      o.mpc.memory_words = std::max(s0 >> shrink, kGatherPin);
      const std::uint64_t alpha_inverse = 1ull << shrink;
      add_runs(rows,
               "E10/alpha_inverse=" + std::to_string(alpha_inverse) + "/",
               g10, {o}, versus(base10, o, "alpha_inverse", alpha_inverse));
    }
  }
  {  // E11: integrity overhead, from checksums on a clean run to healing
     // live corruption. Corruption faults turn verification on themselves.
    RulingSetOptions o = plain;
    add_runs(rows, "E11/plain/", g, {o}, versus(base, o, "corrupt_prob", 0));
    o.mpc.integrity = true;
    add_runs(rows, "E11/integrity/", g, {o},
             versus(base, o, "corrupt_prob", 0));
    for (const double p : {0.01, 0.05, 0.3}) {
      o = plain;
      o.mpc.faults.enabled = true;
      o.mpc.faults.seed = 99;
      o.mpc.faults.corrupt_prob = p;
      char at[32];
      std::snprintf(at, sizeof(at), "E11/corrupt=%g/", p);
      add_runs(rows, at, g, {o}, versus(base, o, "corrupt_prob", p));
    }
  }
  // A1: deterministic maximal matching.
  for (const VertexId n : {500, 1000, 2000, 4000, 8000}) {
    rows.push_back({"A1/n=" + std::to_string(n) + "/det_matching_mpc", {}, {},
                    {}, [n](Line& line) { matching_row(line, n); }});
  }
  return rows;
}

int run_claims() {
  bool ok = true;
  GraphFn built;
  Graph g;
  for (const Row& row : claim_rows()) {
    Line line(row.name);
    if (row.custom) {
      row.custom(line);
    } else {
      if (row.graph != built) {
        g = (*row.graph)();
        built = row.graph;
      }
      run_ruling_row(row, g, line);
    }
    std::printf("%s\n", line.str().c_str());
    if (!line.ok()) {
      std::fprintf(stderr, "rsets_claims: %s failed a claim check\n",
                   row.name.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rsets::bench

int main() { return rsets::bench::run_claims(); }
