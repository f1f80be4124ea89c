#include "core/derand.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/seed_fixing.hpp"
#include "util/logging.hpp"

namespace rsets {
namespace {

using mpc::MachineId;

std::int64_t pairs_of(std::int64_t n) { return n * (n - 1) / 2; }

// (-1)^p for a bit p.
std::int64_t sign_of(int p) { return 1 - 2 * p; }

// In place: g[a] <- sum_s g[s] * (-1)^parity(a & s).
void walsh_hadamard(std::vector<std::int64_t>& g) {
  for (std::size_t len = 1; len < g.size(); len <<= 1) {
    for (std::size_t i = 0; i < g.size(); i += 2 * len) {
      for (std::size_t j = i; j < i + len; ++j) {
        const std::int64_t x = g[j];
        const std::int64_t y = g[j + len];
        g[j] = x + y;
        g[j + len] = x - y;
      }
    }
  }
}

// lane[a] <- sum over `run` of (-1)^(p0 ^ parity(a & s)), for every lane a:
// a histogram over s, then one transform.
void balance(const ChunkForms& forms, std::span<const VertexId> run,
             std::vector<std::int64_t>& lane) {
  std::fill(lane.begin(), lane.end(), 0);
  for (const VertexId v : run) {
    const ChunkForms::Form f = forms.form(v);
    lane[f.s] += sign_of(f.p0);
  }
  walsh_hadamard(lane);
}

}  // namespace

std::pair<double, double> MarkShard::partial(const PairwiseBitLevel& level,
                                             int remaining) const {
  const double single_factor = std::exp2(-remaining);
  const double pair_factor = std::exp2(-2 * remaining);
  double cover = 0.0;
  for (const auto& t_list : target_lists) {
    double singles = 0.0;
    for (const VertexId u : t_list) singles += level.prob_one(u);
    cover += singles * single_factor - level.pair_sum(t_list) * pair_factor;
  }
  double edge_mass = 0.0;
  for (const Edge& e : edges) {
    edge_mass += level.prob_both_one(e.u, e.v) * pair_factor;
  }
  return {cover, edge_mass};
}

bool MarkShard::counts_exact(int remaining) const {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 53;
  // Also keeps 2^(remaining+2) itself below 2^53 when every list is empty.
  if (remaining < 0 || remaining + 2 >= 53) return false;
  std::uint64_t sum = 0;
  for (const auto& t_list : target_lists) {
    const std::uint64_t t = t_list.size();
    if (t >= (kLimit >> (remaining + 2)) || t >= (std::uint64_t{1} << 26)) {
      return false;
    }
    sum += (t << (remaining + 2)) + 2 * t * t;
    if (sum >= kLimit) return false;
  }
  return edges.size() < kLimit / 4;
}

void MarkShard::chunk_partials(const PairwiseBitLevel& level, int remaining,
                               std::span<const int> chunk,
                               std::span<double> out) const {
  if (!counts_exact(remaining)) {
    PairwiseBitLevel tentative = level;
    for (std::uint32_t a = 0; 2 * std::size_t{a} < out.size(); ++a) {
      fix_chunk(tentative, chunk, a);
      const auto [c, x] = partial(tentative, remaining);
      out[2 * a] = c;
      out[2 * a + 1] = x;
    }
    return;
  }
  // Everything in units u = 2^-(2r+2), r = remaining: a marginal of 1/2 is
  // 2^(r+1) u, a determined 1 is 2^(r+2) u, and a pair_sum of q quarters is
  // q u, as is an edge joint of q quarters.
  const ChunkForms forms(level, chunk);
  const std::uint32_t lanes = forms.lanes();
  const std::int64_t half = std::int64_t{1} << (remaining + 1);
  std::int64_t base = 0;  // the part every lane shares
  std::vector<std::int64_t> cover(lanes, 0);
  // Terms sum_s g[s] (-1)^parity(a & s) of cover, transformed once.
  std::vector<std::int64_t> spectrum(lanes, 0);
  std::vector<std::int64_t> lane(lanes);
  std::vector<std::int64_t> d1(lanes);
  std::vector<VertexId> by_part;
  for (const auto& t_list : target_lists) {
    // Ids by class, i.e. by free part. Ascending ids keep each class
    // contiguous while the fixed bits are a low prefix, as the engine fixes
    // them; otherwise a copy is sorted by free part first. A class is
    // either all determined (free part 0, constant fixed) or all free.
    auto part_of = [&](VertexId v) { return forms.free_part(v); };
    std::span<const VertexId> ids = t_list;
    if (!std::ranges::is_sorted(ids, {}, part_of)) {
      by_part.assign(ids.begin(), ids.end());
      std::ranges::stable_sort(by_part, {}, part_of);
      ids = by_part;
    }
    // pair_sum's quarters, C(F,2) - sum_p C(n_p,2) + 2 sum_{p,q} C(n_pq,2)
    // + 2 D1 F + 4 C(D1,2), are subtracted from the singles term by term.
    std::int64_t free = 0;
    std::int64_t det = 0;  // the one determined class, if any
    for (std::size_t i = 0; i < ids.size();) {
      const std::uint64_t part = forms.free_part(ids[i]);
      std::size_t j = i + 1;
      while (j < ids.size() && forms.free_part(ids[j]) == part) ++j;
      const auto n = static_cast<std::int64_t>(j - i);
      const std::span<const VertexId> run = ids.subspan(i, j - i);
      if (forms.determined(part)) {
        // D1(a) = (n - H(a)) / 2 of them have bit 1 under a.
        det = n;
        balance(forms, run, d1);
      } else {
        // -C(n,2) + 2 sum_q C(n_q,2) = (H^2 - n) / 2 = sum_{i<j} x_i x_j,
        // x_i = (-1)^(p0_i ^ parity(a & s_i)) and H = sum_i x_i; x_i is an
        // id's parity up to a flip every id shares, which x_i x_j cancels.
        // Pair by pair into the spectrum while that is the cheaper way,
        // else through H in the lanes.
        free += n;
        if (pairs_of(n) <= lanes) {
          for (std::size_t x = i; x + 1 < j; ++x) {
            const ChunkForms::Form fx = forms.form(ids[x]);
            for (std::size_t y = x + 1; y < j; ++y) {
              const ChunkForms::Form fy = forms.form(ids[y]);
              spectrum[fx.s ^ fy.s] -= sign_of(fx.p0 ^ fy.p0);
            }
          }
        } else {
          balance(forms, run, lane);
          for (std::uint32_t a = 0; a < lanes; ++a) {
            cover[a] -= (lane[a] * lane[a] - n) / 2;
          }
        }
      }
      i = j;
    }
    base += free * half - pairs_of(free);
    if (det > 0) {
      for (std::uint32_t a = 0; a < lanes; ++a) {
        const std::int64_t ones = (det - d1[a]) / 2;
        cover[a] += ones * 2 * half - 2 * ones * free - 4 * pairs_of(ones);
      }
    }
  }
  // Edge joints in quarters are 1 + sum_s g[s] (-1)^parity(a & s): both
  // determined, (1 - x_u)(1 - x_v); one, 1 - x_u; free with equal free
  // parts, 1 + x_u x_v; else 1, with x_u = (-1)^(p0_u ^ parity(a & s_u)).
  std::vector<std::int64_t> edge(lanes, 0);
  for (const Edge& e : edges) {
    const std::uint64_t part_u = forms.free_part(e.u);
    const std::uint64_t part_v = forms.free_part(e.v);
    const bool det_u = forms.determined(part_u);
    const bool det_v = forms.determined(part_v);
    if (!det_u && !det_v && part_u != part_v) continue;
    const ChunkForms::Form fu = forms.form(e.u);
    const ChunkForms::Form fv = forms.form(e.v);
    if (det_u) edge[fu.s] -= sign_of(fu.p0);
    if (det_v) edge[fv.s] -= sign_of(fv.p0);
    if (det_u == det_v) edge[fu.s ^ fv.s] += sign_of(fu.p0 ^ fv.p0);
  }
  walsh_hadamard(spectrum);
  walsh_hadamard(edge);
  const auto edge_base = static_cast<std::int64_t>(edges.size());
  const double unit = std::ldexp(1.0, -(2 * remaining + 2));
  for (std::uint32_t a = 0; a < lanes; ++a) {
    out[2 * a] = static_cast<double>(base + cover[a] + spectrum[a]) * unit;
    out[2 * a + 1] = static_cast<double>(edge_base + edge[a]) * unit;
  }
}

void MarkShard::keep_survivors(const PairwiseBitLevel& level) {
  for (auto& t_list : target_lists) {
    std::erase_if(t_list, [&](VertexId u) { return level.eval(u) == 0; });
  }
  std::erase_if(edges, [&](const Edge& e) {
    return level.eval(e.u) == 0 || level.eval(e.v) == 0;
  });
}

DerandMarkResult derand_mark(mpc::Simulator& sim, const mpc::DistGraph& dg,
                             const std::vector<bool>& candidates_mask,
                             const std::vector<VertexId>& targets,
                             const DerandMarkOptions& options) {
  if (options.levels < 1) {
    throw std::invalid_argument("derand_mark: levels must be >= 1");
  }
  check_chunk_bits(options.chunk_bits, "derand_mark");
  if (options.edge_budget == 0) {
    throw std::invalid_argument("derand_mark: edge_budget must be positive");
  }
  const VertexId n = dg.num_vertices();
  const int k = options.levels;
  const std::size_t trunc = std::size_t{1} << std::min(k, 20);
  const MachineId m_count = sim.num_machines();

  auto is_candidate = [&](VertexId v) {
    return v < candidates_mask.size() && candidates_mask[v] && dg.active(v);
  };

  // --- build shards (local work at each owner) -----------------------------
  std::vector<MarkShard> shards(m_count);
  for (VertexId v : targets) {
    std::vector<VertexId> t_list;
    if (is_candidate(v)) t_list.push_back(v);
    for (VertexId u : dg.neighbors(v)) {
      if (t_list.size() >= trunc) break;
      if (is_candidate(u)) t_list.push_back(u);
    }
    // Ascending ids keep equal free parts contiguous for pair_sum. Order is
    // otherwise immaterial: every singles and pairs term is dyadic, so each
    // list's sums are exact in any order.
    std::sort(t_list.begin(), t_list.end());
    shards[dg.owner(v)].target_lists.push_back(std::move(t_list));
  }
  for (MachineId m = 0; m < m_count; ++m) {
    for (VertexId u : dg.owned(m)) {
      if (!is_candidate(u)) continue;
      for (VertexId w : dg.neighbors(u)) {
        if (u < w && is_candidate(w)) shards[m].edges.push_back({u, w});
      }
    }
  }

  const double lambda =
      8.0 * std::max<double>(1.0, static_cast<double>(targets.size()));
  const double budget = static_cast<double>(options.edge_budget);

  MarkingFamily family(std::max<std::uint64_t>(n, 2), k);
  DerandMarkResult result;
  result.seed_bits = family.total_seed_bits();

  const std::uint64_t rounds_before = sim.metrics().rounds;

  {
    double cover = 0.0;
    double edge_mass = 0.0;
    for (MachineId m = 0; m < m_count; ++m) {
      const auto [c, x] = shards[m].partial(family.level(0), k - 1);
      cover += c;
      edge_mass += x;
    }
    result.initial_estimate = cover - lambda * edge_mass / budget;
  }

  // --- chunked conditional expectations ------------------------------------
  // Two values per assignment (cover, edge mass); each machine scores a
  // whole chunk in one pass over its shard inside the engine's allreduce.
  // Once a level is final every machine filters its shard locally (free).
  const SeedFixReport report = fix_seed_mpc(
      sim, family, options.chunk_bits, /*values_per_assignment=*/2,
      [&](MachineId m, const MarkingFamily& pre, int level,
          std::span<const int> chunk, std::span<double> out) {
        shards[m].chunk_partials(pre.level(level), k - 1 - level, chunk, out);
      },
      [&](std::span<const double> t) { return t[0] - lambda * t[1] / budget; },
      [&](int level) {
        for (MarkShard& shard : shards) {
          shard.keep_survivors(family.level(level));
        }
      });
  result.chunks = report.chunks;

  // --- realized outcome (all quantities now deterministic) -----------------
  {
    double cover = 0.0;
    std::uint64_t covered = 0;
    std::uint64_t edges = 0;
    for (const MarkShard& shard : shards) {
      for (const auto& t_list : shard.target_lists) {
        const double y = static_cast<double>(t_list.size());
        cover += y - y * (y - 1) / 2.0;
        if (!t_list.empty()) ++covered;
      }
      edges += shard.edges.size();
    }
    result.covered_targets = covered;
    result.marked_edges = edges;
    result.final_estimate =
        cover - lambda * static_cast<double>(edges) / budget;
  }

  for (VertexId v = 0; v < n; ++v) {
    if (is_candidate(v) && family.mark(v)) result.marked.push_back(v);
  }

  result.rounds = sim.metrics().rounds - rounds_before;
  RSETS_DEBUG << "derand_mark: |T|=" << targets.size() << " k=" << k
              << " covered=" << result.covered_targets
              << " |M|=" << result.marked.size()
              << " edges(M)=" << result.marked_edges << "/"
              << options.edge_budget << " Phi " << result.initial_estimate
              << " -> " << result.final_estimate;
  return result;
}

}  // namespace rsets
