#include "mpc/certify.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/shard/shard_csr.hpp"
#include "mpc/dist_graph.hpp"
#include "mpc/primitives.hpp"
#include "mpc/simulator.hpp"

namespace rsets::mpc {
namespace {

constexpr std::uint32_t kTagMember = 0x51;
constexpr std::uint32_t kTagCover = 0x52;
constexpr std::uint32_t kTagLevelSum = 0x53;
constexpr std::uint32_t kTagConflictSum = 0x54;
constexpr std::uint32_t kTagUncoveredSum = 0x55;
constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();

// Scrubs caller knobs that must not perturb the clean-room audit.
MpcConfig clean_config(const MpcConfig& config) {
  MpcConfig clean = config;
  clean.trace_hook = nullptr;
  clean.faults = FaultConfig{};
  clean.checkpoint_every = 0;
  clean.round_deadline = 0;
  clean.budget_policy = BudgetPolicy::kDegrade;
  return clean;
}

}  // namespace

// Screening, member routing, conflict exchange, beta-hop BFS.
RulingSetCertificate certify_ruling_set(const Graph& g,
                                        std::span<const VertexId> set,
                                        std::uint32_t beta,
                                        const MpcConfig& config) {
  Simulator sim(clean_config(config));
  DistGraph dg(sim, g);
  RulingSetCertificate cert;
  cert.beta = beta;
  cert.set_size = set.size();
  cert.level_counts.assign(static_cast<std::size_t>(beta) + 1, 0);

  const MachineId machines = sim.num_machines();
  const VertexId n = dg.num_vertices();

  // Screening happens where the claimed set lives (machine 0) before
  // anything is routed; the storage for the claim is charged there.
  sim.machine(0).charge_storage(set.size());
  std::vector<VertexId> valid;
  valid.reserve(set.size());
  {
    std::vector<bool> seen(n, false);
    for (const VertexId v : set) {
      if (v >= n || seen[v]) {
        ++cert.malformed;
        continue;
      }
      seen[v] = true;
      valid.push_back(v);
    }
  }
  cert.level_counts[0] = valid.size();

  // Per-owner certification state. One byte/word per owned vertex; plain
  // arrays (not vector<bool>) so concurrent machines touch disjoint memory.
  std::vector<std::uint8_t> member(n, 0);
  std::vector<std::uint32_t> dist(n, kInf);
  for (MachineId m = 0; m < machines; ++m) {
    sim.machine(m).charge_storage(dg.owned(m).size() * 2);
  }

  // Round 1: route valid members to their owners.
  sim.round([&](Machine& m, const Inbox&) {
    if (m.id() != 0) return;
    std::vector<std::vector<Word>> out(machines);
    for (const VertexId v : valid) out[dg.owner(v)].push_back(v);
    for (MachineId t = 0; t < machines; ++t) {
      if (!out[t].empty()) m.send(t, kTagMember, out[t]);
    }
  });
  sim.drain([&](Machine&, const Inbox& inbox) {
    for (const MessageView& msg : inbox.with_tag(kTagMember)) {
      for (const Word w : msg.payload) {
        const VertexId v = static_cast<VertexId>(w);
        member[v] = 1;
        dist[v] = 0;
      }
    }
  });

  // Levels 1..beta: the frontier's owners announce coverage to the owners
  // of its neighbors. Level 1 announcements originate exclusively at
  // members, so one landing on a member witnesses a conflicting edge. The
  // level-1 exchange runs even for beta == 0 (independence must still be
  // checked); it then contributes nothing to coverage.
  std::uint64_t conflict_message_total = 0;
  const std::uint32_t levels_to_run = std::max<std::uint32_t>(beta, 1);
  for (std::uint32_t level = 1; level <= levels_to_run; ++level) {
    sim.round([&](Machine& m, const Inbox&) {
      std::vector<std::vector<Word>> out(machines);
      for (const VertexId v : dg.owned(m.id())) {
        if (dist[v] != level - 1) continue;
        for (const VertexId u : dg.neighbors(v)) {
          out[dg.owner(u)].push_back(u);
        }
      }
      for (MachineId t = 0; t < machines; ++t) {
        if (!out[t].empty()) m.send(t, kTagCover, out[t]);
      }
    });
    std::vector<std::uint64_t> newly(machines, 0);
    std::vector<std::uint64_t> conflict_messages(machines, 0);
    sim.drain([&](Machine& m, const Inbox& inbox) {
      for (const MessageView& msg : inbox.with_tag(kTagCover)) {
        for (const Word w : msg.payload) {
          const VertexId u = static_cast<VertexId>(w);
          if (level == 1 && member[u]) ++conflict_messages[m.id()];
          if (level <= beta && dist[u] == kInf) {
            dist[u] = level;
            ++newly[m.id()];
          }
        }
      }
    });
    if (level == 1) {
      conflict_message_total =
          allreduce_sum_u64(sim, conflict_messages, kTagConflictSum);
    }
    if (level > beta) break;  // beta == 0: conflict exchange only
    cert.level_counts[level] = allreduce_sum_u64(sim, newly, kTagLevelSum);
    if (cert.level_counts[level] == 0) break;  // frontier exhausted
    cert.radius = level;
  }
  // Each conflicting edge was announced from both endpoints.
  cert.conflict_edges = conflict_message_total / 2;

  std::vector<std::uint64_t> uncovered(machines, 0);
  for (MachineId m = 0; m < machines; ++m) {
    for (const VertexId v : dg.owned(m)) {
      if (dist[v] == kInf) ++uncovered[m];
    }
  }
  cert.uncovered = allreduce_sum_u64(sim, uncovered, kTagUncoveredSum);

  sim.sync_metrics();
  cert.rounds = sim.metrics().rounds;
  return cert;
}

RulingSetCertificate certify_ruling_set(const shard::ShardedSource& src,
                                        const shard::IngestOptions& ingest,
                                        std::span<const VertexId> set,
                                        std::uint32_t beta,
                                        const MpcConfig& config) {
  return certify_ruling_set(shard::build_shard_csr(src, ingest), set, beta,
                            config);
}

}  // namespace rsets::mpc
