#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <fstream>
#include <limits>
#include <set>
#include <unordered_map>
#include <utility>

#include "graph/verify.hpp"
#include "mpc/certify.hpp"
#include "mpc/fault/checkpoint.hpp"

namespace rsets::serve {
namespace {

// "RSSRVJ01", little-endian — the journal is NOT a simulator checkpoint
// (read_checkpoint_file would rightly reject it), it only shares the v4
// byte-stream/seal/atomic-publish primitives.
constexpr std::uint64_t kJournalMagic = 0x31304A5652535352ull;
// v2 (PR 9) appends the liveness/ejection ledger — heartbeats, the sealed
// fail-stop flag, and producer tombstones — between the pending queue and
// the graph fingerprint. v1 journals are rejected (re-initialize the
// service), same no-silent-upgrade policy as checkpoint v4 / replay v5.
constexpr std::uint64_t kJournalVersion = 2;

// Smoothing weight of the newest batch in the churn EWMA.
constexpr double kChurnEwmaAlpha = 0.5;

void widen(RepairScope& into, RepairScope scope) {
  if (static_cast<std::uint8_t>(scope) > static_cast<std::uint8_t>(into)) {
    into = scope;
  }
}

std::vector<std::uint8_t> read_journal_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ServiceError("journal: cannot open " + path);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  try {
    mpc::verify_checkpoint_image(bytes, "journal: " + path);
  } catch (const mpc::CheckpointError& e) {
    // Surface seal failures as ServiceError so recover()'s .prev fallback
    // treats a corrupt primary generation like any other unusable journal.
    throw ServiceError(e.what());
  }
  return bytes;
}

}  // namespace

const char* repair_scope_name(RepairScope scope) {
  switch (scope) {
    case RepairScope::kSkip:
      return "skip";
    case RepairScope::kFrontier:
      return "frontier";
    case RepairScope::kFull:
      return "full";
  }
  return "?";
}

RulingSetService::RulingSetService(const Graph& initial, ServiceConfig config)
    : config_(std::move(config)),
      graph_(initial),
      last_options_(config_.options) {
  in_set_.assign(initial.num_vertices(), false);
  BatchReport report;
  bool force_full = true;
  RulingSetResult r = run_repair(initial, report, &force_full);
  set_ = r.ruling_set;
  last_result_ = std::move(r);
  for (VertexId v : set_) in_set_[v] = true;
  metrics_.repairs_full += 1;
  certify_epoch(initial, {}, set_, /*full=*/true, report);
  write_journal();
  publish_snapshot(Graph(initial));
}

BatchReport RulingSetService::apply(const UpdateBatch& batch) {
  if (sealed_) {
    throw ServiceError("service sealed by watchdog fail-stop at epoch " +
                       std::to_string(epoch_) + "; recover() to resume");
  }
  metrics_.batches += 1;
  metrics_.updates_seen += batch.size();
  pending_.insert(pending_.end(), batch.updates.begin(), batch.updates.end());
  BatchReport report;
  report.updates = batch.size();
  return drain_pending(report);
}

BatchReport RulingSetService::drain() {
  if (sealed_) {
    throw ServiceError("service sealed by watchdog fail-stop at epoch " +
                       std::to_string(epoch_) + "; recover() to resume");
  }
  return drain_pending(BatchReport{});
}

BatchReport RulingSetService::drain_pending(BatchReport report) {
  report.certified = true;  // every committed epoch below certifies or throws
  while (!pending_.empty()) {
    if (config_.max_epochs_per_apply != 0 &&
        report.epochs >= config_.max_epochs_per_apply) {
      break;  // deferred, not dropped: the remainder stays queued + journaled
    }
    commit_epoch(report);
  }
  report.deferred = pending_.size();
  report.set_size = set_.size();
  return report;
}

void RulingSetService::commit_epoch(BatchReport& report) {
  if (crash_hook) crash_hook("pre-apply");

  // Admit raw updates from the queue until the effective-change budget for
  // one epoch is spent. No-ops (insert-present / delete-absent) are
  // cancelled against the resident graph and cost no budget.
  std::vector<VertexId> seeds;
  std::vector<std::pair<VertexId, VertexId>> deleted;
  std::uint64_t effective = 0;
  std::uint64_t noops = 0;
  std::size_t taken = 0;
  while (taken < pending_.size()) {
    const EdgeUpdate u = pending_[taken];
    const bool changed = u.op == EdgeUpdate::Op::kInsert
                             ? graph_.insert(u.u, u.v)
                             : graph_.erase(u.u, u.v);
    ++taken;
    if (!changed) {
      ++noops;
      continue;
    }
    ++effective;
    seeds.push_back(u.u);
    seeds.push_back(u.v);
    if (u.op == EdgeUpdate::Op::kDelete) deleted.emplace_back(u.u, u.v);
    if (config_.admit_budget != 0 && effective >= config_.admit_budget) break;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
  metrics_.updates_applied += effective;
  metrics_.updates_noop += noops;
  report.effective_updates += effective;

  if (effective == 0) {
    // The sub-batch cancelled to nothing: F(G) is unchanged by definition,
    // so no repair, no certification, no epoch. The journal still holds the
    // consumed raw updates as pending; re-applying them after a recovery is
    // harmless because they cancel again.
    metrics_.skips += 1;
    widen(report.scope, RepairScope::kSkip);
    return;
  }

  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  // The graph is final for this epoch: one O(n + m) snapshot serves the
  // repair, the full certification and the published query view.
  const Graph snapshot = graph_.snapshot();

  // Churn estimator: EWMA of the effective-update fraction decides whether
  // the frontier analysis is still worth it.
  const double frac =
      static_cast<double>(effective) /
      static_cast<double>(std::max<std::uint64_t>(graph_.num_edges(), 1));
  churn_ewma_ = kChurnEwmaAlpha * frac + (1.0 - kChurnEwmaAlpha) * churn_ewma_;
  RepairScope scope =
      (churn_ewma_ > config_.full_threshold || frac > config_.full_threshold)
          ? RepairScope::kFull
          : RepairScope::kFrontier;

  const std::vector<VertexId> old_set = set_;
  bool force_full_certify = scope == RepairScope::kFull;
  bool used_cascade = false;
  std::uint64_t repair_work = 0;  // watchdog work measure (deterministic)
  if (scope == RepairScope::kFrontier &&
      config_.options.algorithm == Algorithm::kGreedySequential) {
    set_ = cascade_repair(seeds, deleted, &repair_work);
    used_cascade = true;
  } else {
    RulingSetResult r = run_repair(snapshot, report, &force_full_certify);
    repair_work = r.metrics.rounds;
    set_ = r.ruling_set;
    last_result_ = std::move(r);
  }
  metrics_.heartbeats += 1;  // repair tier finished

  // Watchdog tier 1 — stuck frontier repair: the deterministic work measure
  // (cascade pops / simulator rounds) blew the per-epoch deadline, so stop
  // trusting locality for this epoch and escalate to the full tier. For the
  // MPC backends the frontier rerun is already a full recompute of the set,
  // so escalation only upgrades the certification; the cascade path
  // recomputes through the registered algorithm to refresh the full ledger.
  if (scope == RepairScope::kFrontier && config_.watchdog_deadline != 0 &&
      repair_work > config_.watchdog_deadline) {
    metrics_.watchdog_escalations += 1;
    scope = RepairScope::kFull;
    force_full_certify = true;
    if (used_cascade) {
      RulingSetResult r = run_repair(snapshot, report, &force_full_certify);
      repair_work = r.metrics.rounds;
      set_ = r.ruling_set;
      last_result_ = std::move(r);
      used_cascade = false;
      metrics_.heartbeats += 1;
    }
  }
  if (used_cascade) metrics_.cascade_repairs += 1;
  if (scope == RepairScope::kFull) {
    metrics_.repairs_full += 1;
  } else {
    metrics_.repairs_frontier += 1;
  }

  // Watchdog tier 2 — the full tier exhausted its own (larger) budget:
  // certify and commit what we have (the state is consistent), then
  // fail-stop with the journal sealed rather than limp into the next epoch.
  const bool fail_stop =
      config_.watchdog_deadline != 0 && scope == RepairScope::kFull &&
      repair_work > config_.watchdog_deadline * kWatchdogFullFactor;

  in_set_.assign(graph_.num_vertices(), false);
  for (VertexId v : set_) in_set_[v] = true;

  const bool full =
      force_full_certify ||
      (config_.full_certify_every != 0 &&
       (epoch_ + 1) % config_.full_certify_every == 0);
  certify_epoch(snapshot, seeds, old_set, full, report);
  metrics_.heartbeats += 1;  // certification finished

  widen(report.scope, scope);
  if (crash_hook) crash_hook("pre-commit");
  epoch_ += 1;
  metrics_.epochs += 1;
  report.epochs += 1;
  // The commit tick lands BEFORE the journal write so the journaled
  // liveness position equals an uncrashed twin's at the same epoch —
  // ticking after the write would leave every recovered service one
  // heartbeat behind forever.
  metrics_.heartbeats += 1;
  if (fail_stop) {
    sealed_ = true;
    metrics_.watchdog_failstops += 1;
  }
  write_journal();
  // The query view gets a copy. The epoch's own snapshot is then freed on
  // return and its pages are reused by the next epoch's; moving it into the
  // view instead measured several times more minor page faults on
  // serve_churn, with slower epochs and ~7% fewer queries per second.
  publish_snapshot(Graph(snapshot));
  if (crash_hook) crash_hook("committed");
  if (fail_stop) {
    throw ServiceError(
        "watchdog fail-stop: full-tier repair work " +
        std::to_string(repair_work) + " > " +
        std::to_string(config_.watchdog_deadline * kWatchdogFullFactor) +
        "; epoch " + std::to_string(epoch_) +
        " committed and journal sealed");
  }
}

RulingSetResult RulingSetService::run_repair(const Graph& snapshot,
                                             BatchReport& report,
                                             bool* force_full_certify) {
  RulingSetOptions opts = config_.options;
  std::uint32_t attempt = 0;
  for (;;) {
    bool retry = false;
    try {
      RulingSetResult r = compute_ruling_set(snapshot, opts);
      if (opts.mpc.round_deadline != 0 && r.metrics.deadline_misses > 0 &&
          attempt < config_.max_repair_retries) {
        // The run met its output contract but tripped the latency SLO:
        // retry with the deadline doubled; the final attempt drops it so a
        // bounded number of retries always converges. The deadline never
        // changes outputs (speculation replays identical work), so parity
        // with from-scratch recompute is preserved across retries.
        ++attempt;
        opts.mpc.round_deadline = attempt == config_.max_repair_retries
                                      ? 0
                                      : opts.mpc.round_deadline * 2;
        retry = true;
      } else {
        if (r.metrics.quarantined_rounds > 0) {
          // Corrupted traffic was quarantined and re-executed during this
          // repair; the result self-healed, but escalate this epoch to the
          // full certification pass instead of trusting region locality.
          *force_full_certify = true;
          metrics_.quarantine_escalations += 1;
        }
        metrics_.faults_injected += r.metrics.faults_injected;
        last_options_ = opts;
        return r;
      }
    } catch (const mpc::MpcViolation&) {
      // Strict budget trip: re-admit the repair through the degrade
      // machinery (spill-and-resend sub-rounds) instead of failing the
      // batch — the same budget, honored at a latency cost.
      if (attempt >= config_.max_repair_retries) throw;
      ++attempt;
      opts.mpc.budget_policy = mpc::BudgetPolicy::kDegrade;
      retry = true;
    }
    if (retry) {
      metrics_.repair_retries += 1;
      report.repair_retries += 1;
    }
  }
}

std::vector<VertexId> RulingSetService::cascade_repair(
    std::span<const VertexId> seeds,
    const std::vector<std::pair<VertexId, VertexId>>& deleted,
    std::uint64_t* pops) {
  const std::uint32_t beta = config_.options.beta;
  const VertexId n = graph_.num_vertices();

  // Candidate frontier: every vertex whose β-ball changed, i.e. the β-hop
  // ball around the touched endpoints in the union of the old and new
  // graphs. The union is the current graph plus the deleted edges (it has a
  // superset of both edge sets, so its balls contain both graphs' balls).
  std::unordered_map<VertexId, std::vector<VertexId>> ghost;
  for (const auto& [u, v] : deleted) {
    ghost[u].push_back(v);
    ghost[v].push_back(u);
  }
  std::vector<bool> seen(n, false);
  std::deque<std::pair<VertexId, std::uint32_t>> bfs;
  std::set<VertexId> work;  // ordered: the cascade must process ids ascending
  for (VertexId s : seeds) {
    if (seen[s]) continue;
    seen[s] = true;
    work.insert(s);
    bfs.emplace_back(s, 0);
  }
  while (!bfs.empty()) {
    const auto [v, d] = bfs.front();
    bfs.pop_front();
    if (d >= beta) continue;
    const auto visit = [&](VertexId w) {
      if (seen[w]) return;
      seen[w] = true;
      work.insert(w);
      bfs.emplace_back(w, d + 1);
    };
    for (VertexId w : graph_.neighbors(v)) visit(w);
    if (const auto it = ghost.find(v); it != ghost.end()) {
      for (VertexId w : it->second) visit(w);
    }
  }

  // Truncated BFS: is some final member u < v within β hops of v (in the
  // new graph)? That is exactly greedy's exclusion rule, so recomputing
  // candidates in ascending id order against already-final smaller ids
  // reproduces greedy_ruling_set(G_new) — vertices never enqueued keep
  // their membership because neither their β-ball nor any smaller member
  // inside it changed.
  std::vector<VertexId> touched;
  std::vector<std::uint32_t> dist(n, std::numeric_limits<std::uint32_t>::max());
  const auto dominated_by_smaller = [&](VertexId v) {
    bool found = false;
    touched.clear();
    dist[v] = 0;
    touched.push_back(v);
    std::deque<VertexId> q{v};
    while (!q.empty() && !found) {
      const VertexId x = q.front();
      q.pop_front();
      if (dist[x] >= beta) continue;
      for (VertexId w : graph_.neighbors(x)) {
        if (dist[w] != std::numeric_limits<std::uint32_t>::max()) continue;
        dist[w] = dist[x] + 1;
        touched.push_back(w);
        if (w < v && in_set_[w]) {
          found = true;
          break;
        }
        q.push_back(w);
      }
    }
    for (VertexId w : touched) {
      dist[w] = std::numeric_limits<std::uint32_t>::max();
    }
    return found;
  };

  *pops = 0;
  while (!work.empty()) {
    const VertexId v = *work.begin();
    work.erase(work.begin());
    ++*pops;  // the watchdog's work measure for the cascade tier
    const bool keep = !dominated_by_smaller(v);
    if (keep == static_cast<bool>(in_set_[v])) continue;
    in_set_[v] = keep;
    // A membership flip at v can only change the rule for larger ids within
    // β of v; pops are ascending, so every such id is still ahead of us.
    const VertexId one[1] = {v};
    for (VertexId w : graph_.ball(one, beta)) {
      if (w > v) work.insert(w);
    }
  }

  std::vector<VertexId> out;
  out.reserve(set_.size());
  for (VertexId v = 0; v < n; ++v) {
    if (in_set_[v]) out.push_back(v);
  }
  return out;
}

void RulingSetService::certify_epoch(const Graph& snap,
                                     std::span<const VertexId> dirty_seeds,
                                     std::span<const VertexId> old_set,
                                     bool full, BatchReport& report) {
  const std::uint32_t beta = config_.options.beta;
  if (full) {
    const RulingSetCertificate cert =
        mpc::certify_ruling_set(snap, set_, beta, config_.options.mpc);
    if (!cert.valid()) {
      throw ServiceError("certification failed at epoch " +
                         std::to_string(epoch_ + 1) + ": " + cert.to_string());
    }
    if (!cross_validate_certificate(snap, set_, cert)) {
      throw ServiceError("certificate cross-validation failed at epoch " +
                         std::to_string(epoch_ + 1));
    }
    metrics_.certifications_full += 1;
    report.dirty_vertices = graph_.num_vertices();
    return;
  }
  // Region pass: the dirty region is the β-ball around the touched
  // endpoints plus every membership flip — outside it neither the graph nor
  // the set changed since the last certified epoch, so the previous
  // certificate's independence/domination witnesses still stand there.
  std::vector<VertexId> olds(old_set.begin(), old_set.end());
  std::vector<VertexId> news(set_.begin(), set_.end());
  std::sort(olds.begin(), olds.end());
  std::sort(news.begin(), news.end());
  std::vector<VertexId> dirty;
  std::set_symmetric_difference(olds.begin(), olds.end(), news.begin(),
                                news.end(), std::back_inserter(dirty));
  dirty.insert(dirty.end(), dirty_seeds.begin(), dirty_seeds.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const std::vector<VertexId> region = graph_.ball(dirty, beta);
  if (!region_valid(graph_, set_, beta, region)) {
    throw ServiceError("region certification failed at epoch " +
                       std::to_string(epoch_ + 1) + " (" +
                       std::to_string(region.size()) + " dirty vertices)");
  }
  metrics_.certifications_region += 1;
  report.dirty_vertices = region.size();
}

void RulingSetService::write_journal() {
  if (config_.journal_path.empty()) return;
  std::vector<std::uint8_t> bytes;
  mpc::SnapshotWriter w(bytes);
  w.u64(kJournalMagic);
  w.u64(kJournalVersion);
  w.str(algorithm_name(config_.options.algorithm));
  w.u64(config_.options.beta);
  w.u64(epoch_);
  w.u64(std::bit_cast<std::uint64_t>(churn_ewma_));
  w.u64(graph_.num_vertices());
  for (const auto& nbrs : graph_.adjacency()) w.vec(nbrs);
  w.vec(set_);
  w.u64(pending_.size());
  for (const EdgeUpdate& u : pending_) {
    w.u64(static_cast<std::uint64_t>(u.op));
    w.u64(u.u);
    w.u64(u.v);
  }
  // v2 liveness/ejection ledger: heartbeats persist like epoch_ (absolute
  // liveness position), the sealed flag records a watchdog fail-stop, and
  // tombstones name every producer the ingest front ejected.
  w.u64(metrics_.heartbeats);
  w.u64(sealed_ ? 1 : 0);
  w.u64(tombstones_.size());
  for (const ProducerTombstone& t : tombstones_) {
    w.u64(t.producer);
    w.u64(t.line);
    w.u64(t.strikes);
    w.str(t.reason);
  }
  w.u64(graph_.fingerprint());
  mpc::seal_checkpoint(bytes);
  try {
    mpc::write_sealed_file(bytes, config_.journal_path);
  } catch (const mpc::CheckpointError& e) {
    throw ServiceError(std::string("journal: ") + e.what());
  }
  metrics_.journal_writes += 1;
}

void RulingSetService::record_tombstone(const ProducerTombstone& tombstone) {
  if (sealed_) {
    throw ServiceError("service sealed by watchdog fail-stop at epoch " +
                       std::to_string(epoch_) + "; recover() to resume");
  }
  if (crash_hook) crash_hook("pre-tombstone");
  tombstones_.push_back(tombstone);
  metrics_.tombstones += 1;
  write_journal();
  if (crash_hook) crash_hook("tombstone-recorded");
}

QueryHandle RulingSetService::query() const {
  std::lock_guard<std::mutex> lock(*query_mu_);
  return query_handle_;
}

void RulingSetService::publish_snapshot(Graph graph) {
  // Built outside the lock; the critical section is one pointer swap, so a
  // concurrent reader never waits on snapshot construction.
  auto snapshot = std::make_shared<const QuerySnapshot>(
      epoch_, config_.options.beta, std::move(graph), set_);
  std::lock_guard<std::mutex> lock(*query_mu_);
  query_handle_ = std::move(snapshot);
}

RulingSetService RulingSetService::recover(ServiceConfig config) {
  if (config.journal_path.empty()) {
    throw ServiceError("recover: no journal_path configured");
  }
  const auto restore = [&config](const std::string& path) {
    const std::vector<std::uint8_t> bytes = read_journal_bytes(path);
    RulingSetService svc;
    svc.config_ = config;
    svc.last_options_ = config.options;
    try {
      mpc::SnapshotReader r(bytes.data(), bytes.size());
      if (r.u64() != kJournalMagic) {
        throw ServiceError("journal: bad magic in " + path);
      }
      const std::uint64_t version = r.u64();
      if (version != kJournalVersion) {
        throw ServiceError("journal: version " + std::to_string(version) +
                           " unsupported (this build reads only version " +
                           std::to_string(kJournalVersion) +
                           "; re-initialize the service) in " + path);
      }
      const std::string alg = r.str();
      if (alg != algorithm_name(config.options.algorithm)) {
        throw ServiceError("journal: written by algorithm '" + alg +
                           "', config wants '" +
                           algorithm_name(config.options.algorithm) + "'");
      }
      const std::uint64_t beta = r.u64();
      if (beta != config.options.beta) {
        throw ServiceError("journal: written with beta " +
                           std::to_string(beta) + ", config wants " +
                           std::to_string(config.options.beta));
      }
      svc.epoch_ = r.u64();
      svc.churn_ewma_ = std::bit_cast<double>(r.u64());
      const std::uint64_t n = r.u64();
      std::vector<std::vector<VertexId>> adjacency(n);
      for (std::uint64_t v = 0; v < n; ++v) r.vec(adjacency[v]);
      r.vec(svc.set_);
      const std::uint64_t npending = r.u64();
      svc.pending_.reserve(npending);
      for (std::uint64_t i = 0; i < npending; ++i) {
        const std::uint64_t op = r.u64();
        const std::uint64_t u = r.u64();
        const std::uint64_t v = r.u64();
        if (op > 1 || u >= n || v >= n) {
          throw ServiceError("journal: corrupt pending entry in " + path);
        }
        svc.pending_.push_back({static_cast<EdgeUpdate::Op>(op),
                                static_cast<VertexId>(u),
                                static_cast<VertexId>(v)});
      }
      svc.metrics_.heartbeats = r.u64();
      const bool was_sealed = r.u64() != 0;
      const std::uint64_t ntombstones = r.u64();
      svc.tombstones_.reserve(ntombstones);
      for (std::uint64_t i = 0; i < ntombstones; ++i) {
        ProducerTombstone t;
        t.producer = static_cast<std::uint32_t>(r.u64());
        t.line = r.u64();
        t.strikes = static_cast<std::uint32_t>(r.u64());
        t.reason = r.str();
        svc.tombstones_.push_back(std::move(t));
      }
      // recover() IS the operator's explicit un-seal: the fail-stop is
      // surfaced in the metrics ledger, and serving resumes.
      svc.metrics_.watchdog_failstops = was_sealed ? 1 : 0;
      svc.metrics_.tombstones = ntombstones;
      svc.sealed_ = false;
      const std::uint64_t fingerprint = r.u64();
      svc.graph_ = DynamicGraph(static_cast<VertexId>(n),
                                std::move(adjacency));
      if (svc.graph_.fingerprint() != fingerprint) {
        throw ServiceError("journal: graph fingerprint mismatch in " + path);
      }
      svc.in_set_.assign(svc.graph_.num_vertices(), false);
      for (VertexId v : svc.set_) {
        if (v >= svc.graph_.num_vertices()) {
          throw ServiceError("journal: set member out of range in " + path);
        }
        svc.in_set_[v] = true;
      }
    } catch (const mpc::CheckpointError& e) {
      throw ServiceError(std::string("journal: ") + e.what());
    } catch (const std::invalid_argument& e) {
      throw ServiceError(std::string("journal: ") + e.what());
    }
    // Metrics are per-process counters: a recovered service starts a fresh
    // ledger (epoch() and heartbeats alone carry absolute positions).
    svc.metrics_.recoveries = 1;
    svc.publish_snapshot(svc.graph_.snapshot());
    return svc;
  };
  try {
    return restore(config.journal_path);
  } catch (const ServiceError& primary) {
    // Same reject-and-fall-back policy as checkpoint reads: one corrupt
    // generation costs one epoch, not the service.
    try {
      return restore(config.journal_path + ".prev");
    } catch (const ServiceError&) {
      throw ServiceError(std::string(primary.what()) +
                         " (no usable .prev fallback)");
    }
  }
}

bool region_valid(const DynamicGraph& g, std::span<const VertexId> set,
                  std::uint32_t beta, std::span<const VertexId> region) {
  const VertexId n = g.num_vertices();
  std::vector<bool> in_set(n, false);
  for (VertexId v : set) {
    if (v >= n) return false;
    in_set[v] = true;
  }
  // Independence: every member inside the region gets its full neighbor
  // scan (the neighbor may be outside the region — a flip adjacent to an
  // untouched member is still caught, because the flip itself is dirty).
  for (VertexId v : region) {
    if (v >= n) return false;
    if (!in_set[v]) continue;
    for (VertexId w : g.neighbors(v)) {
      if (in_set[w]) return false;
    }
  }
  // Domination: multi-source BFS from the members of the β-hop fringe
  // around the region, restricted to the fringe. Complete for region
  // targets: every vertex on a ≤β-hop path ending inside the region is
  // itself within β of the region, hence inside the fringe.
  const std::vector<VertexId> fringe = g.ball(region, beta);
  std::vector<bool> in_fringe(n, false);
  for (VertexId v : fringe) in_fringe[v] = true;
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n, kUnreached);
  std::deque<VertexId> queue;
  for (VertexId v : fringe) {
    if (in_set[v]) {
      dist[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    if (dist[v] >= beta) continue;
    for (VertexId w : g.neighbors(v)) {
      if (!in_fringe[w] || dist[w] != kUnreached) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  for (VertexId v : region) {
    if (dist[v] > beta) return false;
  }
  return true;
}

}  // namespace rsets::serve
