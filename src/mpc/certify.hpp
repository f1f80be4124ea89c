// Certified execution: an in-model verification pass for ruling sets.
//
// certify_ruling_set replays nothing from the algorithm that produced the
// set — it re-derives validity through its own O(β)-round MPC computation:
//
//   1. Ingest: machine 0 holds the claimed set, screens out-of-range ids and
//      duplicates, and routes each valid member to its owner (1 round).
//   2. Independence by edge exchange: level-1 of the BFS below doubles as
//      the conflict check — every member announces coverage to its
//      neighbors' owners, and an announcement landing on another member is
//      one half of a conflicting edge (each edge is seen from both sides,
//      so the allreduced count is halved).
//   3. Domination by β-hop BFS: one announce round per level, with an
//      allreduce of newly-covered counts; the pass stops early once a level
//      covers nothing new.
//
// The resulting RulingSetCertificate commits to exact per-level counts, and
// graph/verify.cpp's cross_validate_certificate confirms every field with an
// independent sequential recomputation — the two implementations share no
// code, so agreement is evidence, not tautology.
#pragma once

#include <span>

#include "graph/graph.hpp"
#include "graph/verify.hpp"
#include "mpc/message.hpp"

namespace rsets::shard {
class ShardedSource;
struct IngestOptions;
}  // namespace rsets::shard

namespace rsets::mpc {

// Runs the certification pass on its own simulator built from `config`.
// The caller's trace/fault/deadline settings are ignored — certification is
// a clean-room pass — and the budget policy is forced to kDegrade so an
// undersized configuration degrades instead of aborting the audit.
RulingSetCertificate certify_ruling_set(const Graph& g,
                                        std::span<const VertexId> set,
                                        std::uint32_t beta,
                                        const MpcConfig& config);

// Builds the Graph with shard::build_shard_csr(src, ingest) and certifies
// on it. A caller that already holds the built Graph passes it to the
// overload above instead. perfbench/ calls this form; its sources change
// only together with the benchmark definition.
RulingSetCertificate certify_ruling_set(const shard::ShardedSource& src,
                                        const shard::IngestOptions& ingest,
                                        std::span<const VertexId> set,
                                        std::uint32_t beta,
                                        const MpcConfig& config);

}  // namespace rsets::mpc
