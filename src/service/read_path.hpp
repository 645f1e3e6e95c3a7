// The one read path: every closest-node query (§IV.A) written once, as a
// rank-then-merge gather over one or more shard readers (DESIGN.md §9).
//
// The client's row comes from its owning shard (shard_index), every
// answering shard ranks its own partition against that row, and the
// partials merge under the (similarity desc, id asc) total order. Row
// queries renormalize nothing and pairwise similarity depends only on
// the two rows involved, so each partial score is bit-identical to an
// unsharded engine's; under a total order the global top-k is a subset
// of the union of per-shard top-k's, so the merge is exact. An
// unsharded PositionService or a ServingSnapshot is the n = 1 case of
// the same code, not a separate implementation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "core/ratio_map.hpp"
#include "service/position_service.hpp"
#include "service/shard_reader.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::service {

/// Owning shard of `node_id` among `shard_count`: stable_hash(id) %
/// shards (0 at one shard). Pure — every router agrees without talking.
[[nodiscard]] std::size_t shard_index(std::string_view node_id,
                                      std::size_t shard_count);

/// Per-shard completeness of a gathered answer: which shards actually
/// contributed, and on what terms. The reader's contract: `complete()`
/// and no stale flags = the answer is exactly the healthy frontend's;
/// stale flags = complete but shards {i} answered from their last-known
/// fallback snapshot; `missing_shards` nonempty = partial (those
/// partitions are invisible to this answer).
struct ShardCompleteness {
  /// Shards that contributed (fresh or via stale fallback).
  std::size_t shards_answered = 0;
  /// Shards excluded entirely (failed, fallback older than the usable
  /// bound), ascending.
  std::vector<std::size_t> missing_shards;
  /// stale_shards[s]: shard s answered from a failed shard's fallback
  /// snapshot (one flag per shard, parallel to the epoch vector).
  std::vector<bool> stale_shards;

  /// Every one of `shards` answers, none stale — a healthy capture.
  [[nodiscard]] static ShardCompleteness all(std::size_t shards);
  [[nodiscard]] bool complete() const { return missing_shards.empty(); }
  [[nodiscard]] bool missing(std::size_t shard) const;
  [[nodiscard]] bool any_stale() const;
};

/// The queries over a span of shard readers (the shard count is the
/// span's size). Borrows the span: use it within the full-expression
/// that built it. `pool` drives the scatter (nullptr = the shared pool;
/// one shard never touches it); answers are pool-size-independent.
class Gather {
 public:
  explicit Gather(std::span<const ShardReader> shards) : shards_(shards) {}
  explicit Gather(const ShardReader& shard) : shards_(&shard, 1) {}

  /// Union of the shards' live nodes, lexicographic.
  [[nodiscard]] std::vector<std::string> live_nodes(SimTime now) const;

  // Plain queries: the tiered core's fresh tier (empty otherwise).
  [[nodiscard]] std::vector<RankedNode> closest(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now, ThreadPool* pool) const;
  [[nodiscard]] std::vector<RankedNode> closest_any(const std::string& client,
                                                    std::size_t k, SimTime now,
                                                    ThreadPool* pool) const;
  /// External-query ranking: live nodes against a map with no row.
  [[nodiscard]] std::vector<RankedNode> top_k(const core::RatioMap& query,
                                              std::size_t k, SimTime now,
                                              ThreadPool* pool) const;

  // Tiered queries (DESIGN.md §7) over a healthy capture.
  [[nodiscard]] TieredAnswer closest_tiered(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now, ThreadPool* pool) const;
  [[nodiscard]] TieredAnswer closest_any_tiered(const std::string& client,
                                                std::size_t k, SimTime now,
                                                ThreadPool* pool) const;
  /// The tiered core under `completeness`, with its outcome counted on
  /// the client's owning shard: stale-fallback shards widen to the
  /// stale band, missing shards contribute nothing, and a client whose
  /// owning shard is missing refuses with kShardUnavailable. `any`
  /// ranks every usable node, else `candidates`.
  [[nodiscard]] TieredAnswer tiered(const std::string& client,
                                    std::span<const std::string> candidates,
                                    bool any, std::size_t k, SimTime now,
                                    const ShardCompleteness& completeness,
                                    ThreadPool* pool) const;

  // Batched queries: result i is bit-identical to closest_any /
  // closest for clients[i].
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients, std::size_t k, SimTime now,
      ThreadPool* pool) const;
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients,
      std::span<const std::string> candidates, std::size_t k, SimTime now,
      ThreadPool* pool) const;

 private:
  /// The tiered core, outcome uncounted. `stale_tier` false refuses a
  /// client that is not fresh before any ranking (the plain queries).
  [[nodiscard]] TieredAnswer answer(const std::string& client,
                                    std::span<const std::string> candidates,
                                    bool any, std::size_t k, SimTime now,
                                    const ShardCompleteness& completeness,
                                    bool stale_tier, ThreadPool* pool) const;
  /// The batch core: one vetting pass per shard, then the scalar rank
  /// per client, split into (shard x client-chunk) tasks.
  [[nodiscard]] std::vector<std::vector<RankedNode>> batch(
      std::span<const std::string> clients,
      std::span<const std::string> candidates, bool any, std::size_t k,
      SimTime now, ThreadPool* pool) const;
  /// Routes each candidate to its owning shard, caller order kept per
  /// shard. A node is resident only on its owner, so vetting shard s's
  /// list alone finds what searching every candidate on s would.
  [[nodiscard]] std::vector<std::vector<const std::string*>> route(
      std::span<const std::string> candidates) const;

  std::span<const ShardReader> shards_;
};

}  // namespace crp::service
