// Immutable serving snapshot: the lock-free read path of DESIGN.md §8.
//
// A ServingSnapshot is a frozen PositionService — a membership-epoch-
// tagged bundle of the engine's frozen corpus (core::EngineSnapshot),
// the slot/liveness table, and (optionally) the cached clustering. It
// answers every read query the mutable service answers, from any number
// of threads concurrently, with no locks and no coordination with the
// writer: everything it touches is immutable, and the only shared
// mutable state — the serving counters — is thread-sharded.
//
// Determinism contract: every query is bit-identical to the same query
// against the PositionService at the snapshot's membership epoch with
// the same `now`. The similarity layer holds by the engine-snapshot
// contract (same kernels, verbatim arrays); the serving layer holds
// because both answer through the same read path (read_path.hpp) over a
// ShardReader — the service's borrowed from its live members, this
// one's from the frozen copies.
//
// Liveness is filtered against the caller's `now` per query, exactly
// like the mutable path — a snapshot does not pin time, only
// membership. Cluster queries answer empty when the snapshot carries no
// clustering (see SnapshotConfig::clustering); they never compute one.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "core/engine_snapshot.hpp"
#include "service/position_service.hpp"
#include "service/shard_reader.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::service {

class ServingSnapshot {
 public:
  // --- provenance ---
  /// Membership epoch of the service state this snapshot froze.
  [[nodiscard]] std::uint64_t membership_epoch() const {
    return membership_epoch_;
  }
  /// Sim-time at which the snapshot was cut.
  [[nodiscard]] SimTime frozen_at() const { return frozen_at_; }
  /// The frozen similarity corpus backing every similarity answer.
  [[nodiscard]] const std::shared_ptr<const core::EngineSnapshot>& engine()
      const {
    return engine_;
  }
  /// Whether cluster queries can answer (a clustering was attached).
  [[nodiscard]] bool has_clustering() const { return clustering_ != nullptr; }
  /// Nodes known at freeze time (live or not).
  [[nodiscard]] std::size_t size() const { return nodes_->by_id.size(); }

  // --- identity probes (tests: structural sharing across republishes) ---
  [[nodiscard]] const void* nodes_identity() const { return nodes_.get(); }
  [[nodiscard]] const void* timestamps_identity() const {
    return when_.get();
  }
  [[nodiscard]] const void* counters_identity() const {
    return counters_.get();
  }

  // --- inspection ---
  [[nodiscard]] std::vector<std::string> live_nodes(SimTime now) const;

  // --- queries (each bit-identical to the PositionService method of
  // --- the same name at this snapshot's epoch) ---
  [[nodiscard]] std::vector<RankedNode> closest(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now) const;
  [[nodiscard]] std::vector<RankedNode> closest_any(const std::string& client,
                                                    std::size_t k,
                                                    SimTime now) const;
  [[nodiscard]] TieredAnswer closest_any_tiered(const std::string& client,
                                                std::size_t k,
                                                SimTime now) const;
  [[nodiscard]] TieredAnswer closest_tiered(
      const std::string& client, std::span<const std::string> candidates,
      std::size_t k, SimTime now) const;
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const;
  [[nodiscard]] std::vector<std::vector<RankedNode>> closest_batch(
      std::span<const std::string> clients,
      std::span<const std::string> candidates, std::size_t k, SimTime now,
      ThreadPool* pool = nullptr) const;
  /// External-query ranking (the snapshot twin of
  /// PositionService::top_k): live nodes ranked against a query map
  /// that has no corpus row.
  [[nodiscard]] std::vector<RankedNode> top_k(const core::RatioMap& query,
                                              std::size_t k,
                                              SimTime now) const;

  /// O(1) read access over the frozen members — what a sharded View
  /// gathers over (valid while the snapshot is held).
  [[nodiscard]] ShardReader reader() const;
  /// A node resident in this snapshot: its engine slot, its frozen
  /// corpus row and its freshness at `now`; nullopt when unknown here.
  using Resident = ShardReader::Resident;
  [[nodiscard]] std::optional<Resident> resident(const std::string& node_id,
                                                 SimTime now) const;

  /// Cluster queries: as the service's, but const (the clustering was
  /// computed — or not — at freeze time) and empty when no clustering
  /// is attached.
  [[nodiscard]] std::vector<std::string> same_cluster(
      const std::string& node_id, SimTime now) const;
  [[nodiscard]] std::unordered_map<std::string, std::size_t>
  cluster_assignment(SimTime now) const;
  [[nodiscard]] std::vector<std::string> diverse_set(
      std::size_t n, SimTime now, std::uint64_t seed = 0) const;

 private:
  friend class PositionService;
  ServingSnapshot() = default;

  ServiceConfig config_;  // frozen copy: liveness bounds, metric, policy
  std::uint64_t membership_epoch_ = 0;
  SimTime frozen_at_ = SimTime{-1};
  std::shared_ptr<const core::EngineSnapshot> engine_;
  /// Node table: slot-indexed ids ("" = tombstoned slot) plus the
  /// occupied slots sorted by id — find() binary-searches the index and
  /// live_nodes()/closest_any walk it (already in the contract's
  /// lexicographic order). Shared with every snapshot cut since the
  /// node *set* last changed (add, drop or reset); update-only churn
  /// never replaces it.
  std::shared_ptr<const NodeTable> nodes_;
  /// Slot-indexed report timestamps — what liveness filters against.
  /// Replaced by any freeze after an accepted report; shared otherwise.
  std::shared_ptr<const std::vector<SimTime>> when_;
  /// Attached clustering, or nullptr (cluster queries answer empty).
  std::shared_ptr<const core::Clustering> clustering_;
  /// Shared with the owning service: readers bump the same sharded
  /// counters stats() aggregates.
  std::shared_ptr<ServingCounters> counters_;
};

}  // namespace crp::service
