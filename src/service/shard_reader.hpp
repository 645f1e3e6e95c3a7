// One shard's read side: the per-shard primitives every closest-node
// query is built from (DESIGN.md §8-9).
//
// A ShardReader borrows, in O(1), everything a read needs from one
// shard's storage — the similarity corpus as an engine_detail::CorpusView
// (the same view through which SimilarityEngine and EngineSnapshot share
// one set of kernels), the node table, the slot-indexed report
// timestamps, the liveness bounds, the serving counters and the attached
// clustering. A PositionService lends its live members (valid until its
// next write; the single-writer contract keeps writes out of reads), a
// ServingSnapshot its frozen ones (valid while the snapshot is held).
// Either way the reader runs the same code, which is why a snapshot
// answers bit-identically to the service it froze.
//
// The queries themselves are written once, in read_path.hpp, as a
// gather over one or more readers; this class only knows one shard.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "core/clustering.hpp"
#include "core/engine_kernels.hpp"
#include "service/position_service.hpp"

namespace crp::service {

/// The one liveness policy (DESIGN.md §7): how old a report may be to
/// answer from the fresh tier, from the stale tier, or at all.
struct Liveness {
  Duration staleness_bound{0};
  Duration stale_usable_bound{0};

  explicit Liveness(const ServiceConfig& config)
      : staleness_bound(config.staleness_bound),
        stale_usable_bound(config.stale_usable_bound) {}

  [[nodiscard]] bool live(Duration age) const {
    return age <= staleness_bound;
  }
  /// Older than the staleness bound but within the stale tier. Always
  /// false when the stale tier is disabled (bound not past staleness).
  [[nodiscard]] bool stale_usable(Duration age) const {
    return stale_usable_bound > staleness_bound && age > staleness_bound &&
           age <= stale_usable_bound;
  }
  /// Age past which a report is useless even for degraded serving.
  [[nodiscard]] Duration usable_bound() const {
    return std::max(staleness_bound, stale_usable_bound);
  }
};

class ShardReader {
 public:
  static constexpr std::size_t npos = NodeTable::npos;

  ShardReader(core::engine_detail::CorpusView corpus, const NodeTable& nodes,
              std::span<const SimTime> when, Liveness liveness,
              ServingCounters& counters, const core::Clustering* clustering)
      : corpus_(corpus),
        nodes_(&nodes),
        when_(when),
        liveness_(liveness),
        counters_(&counters),
        clustering_(clustering) {}

  [[nodiscard]] const Liveness& liveness() const { return liveness_; }
  /// Resident nodes live at `now`, in lexicographic order.
  [[nodiscard]] std::vector<std::string> live_nodes(SimTime now) const;

  /// A node resident here: its slot, its corpus row (valid as long as
  /// the reader's storage is) and its freshness at `now`.
  struct Resident {
    std::size_t slot = npos;
    core::RowView row;
    bool live = false;
    bool stale_usable = false;
  };
  /// nullopt when `node_id` is not resident here.
  [[nodiscard]] std::optional<Resident> resident(const std::string& node_id,
                                                 SimTime now) const;

  /// Slots of the `candidates` resident here and usable at `now` (live,
  /// or stale-usable when `stale_band`), in caller order, duplicates
  /// kept. The client is not excluded here: ranking skips its slot.
  [[nodiscard]] std::vector<std::size_t> vet(
      std::span<const std::string* const> candidates, bool stale_band,
      SimTime now) const;
  /// Every resident node usable at `now`, in id order.
  [[nodiscard]] std::vector<std::size_t> usable(bool stale_band,
                                                SimTime now) const;

  /// Rank-all: every usable node but `exclude` (the client's own slot
  /// on its owning shard, else npos) ranked against the client's row.
  [[nodiscard]] std::vector<RankedNode> rank_all(const core::RowView& client,
                                                 std::size_t exclude,
                                                 bool stale_band,
                                                 std::size_t k,
                                                 SimTime now) const;
  /// Rank-candidates: the vetted `slots` (see vet) but `exclude`.
  [[nodiscard]] std::vector<RankedNode> rank_candidates(
      const core::RowView& client, std::size_t exclude,
      std::span<const std::size_t> slots, std::size_t k) const;
  /// Rank-external-query: live nodes against a map with no corpus row.
  [[nodiscard]] std::vector<RankedNode> rank_query(const core::RatioMap& query,
                                                   std::size_t k,
                                                   SimTime now) const;

  /// One client of a batch: its row plus where it lives, so each shard
  /// excludes it iff it owns it.
  struct BatchClient {
    core::RowView row;
    std::size_t owner = 0;  // owning shard index
    std::size_t slot = npos;  // the client's slot on its owner
  };
  /// Batch rank: every client against the one vetted `slots` list this
  /// shard (index `self`) shares across the batch — all usable nodes
  /// when `all_nodes`, else vetted candidates. Result i pairs with
  /// clients[i]; each is the scalar rank_all/rank_candidates answer.
  [[nodiscard]] std::vector<std::vector<RankedNode>> rank_batch(
      std::span<const BatchClient> clients, std::size_t self,
      std::span<const std::size_t> slots, bool all_nodes,
      std::size_t k) const;

  // --- §IV.B cluster queries over the attached clustering (empty when
  // --- none is attached); stale members are filtered at answer time ---
  [[nodiscard]] std::vector<std::string> same_cluster(
      const std::string& node_id, SimTime now) const;
  [[nodiscard]] std::unordered_map<std::string, std::size_t>
  cluster_assignment(SimTime now) const;
  [[nodiscard]] std::vector<std::string> diverse_set(std::size_t n,
                                                     SimTime now,
                                                     std::uint64_t seed) const;

  /// Outcome accounting, bumped once per query on the shard owning the
  /// client; the similarity work counts on whichever shard does it.
  void count_queries(std::uint64_t n = 1) const {
    counters_->queries_served.add(n);
  }
  void count_outcome(AnswerTier tier) const;

 private:
  [[nodiscard]] Duration age(std::size_t slot, SimTime now) const {
    return now - when_[slot];
  }
  [[nodiscard]] bool usable_at(std::size_t slot, bool stale_band,
                               SimTime now) const {
    return liveness_.live(age(slot, now)) ||
           (stale_band && liveness_.stale_usable(age(slot, now)));
  }
  /// One engine query for `client`, counted: over `subset` only, or
  /// over the whole corpus (indexed by slot) when `subset` is empty.
  void score(const core::RowView& client, std::span<const std::size_t> subset,
             std::vector<double>& scores) const;
  /// Ranks `slots` but `exclude` under the (similarity desc, id asc)
  /// total order, scoring them — dense when `dense`, else as a subset —
  /// iff some slot survives the exclusion. `scores` is a buffer reused
  /// across the calls of a batch.
  [[nodiscard]] std::vector<RankedNode> rank(const core::RowView& client,
                                             std::size_t exclude,
                                             std::span<const std::size_t> slots,
                                             bool dense, std::size_t k,
                                             std::vector<double>& scores) const;

  core::engine_detail::CorpusView corpus_;
  const NodeTable* nodes_;
  std::span<const SimTime> when_;
  Liveness liveness_;
  ServingCounters* counters_;
  const core::Clustering* clustering_;  // nullptr: cluster queries empty
};

}  // namespace crp::service
