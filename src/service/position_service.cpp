#include "service/position_service.hpp"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.hpp"
#include "service/read_path.hpp"
#include "service/serving_snapshot.hpp"
#include "service/shard_reader.hpp"

namespace crp::service {

const char* to_string(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kFresh:
      return "fresh";
    case AnswerTier::kStale:
      return "stale";
    case AnswerTier::kRefused:
      return "refused";
  }
  return "?";
}

const char* to_string(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone:
      return "none";
    case DegradedReason::kUnknownClient:
      return "unknown-client";
    case DegradedReason::kClientExpired:
      return "client-expired";
    case DegradedReason::kStaleClient:
      return "stale-client";
    case DegradedReason::kNoUsableCandidates:
      return "no-usable-candidates";
    case DegradedReason::kStaleShard:
      return "stale-shard";
    case DegradedReason::kShardUnavailable:
      return "shard-unavailable";
  }
  return "?";
}

ServiceStats& ServiceStats::operator+=(const ServiceStats& other) {
  queries_served += other.queries_served;
  reports_accepted += other.reports_accepted;
  reports_rejected += other.reports_rejected;
  clustering_cache_hits += other.clustering_cache_hits;
  engine_rebuilds_avoided += other.engine_rebuilds_avoided;
  postings_tombstoned += other.postings_tombstoned;
  compactions += other.compactions;
  similarity_queries += other.similarity_queries;
  maps_touched += other.maps_touched;
  reclusters += other.reclusters;
  recluster_seconds += other.recluster_seconds;
  recluster_maps_touched += other.recluster_maps_touched;
  fresh_answers += other.fresh_answers;
  stale_answers += other.stale_answers;
  refused_queries += other.refused_queries;
  routing_rejected += other.routing_rejected;
  snapshot_bytes_copied += other.snapshot_bytes_copied;
  // Lag is a level, not a flow: a fleet is as far behind as its worst
  // shard, so aggregation takes the max instead of summing.
  epoch_lag_last = std::max(epoch_lag_last, other.epoch_lag_last);
  epoch_lag_max = std::max(epoch_lag_max, other.epoch_lag_max);
  return *this;
}

ServiceStats aggregate_stats(std::span<const ServiceStats> per_shard) {
  ServiceStats total;
  for (const ServiceStats& s : per_shard) total += s;
  return total;
}

namespace {

/// First entry of a by-id index whose id is not less than `id`.
template <typename Index>
auto lower_bound_id(Index& by_id, const std::vector<std::string>& ids,
                    const std::string& id) {
  return std::lower_bound(by_id.begin(), by_id.end(), id,
                          [&ids](std::uint32_t slot, const std::string& key) {
                            return ids[slot] < key;
                          });
}

}  // namespace

std::size_t NodeTable::find(const std::string& id) const {
  const auto it = lower_bound_id(by_id, ids, id);
  if (it == by_id.end() || ids[*it] != id) return npos;
  return *it;
}

void NodeTable::insert(std::size_t slot, const std::string& id) {
  if (slot == ids.size()) {
    ids.push_back(id);
  } else {
    ids[slot] = id;
  }
  by_id.insert(lower_bound_id(by_id, ids, id),
               static_cast<std::uint32_t>(slot));
}

void NodeTable::erase(std::size_t slot) {
  by_id.erase(lower_bound_id(by_id, ids, ids[slot]));
  ids[slot].clear();
}

void NodeTable::clear() {
  ids.clear();
  by_id.clear();
}

std::uint64_t NodeTable::copy_bytes() const {
  std::uint64_t bytes = ids.size() * sizeof(std::string) +
                        by_id.size() * sizeof(std::uint32_t);
  for (const std::string& id : ids) bytes += id.size();
  return bytes;
}

PositionService::PositionService(ServiceConfig config)
    : config_(config), engine_(config.metric) {
  // One engine serves both selection and clustering, so a single metric
  // governs both query families.
  config_.clustering.metric = config_.metric;
}

ShardReader PositionService::reader() const {
  return ShardReader{engine_.view(), nodes_,         when_,
                     Liveness{config_}, *counters_, clustering_.get()};
}

void PositionService::sync_engine_stats() {
  // The engine's counters restart from zero when reset() clears it; the
  // baselines hold everything counted before the wipe, keeping the
  // published totals monotonic across a crash.
  const auto& engine = engine_.mutation_stats();
  postings_tombstoned_.store(tombstoned_base_ + engine.postings_tombstoned,
                             std::memory_order_relaxed);
  compactions_.store(compactions_base_ + engine.compactions,
                     std::memory_order_relaxed);
  snapshot_bytes_copied_.store(
      freeze_bytes_base_ + engine.snapshot_bytes_copied + node_bytes_copied_,
      std::memory_order_relaxed);
}

bool PositionService::publish_impl(PositionReport report, SimTime now) {
  if (now > write_now_) write_now_ = now;
  if (report.node_id.empty() || report.map.empty() ||
      !Liveness{config_}.live(now - report.when) || report.when > now) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto it = reports_.find(report.node_id);
  if (it != reports_.end() && it->second.report.when > report.when) {
    // out-of-order delivery of an older report
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (it != reports_.end()) {
    const std::size_t slot = it->second.slot;
    engine_.update(slot, report.map);
    when_[slot] = report.when;
    it->second.report = std::move(report);
  } else {
    const std::size_t slot = engine_.add(report.map);
    nodes_.insert(slot, report.node_id);  // may reuse a tombstoned slot
    if (slot == when_.size()) when_.emplace_back();
    when_[slot] = report.when;
    ++nodes_version_;
    std::string id = report.node_id;
    reports_.emplace(std::move(id), Stored{std::move(report), slot});
  }
  ++when_version_;
  sync_engine_stats();
  reports_accepted_.fetch_add(1, std::memory_order_relaxed);
  ++membership_epoch_;
  return true;
}

bool PositionService::publish(PositionReport report, SimTime now) {
  const bool accepted = publish_impl(std::move(report), now);
  maybe_publish_snapshot(now);
  return accepted;
}

bool PositionService::publish_encoded(std::string_view bytes, SimTime now) {
  auto report = decode(bytes);
  if (!report.has_value()) {
    reports_rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return publish(std::move(*report), now);
}

std::size_t PositionService::publish_batch(std::span<const std::string> batch,
                                           SimTime now, ThreadPool* pool) {
  // Amortized wire handling: decoding is pure, so it fans out across the
  // pool into per-index slots; the engine mutations then apply
  // sequentially in batch order, so the end state — acceptances,
  // rejections, slot assignments — is identical to calling
  // publish_encoded element by element. A malformed entry costs its own
  // rejection and nothing else. The snapshot boundary check runs once
  // for the whole batch, after the last report applied.
  std::vector<std::optional<PositionReport>> decoded(batch.size());
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, batch.size(), [&batch, &decoded](std::size_t i) {
    decoded[i] = decode(batch[i]);
  });
  std::size_t accepted = 0;
  for (auto& report : decoded) {
    if (!report.has_value()) {
      reports_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (publish_impl(std::move(*report), now)) ++accepted;
  }
  maybe_publish_snapshot(now);
  return accepted;
}

bool PositionService::drop_node(const std::string& node_id) {
  const auto it = reports_.find(node_id);
  // Unknown id: membership is unchanged, so the cached clustering stays
  // valid — bumping the epoch here would force a needless recluster.
  if (it == reports_.end()) return false;
  const std::size_t slot = it->second.slot;
  engine_.remove(slot);
  nodes_.erase(slot);
  ++nodes_version_;
  reports_.erase(it);
  sync_engine_stats();
  ++membership_epoch_;
  return true;
}

void PositionService::reset(SimTime now) {
  if (now > write_now_) write_now_ = now;
  // Fold the doomed engine's mutation counters into the baselines
  // before the wipe — clear() restarts them from zero.
  const auto& engine = engine_.mutation_stats();
  tombstoned_base_ += engine.postings_tombstoned;
  compactions_base_ += engine.compactions;
  freeze_bytes_base_ += engine.snapshot_bytes_copied;
  reports_.clear();
  nodes_.clear();
  when_.clear();
  ++nodes_version_;
  ++when_version_;
  engine_.clear(config_.metric);
  // Fresh generation, not a mutation: snapshots holding the pre-crash
  // clustering keep it alive untouched.
  clustering_ = std::make_shared<const core::Clustering>();
  clustered_at_ = SimTime{-1};
  clustered_epoch_ = ~0ULL;
  sync_engine_stats();
  // One bump for the whole wipe: the epoch stays monotonic, so readers
  // comparing epoch vectors see the crash as ordinary churn.
  ++membership_epoch_;
  publish_snapshot(now);
}

bool PositionService::remove(const std::string& node_id) {
  const bool dropped = drop_node(node_id);
  // remove() carries no timestamp, so the boundary check runs at the
  // write clock's high-water mark.
  maybe_publish_snapshot(write_now_);
  return dropped;
}

std::optional<core::RatioMap> PositionService::map_of(
    const std::string& node_id) const {
  const auto it = reports_.find(node_id);
  if (it == reports_.end()) return std::nullopt;
  return it->second.report.map;
}

std::optional<PositionReport> PositionService::report_of(
    const std::string& node_id) const {
  const auto it = reports_.find(node_id);
  if (it == reports_.end()) return std::nullopt;
  return it->second.report;
}

std::vector<std::string> PositionService::live_nodes(SimTime now) const {
  return Gather(reader()).live_nodes(now);
}

std::vector<RankedNode> PositionService::closest(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return Gather(reader()).closest(client, candidates, k, now, nullptr);
}

std::vector<RankedNode> PositionService::closest_any(
    const std::string& client, std::size_t k, SimTime now) const {
  return Gather(reader()).closest_any(client, k, now, nullptr);
}

std::vector<RankedNode> PositionService::top_k(const core::RatioMap& query,
                                               std::size_t k,
                                               SimTime now) const {
  return Gather(reader()).top_k(query, k, now, nullptr);
}

TieredAnswer PositionService::closest_any_tiered(const std::string& client,
                                                 std::size_t k,
                                                 SimTime now) const {
  return Gather(reader()).closest_any_tiered(client, k, now, nullptr);
}

TieredAnswer PositionService::closest_tiered(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return Gather(reader()).closest_tiered(client, candidates, k, now, nullptr);
}

std::vector<std::vector<RankedNode>> PositionService::closest_batch(
    std::span<const std::string> clients, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return Gather(reader()).closest_batch(clients, k, now, pool);
}

std::vector<std::vector<RankedNode>> PositionService::closest_batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return Gather(reader()).closest_batch(clients, candidates, k, now, pool);
}

void PositionService::ensure_clustering(SimTime now) {
  const bool fresh = clustered_epoch_ == membership_epoch_ &&
                     clustered_at_ >= SimTime::epoch() &&
                     now - clustered_at_ <= config_.recluster_after;
  if (fresh) {
    clustering_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // SMF runs straight off the engine's corpus — no per-recluster map
  // copies, no fresh engine build — through the long-lived clusterer,
  // whose center index (and its allocations) survives across rebuilds.
  // Tombstoned rows score 0 against everything and end up as singletons
  // the answers skip. The result lands in a fresh shared_ptr generation:
  // snapshots holding the previous one keep it alive, unmutated.
  const auto start = std::chrono::steady_clock::now();
  clustering_ = std::make_shared<const core::Clustering>(
      clusterer_.run(engine_, config_.clustering));
  recluster_nanos_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  reclusters_.fetch_add(1, std::memory_order_relaxed);
  recluster_maps_touched_.fetch_add(clusterer_.last_stats().maps_touched,
                                    std::memory_order_relaxed);
  engine_rebuilds_avoided_.fetch_add(1, std::memory_order_relaxed);
  clustered_at_ = now;
  clustered_epoch_ = membership_epoch_;
}

std::vector<std::string> PositionService::same_cluster(
    const std::string& node_id, SimTime now) {
  // Only a live node's query may refresh the clustering: an unknown or
  // stale one answers empty without touching the cache.
  const auto res = reader().resident(node_id, now);
  if (res.has_value() && res->live) ensure_clustering(now);
  return reader().same_cluster(node_id, now);
}

std::unordered_map<std::string, std::size_t>
PositionService::cluster_assignment(SimTime now) {
  ensure_clustering(now);
  return reader().cluster_assignment(now);
}

std::vector<std::string> PositionService::diverse_set(std::size_t n,
                                                      SimTime now,
                                                      std::uint64_t seed) {
  ensure_clustering(now);
  return reader().diverse_set(n, now, seed);
}

std::shared_ptr<const ServingSnapshot> PositionService::publish_snapshot(
    SimTime now) {
  if (now > write_now_) write_now_ = now;
  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->config_ = config_;
  snap->membership_epoch_ = membership_epoch_;
  snap->frozen_at_ = now;
  snap->engine_ = engine_.freeze(membership_epoch_);
  // The node table and the timestamp array are shared with the previous
  // freeze while their versions hold: update-only churn moves only
  // timestamps (one flat copy), and a clean republish copies nothing.
  // When the node set did change, the writer's incrementally maintained
  // table is copied as is — no re-sort, no per-slot report lookups.
  if (frozen_nodes_ == nullptr || frozen_nodes_version_ != nodes_version_) {
    frozen_nodes_ = std::make_shared<const NodeTable>(nodes_);
    frozen_nodes_version_ = nodes_version_;
    node_bytes_copied_ += nodes_.copy_bytes();
  }
  if (frozen_when_ == nullptr || frozen_when_version_ != when_version_) {
    frozen_when_ = std::make_shared<const std::vector<SimTime>>(when_);
    frozen_when_version_ = when_version_;
    node_bytes_copied_ += when_.size() * sizeof(SimTime);
  }
  snap->nodes_ = frozen_nodes_;
  snap->when_ = frozen_when_;
  sync_engine_stats();
  if (config_.snapshots.clustering) {
    ensure_clustering(now);
    snap->clustering_ = clustering_;
  } else if (clustered_epoch_ == membership_epoch_ &&
             clustered_at_ >= SimTime::epoch() &&
             now - clustered_at_ <= config_.recluster_after) {
    // Not asked to cluster, but the cache happens to be current —
    // attaching the shared generation costs nothing and lets snapshot
    // cluster queries answer.
    snap->clustering_ = clustering_;
  }
  snap->counters_ = counters_;
  snapshot_epoch_ = membership_epoch_;
  snapshot_at_ = now;
  std::shared_ptr<const ServingSnapshot> published = std::move(snap);
  snapshot_.store(published);
  note_epoch_lag();
  return published;
}

void PositionService::note_epoch_lag() {
  const std::uint64_t lag = membership_epoch_ - snapshot_epoch_;
  epoch_lag_last_.store(lag, std::memory_order_relaxed);
  if (lag > epoch_lag_max_.load(std::memory_order_relaxed)) {
    epoch_lag_max_.store(lag, std::memory_order_relaxed);
  }
}

void PositionService::maybe_publish_snapshot(SimTime now) {
  if (!config_.snapshots.enabled) return;
  if (now < write_now_) now = write_now_;
  if (snapshot_at_ < SimTime::epoch()) {  // nothing published yet
    publish_snapshot(now);
    return;
  }
  const std::uint64_t max_lag =
      std::max<std::uint64_t>(config_.snapshots.max_epoch_lag, 1);
  if (membership_epoch_ - snapshot_epoch_ >= max_lag ||
      now - snapshot_at_ >= config_.snapshots.max_age) {
    publish_snapshot(now);
  } else {
    // Chose not to republish — record how far behind the published
    // snapshot is (publish_snapshot records its own zero-lag point).
    note_epoch_lag();
  }
}

std::size_t PositionService::expire(SimTime now) {
  if (now > write_now_) write_now_ = now;
  // With the stale tier enabled, reports in the stale-but-usable band
  // survive expiry — they still serve degraded answers. The bound
  // collapses to staleness_bound when the tier is off.
  const Duration bound = Liveness{config_}.usable_bound();
  std::vector<std::string> stale;
  for (const auto& [id, stored] : reports_) {
    if (now - stored.report.when > bound) stale.push_back(id);
  }
  std::size_t dropped = 0;
  for (const std::string& id : stale) {
    if (drop_node(id)) ++dropped;
  }
  maybe_publish_snapshot(now);
  return dropped;
}

ServiceStats PositionService::stats() const {
  ServiceStats s;
  s.queries_served = counters_->queries_served.total();
  s.reports_accepted = reports_accepted_.load(std::memory_order_relaxed);
  s.reports_rejected = reports_rejected_.load(std::memory_order_relaxed);
  s.clustering_cache_hits =
      clustering_cache_hits_.load(std::memory_order_relaxed);
  s.engine_rebuilds_avoided =
      engine_rebuilds_avoided_.load(std::memory_order_relaxed);
  s.postings_tombstoned = postings_tombstoned_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.snapshot_bytes_copied =
      snapshot_bytes_copied_.load(std::memory_order_relaxed);
  s.similarity_queries = counters_->similarity_queries.total();
  s.maps_touched = counters_->maps_touched.total();
  s.reclusters = reclusters_.load(std::memory_order_relaxed);
  s.recluster_seconds =
      static_cast<double>(recluster_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  s.recluster_maps_touched =
      recluster_maps_touched_.load(std::memory_order_relaxed);
  s.fresh_answers = counters_->fresh_answers.total();
  s.stale_answers = counters_->stale_answers.total();
  s.refused_queries = counters_->refused_queries.total();
  s.epoch_lag_last = epoch_lag_last_.load(std::memory_order_relaxed);
  s.epoch_lag_max = epoch_lag_max_.load(std::memory_order_relaxed);
  // routing_rejected stays 0 here: only the sharded front-end routes.
  return s;
}

}  // namespace crp::service
