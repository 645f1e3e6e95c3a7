#include "service/read_path.hpp"

#include <algorithm>
#include <iterator>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/top_k.hpp"
#include "service/serving_detail.hpp"

namespace crp::service {

using serving_detail::ScoredRef;

namespace {

/// Runs body(s) for every shard: inline at one shard, else across
/// `pool` (nullptr = the shared pool). Each body writes only slot s.
template <typename Body>
void scatter(std::size_t shards, ThreadPool* pool, const Body& body) {
  if (shards == 1) {
    body(0);
    return;
  }
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, shards, body);
}

/// Merges per-shard top-k partials into the global top-k. Correctness
/// rests on the total order: any node in the global top-k beats all but
/// fewer than k others, so in particular fewer than k within its own
/// shard — it is in its shard's partial. The merge therefore never
/// misses a winner, and the order makes the result offer-order- (hence
/// shard-count-) independent. A lone partial already is the answer.
std::vector<RankedNode> merge(std::span<std::vector<RankedNode>> partials,
                              std::size_t k) {
  if (partials.size() == 1) return std::move(partials[0]);
  BoundedTopK<ScoredRef, serving_detail::BetterRef> heap(k, {});
  for (const std::vector<RankedNode>& partial : partials) {
    for (const RankedNode& node : partial) {
      heap.offer(ScoredRef{&node.node_id, node.similarity});
    }
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

}  // namespace

std::size_t shard_index(std::string_view node_id, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(stable_hash(node_id) % shard_count);
}

ShardCompleteness ShardCompleteness::all(std::size_t shards) {
  ShardCompleteness c;
  c.shards_answered = shards;
  c.stale_shards.assign(shards, false);
  return c;
}

bool ShardCompleteness::missing(std::size_t shard) const {
  return std::binary_search(missing_shards.begin(), missing_shards.end(),
                            shard);
}

bool ShardCompleteness::any_stale() const {
  return std::find(stale_shards.begin(), stale_shards.end(), true) !=
         stale_shards.end();
}

std::vector<std::string> Gather::live_nodes(SimTime now) const {
  // Disjoint partitions, each sorted: merging keeps the union sorted.
  std::vector<std::string> merged;
  for (const ShardReader& shard : shards_) {
    std::vector<std::string> part = shard.live_nodes(now);
    const auto mid = static_cast<std::ptrdiff_t>(merged.size());
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    std::inplace_merge(merged.begin(), merged.begin() + mid, merged.end());
  }
  return merged;
}

std::vector<std::vector<const std::string*>> Gather::route(
    std::span<const std::string> candidates) const {
  std::vector<std::vector<const std::string*>> routed(shards_.size());
  for (const std::string& candidate : candidates) {
    routed[shard_index(candidate, shards_.size())].push_back(&candidate);
  }
  return routed;
}

TieredAnswer Gather::answer(const std::string& client,
                            std::span<const std::string> candidates, bool any,
                            std::size_t k, SimTime now,
                            const ShardCompleteness& completeness,
                            bool stale_tier, ThreadPool* pool) const {
  const std::size_t n = shards_.size();
  const std::size_t owner = shard_index(client, n);
  shards_[owner].count_queries();
  TieredAnswer out;
  if (completeness.missing(owner)) {
    // Nothing left that knows the client: its shard is down and the
    // fallback aged out. Typed refusal, not an empty vector — the
    // caller can tell "retry after recovery" from "node gone".
    out.reason = DegradedReason::kShardUnavailable;
    return out;
  }
  const auto res = shards_[owner].resident(client, now);
  if (!res.has_value()) {
    out.reason = DegradedReason::kUnknownClient;
    return out;
  }
  const bool fresh = res->live;
  if (!fresh && !(stale_tier && res->stale_usable)) {
    out.reason = DegradedReason::kClientExpired;
    return out;
  }
  // Scatter over the answering shards. A stale client — or a stale-
  // fallback shard, whose stale-but-usable reports are the whole point
  // of serving it — widens to the stale band; the client is excluded
  // only on the shard that owns it (slots are per shard).
  std::vector<std::vector<const std::string*>> routed;
  if (!any) routed = route(candidates);
  std::vector<std::vector<RankedNode>> partials(n);
  scatter(n, pool, [&](std::size_t s) {
    if (completeness.missing(s)) return;
    const bool stale_band = !fresh || completeness.stale_shards[s];
    const std::size_t exclude = s == owner ? res->slot : ShardReader::npos;
    const ShardReader& shard = shards_[s];
    partials[s] =
        any ? shard.rank_all(res->row, exclude, stale_band, k, now)
            : shard.rank_candidates(res->row, exclude,
                                    shard.vet(routed[s], stale_band, now), k);
  });
  out.ranked = merge(partials, k);
  if (out.ranked.empty()) {
    // Nothing usable to rank against: refuse explicitly rather than
    // hand back an empty vector indistinguishable from "client gone".
    out.reason = DegradedReason::kNoUsableCandidates;
  } else if (!fresh) {
    out.tier = AnswerTier::kStale;
    out.reason = DegradedReason::kStaleClient;
  } else if (completeness.any_stale()) {
    out.tier = AnswerTier::kStale;
    out.reason = DegradedReason::kStaleShard;
  } else {
    out.tier = AnswerTier::kFresh;
  }
  return out;
}

TieredAnswer Gather::tiered(const std::string& client,
                            std::span<const std::string> candidates, bool any,
                            std::size_t k, SimTime now,
                            const ShardCompleteness& completeness,
                            ThreadPool* pool) const {
  TieredAnswer out = answer(client, candidates, any, k, now, completeness,
                            /*stale_tier=*/true, pool);
  shards_[shard_index(client, shards_.size())].count_outcome(out.tier);
  return out;
}

std::vector<RankedNode> Gather::closest(const std::string& client,
                                        std::span<const std::string> candidates,
                                        std::size_t k, SimTime now,
                                        ThreadPool* pool) const {
  return answer(client, candidates, /*any=*/false, k, now,
                ShardCompleteness::all(shards_.size()), /*stale_tier=*/false,
                pool)
      .ranked;
}

std::vector<RankedNode> Gather::closest_any(const std::string& client,
                                            std::size_t k, SimTime now,
                                            ThreadPool* pool) const {
  return answer(client, {}, /*any=*/true, k, now,
                ShardCompleteness::all(shards_.size()), /*stale_tier=*/false,
                pool)
      .ranked;
}

TieredAnswer Gather::closest_tiered(const std::string& client,
                                    std::span<const std::string> candidates,
                                    std::size_t k, SimTime now,
                                    ThreadPool* pool) const {
  return tiered(client, candidates, /*any=*/false, k, now,
                ShardCompleteness::all(shards_.size()), pool);
}

TieredAnswer Gather::closest_any_tiered(const std::string& client,
                                        std::size_t k, SimTime now,
                                        ThreadPool* pool) const {
  return tiered(client, {}, /*any=*/true, k, now,
                ShardCompleteness::all(shards_.size()), pool);
}

std::vector<RankedNode> Gather::top_k(const core::RatioMap& query,
                                      std::size_t k, SimTime now,
                                      ThreadPool* pool) const {
  // The query owns no corpus row, so there is no owning shard; it counts
  // on shard 0 (the partials' similarity work counts where it ran).
  shards_[0].count_queries();
  std::vector<std::vector<RankedNode>> partials(shards_.size());
  scatter(shards_.size(), pool, [&](std::size_t s) {
    partials[s] = shards_[s].rank_query(query, k, now);
  });
  return merge(partials, k);
}

std::vector<std::vector<RankedNode>> Gather::batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, bool any, std::size_t k,
    SimTime now, ThreadPool* pool) const {
  const std::size_t n = shards_.size();
  std::vector<std::vector<RankedNode>> out(clients.size());
  // Fresh clients rank; unknown and stale ones keep {}, as their scalar
  // queries do. Each query counts on its owning shard.
  std::vector<ShardReader::BatchClient> ranked;
  std::vector<std::size_t> result_at;
  std::vector<std::uint64_t> counts(n, 0);
  ranked.reserve(clients.size());
  result_at.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t owner = shard_index(clients[i], n);
    ++counts[owner];
    const auto res = shards_[owner].resident(clients[i], now);
    if (!res.has_value() || !res->live) continue;
    ranked.push_back(ShardReader::BatchClient{res->row, owner, res->slot});
    result_at.push_back(i);
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (counts[s] != 0) shards_[s].count_queries(counts[s]);
  }
  if (ranked.empty()) return out;

  // One vetting pass per shard serves every client of the batch — and
  // answers the whole batch against one consistent membership view. It
  // is one walk per shard, cheaper inline than a pool round trip.
  std::vector<std::vector<const std::string*>> routed;
  if (!any) routed = route(candidates);
  std::vector<std::vector<std::size_t>> slots(n);
  for (std::size_t s = 0; s < n; ++s) {
    slots[s] = any ? shards_[s].usable(/*stale_band=*/false, now)
                   : shards_[s].vet(routed[s], /*stale_band=*/false, now);
  }

  // (shard x client-chunk) tasks, ceil((workers + caller) / shards)
  // chunks per shard: every participant has work even at one shard, and
  // each shard is one task once shards cover the participants.
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  const std::size_t chunks = (p.size() + n) / n;
  const std::size_t per_chunk = (ranked.size() + chunks - 1) / chunks;
  std::vector<std::vector<RankedNode>> partials(ranked.size() * n);
  p.parallel_for(0, n * chunks, [&](std::size_t t) {
    const std::size_t s = t / chunks;
    const std::size_t lo = std::min(ranked.size(), (t % chunks) * per_chunk);
    const std::size_t hi = std::min(ranked.size(), lo + per_chunk);
    auto part = shards_[s].rank_batch(
        std::span<const ShardReader::BatchClient>(ranked).subspan(lo, hi - lo),
        s, slots[s], any, k);
    for (std::size_t j = lo; j < hi; ++j) {
      partials[j * n + s] = std::move(part[j - lo]);
    }
  });
  p.parallel_for(0, ranked.size(), [&](std::size_t j) {
    out[result_at[j]] =
        merge(std::span<std::vector<RankedNode>>(partials).subspan(j * n, n),
              k);
  });
  return out;
}

std::vector<std::vector<RankedNode>> Gather::closest_batch(
    std::span<const std::string> clients, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return batch(clients, {}, /*any=*/true, k, now, pool);
}

std::vector<std::vector<RankedNode>> Gather::closest_batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return batch(clients, candidates, /*any=*/false, k, now, pool);
}

}  // namespace crp::service
