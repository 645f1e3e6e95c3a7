#include "service/shard_reader.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/top_k.hpp"
#include "service/serving_detail.hpp"

namespace crp::service {

using serving_detail::ScoredRef;

std::vector<std::string> ShardReader::live_nodes(SimTime now) const {
  // The by-id index is sorted, so the answer needs no sort.
  std::vector<std::string> nodes;
  nodes.reserve(nodes_->by_id.size());
  for (const std::uint32_t slot : nodes_->by_id) {
    if (liveness_.live(age(slot, now))) nodes.push_back(nodes_->ids[slot]);
  }
  return nodes;
}

std::optional<ShardReader::Resident> ShardReader::resident(
    const std::string& node_id, SimTime now) const {
  const std::size_t slot = nodes_->find(node_id);
  if (slot == npos) return std::nullopt;
  return Resident{slot, corpus_.row_view(slot),
                  liveness_.live(age(slot, now)),
                  liveness_.stale_usable(age(slot, now))};
}

std::vector<std::size_t> ShardReader::vet(
    std::span<const std::string* const> candidates, bool stale_band,
    SimTime now) const {
  std::vector<std::size_t> slots;
  slots.reserve(candidates.size());
  for (const std::string* candidate : candidates) {
    const std::size_t slot = nodes_->find(*candidate);
    if (slot != npos && usable_at(slot, stale_band, now)) slots.push_back(slot);
  }
  return slots;
}

std::vector<std::size_t> ShardReader::usable(bool stale_band,
                                             SimTime now) const {
  std::vector<std::size_t> slots;
  slots.reserve(nodes_->by_id.size());
  for (const std::uint32_t slot : nodes_->by_id) {
    if (usable_at(slot, stale_band, now)) slots.push_back(slot);
  }
  return slots;
}

void ShardReader::score(const core::RowView& client,
                        std::span<const std::size_t> subset,
                        std::vector<double>& scores) const {
  // Subset reads are bit-identical to dense reads at the same slots,
  // which are bit-identical to per-pair similarity() (DESIGN.md §6).
  std::size_t touched = 0;
  if (subset.empty()) {
    scores.resize(corpus_.size());
    core::engine_detail::dense_scores(corpus_, client, scores, &touched);
  } else {
    scores.resize(subset.size());
    core::engine_detail::subset_scores(corpus_, client, subset, scores,
                                       &touched);
  }
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
}

std::vector<RankedNode> ShardReader::rank(const core::RowView& client,
                                          std::size_t exclude,
                                          std::span<const std::size_t> slots,
                                          bool dense, std::size_t k,
                                          std::vector<double>& scores) const {
  // Scoring waits for a survivor: with nothing to rank, no engine query
  // runs. The bounded heap copies only the k winners; under the total
  // order its answer is independent of offer order.
  const auto first = std::find_if(
      slots.begin(), slots.end(),
      [exclude](std::size_t slot) { return slot != exclude; });
  if (first == slots.end()) return {};
  score(client, dense ? std::span<const std::size_t>{} : slots, scores);
  const std::string* const ids = nodes_->ids.data();
  const double* const score_at = scores.data();
  BoundedTopK<ScoredRef, serving_detail::BetterRef> heap(k, {});
  // One loop per score layout (dense scores index by slot, subset
  // scores by position), so the hot loop carries no layout branch.
  const auto offer_all = [&](auto score_of) {
    for (std::size_t i = first - slots.begin(); i < slots.size(); ++i) {
      const std::size_t slot = slots[i];
      if (slot == exclude) continue;
      heap.offer(ScoredRef{ids + slot, score_of(i, slot)});
    }
  };
  if (dense) {
    offer_all([score_at](std::size_t, std::size_t s) { return score_at[s]; });
  } else {
    offer_all([score_at](std::size_t i, std::size_t) { return score_at[i]; });
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<RankedNode> ShardReader::rank_all(const core::RowView& client,
                                              std::size_t exclude,
                                              bool stale_band, std::size_t k,
                                              SimTime now) const {
  // rank() over usable(), minus the slot list: this walk is every plain
  // read's hot path, so it filters the by-id index in place.
  const auto survives = [&](std::uint32_t slot) {
    return slot != exclude && usable_at(slot, stale_band, now);
  };
  const auto& by_id = nodes_->by_id;
  const auto first = std::find_if(by_id.begin(), by_id.end(), survives);
  if (first == by_id.end()) return {};
  std::vector<double> scores;
  score(client, {}, scores);
  const std::string* const ids = nodes_->ids.data();
  BoundedTopK<ScoredRef, serving_detail::BetterRef> heap(k, {});
  for (auto it = first; it != by_id.end(); ++it) {
    if (survives(*it)) heap.offer(ScoredRef{ids + *it, scores[*it]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<RankedNode> ShardReader::rank_candidates(
    const core::RowView& client, std::size_t exclude,
    std::span<const std::size_t> slots, std::size_t k) const {
  std::vector<double> scores;
  return rank(client, exclude, slots, /*dense=*/false, k, scores);
}

std::vector<RankedNode> ShardReader::rank_query(const core::RatioMap& query,
                                                std::size_t k,
                                                SimTime now) const {
  return rank_all(core::engine_detail::as_query(query), npos,
                  /*stale_band=*/false, k, now);
}

std::vector<std::vector<RankedNode>> ShardReader::rank_batch(
    std::span<const BatchClient> clients, std::size_t self,
    std::span<const std::size_t> slots, bool all_nodes, std::size_t k) const {
  std::vector<std::vector<RankedNode>> out;
  out.reserve(clients.size());
  std::vector<double> scores;
  for (const BatchClient& c : clients) {
    out.push_back(rank(c.row, c.owner == self ? c.slot : npos, slots,
                       all_nodes, k, scores));
  }
  return out;
}

void ShardReader::count_outcome(AnswerTier tier) const {
  switch (tier) {
    case AnswerTier::kFresh:
      counters_->fresh_answers.add();
      break;
    case AnswerTier::kStale:
      counters_->stale_answers.add();
      break;
    case AnswerTier::kRefused:
      counters_->refused_queries.add();
      break;
  }
}

std::vector<std::string> ShardReader::same_cluster(const std::string& node_id,
                                                   SimTime now) const {
  count_queries();
  const std::size_t slot = nodes_->find(node_id);
  if (slot == npos || !liveness_.live(age(slot, now))) return {};
  if (clustering_ == nullptr) return {};
  const auto& cluster = clustering_->clusters[clustering_->assignment[slot]];
  std::vector<std::string> out;
  for (const std::size_t member : cluster.members) {
    if (member == slot) continue;
    const std::string& id = nodes_->ids[member];
    // Tombstoned slots and members whose reports went stale since the
    // clustering was computed are filtered here, at answer time.
    if (id.empty() || !liveness_.live(age(member, now))) continue;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<std::string, std::size_t> ShardReader::cluster_assignment(
    SimTime now) const {
  count_queries();
  std::unordered_map<std::string, std::size_t> out;
  if (clustering_ == nullptr) return out;
  for (std::size_t slot = 0; slot < nodes_->ids.size(); ++slot) {
    const std::string& id = nodes_->ids[slot];
    if (id.empty() || !liveness_.live(age(slot, now))) continue;
    out[id] = clustering_->assignment[slot];
  }
  return out;
}

std::vector<std::string> ShardReader::diverse_set(std::size_t n, SimTime now,
                                                  std::uint64_t seed) const {
  count_queries();
  if (clustering_ == nullptr) return {};
  // One live representative per cluster, preferring clusters with more
  // live members (their centers are corroborated positions), in random
  // order. Clusters with no live member contribute nothing.
  struct Candidate {
    std::string id;
    std::size_t live_members = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(clustering_->clusters.size());
  for (const auto& cluster : clustering_->clusters) {
    Candidate c;
    bool center_live = false;
    std::string smallest;
    for (const std::size_t member : cluster.members) {
      const std::string& id = nodes_->ids[member];
      if (id.empty() || !liveness_.live(age(member, now))) continue;
      ++c.live_members;
      if (member == cluster.center) center_live = true;
      if (smallest.empty() || id < smallest) smallest = id;
    }
    if (c.live_members == 0) continue;
    // Prefer the center; if it went stale, the lexicographically
    // smallest live member stands in for it.
    c.id = center_live ? nodes_->ids[cluster.center] : smallest;
    candidates.push_back(std::move(c));
  }

  std::vector<std::size_t> cluster_order(candidates.size());
  for (std::size_t i = 0; i < cluster_order.size(); ++i) {
    cluster_order[i] = i;
  }
  Rng rng{hash_combine({seed, stable_hash("diverse-set")})};
  rng.shuffle(cluster_order);
  std::stable_sort(cluster_order.begin(), cluster_order.end(),
                   [&candidates](std::size_t a, std::size_t b) {
                     return candidates[a].live_members >
                            candidates[b].live_members;
                   });

  std::vector<std::string> out;
  for (const std::size_t ci : cluster_order) {
    if (out.size() == n) break;
    out.push_back(candidates[ci].id);
  }
  return out;
}

}  // namespace crp::service
