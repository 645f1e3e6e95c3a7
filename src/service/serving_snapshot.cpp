#include "service/serving_snapshot.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/top_k.hpp"
#include "service/serving_detail.hpp"

namespace crp::service {

using serving_detail::ScoredRef;
using serving_detail::better_ref;

std::vector<std::string> ServingSnapshot::live_nodes(SimTime now) const {
  // The by-id index is sorted lexicographically, so the output comes out
  // in the contract's order with no sort — identical to the mutable
  // path's walk-then-sort.
  std::vector<std::string> nodes;
  nodes.reserve(nodes_->by_id.size());
  for (const std::uint32_t slot : nodes_->by_id) {
    if (live_at(slot, now)) nodes.push_back(id_at(slot));
  }
  return nodes;
}

void ServingSnapshot::similarity_scores(std::size_t client_slot,
                                        std::span<double> out) const {
  std::size_t touched = 0;
  engine_->scores_of(client_slot, out, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
}

std::vector<RankedNode> ServingSnapshot::closest(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t client_slot = find(client);
  if (client_slot == npos || !live_at(client_slot, now)) return {};
  // Mirrors the mutable path: one subset read over the live candidates'
  // slots, vetted in caller order (order is irrelevant to the ranking —
  // the total order below absorbs it — but keeping it identical keeps
  // the subset query's touched accounting identical too).
  std::vector<const std::string*> vetted;
  std::vector<std::size_t> slots;
  vetted.reserve(candidates.size());
  slots.reserve(candidates.size());
  for (const std::string& candidate : candidates) {
    if (candidate == client) continue;
    const std::size_t slot = find(candidate);
    if (slot == npos || !live_at(slot, now)) continue;
    vetted.push_back(&candidate);
    slots.push_back(slot);
  }
  std::vector<double> scores(slots.size());
  std::size_t touched = 0;
  engine_->scores_of_subset(client_slot, slots, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (std::size_t i = 0; i < vetted.size(); ++i) {
    heap.offer(ScoredRef{vetted[i], scores[i]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<RankedNode> ServingSnapshot::closest_any(
    const std::string& client, std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t client_slot = find(client);
  if (client_slot == npos || !live_at(client_slot, now)) return {};
  std::vector<double> scores(engine_->size());
  similarity_scores(client_slot, scores);
  // The mutable path walks its unordered_map; this walks the sorted
  // node table. Same candidate set, and the heap's total order makes
  // the result offer-order-independent — byte-identical either way.
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const std::uint32_t slot : nodes_->by_id) {
    if (slot == client_slot || !live_at(slot, now)) continue;
    heap.offer(ScoredRef{&id_at(slot), scores[slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

TieredAnswer ServingSnapshot::closest_any_tiered(const std::string& client,
                                                 std::size_t k,
                                                 SimTime now) const {
  return closest_tiered_impl(client, {}, /*any=*/true, k, now);
}

TieredAnswer ServingSnapshot::closest_tiered(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return closest_tiered_impl(client, candidates, /*any=*/false, k, now);
}

TieredAnswer ServingSnapshot::closest_tiered_impl(
    const std::string& client, std::span<const std::string> candidates,
    bool any, std::size_t k, SimTime now) const {
  counters_->queries_served.add();
  TieredAnswer out;
  const std::size_t client_slot = find(client);
  if (client_slot == npos) {
    out.reason = DegradedReason::kUnknownClient;
    counters_->refused_queries.add();
    return out;
  }
  const bool fresh = live_at(client_slot, now);
  if (!fresh && !stale_usable_at(client_slot, now)) {
    out.reason = DegradedReason::kClientExpired;
    counters_->refused_queries.add();
    return out;
  }

  const auto usable = [&](std::size_t slot) {
    return live_at(slot, now) || (!fresh && stale_usable_at(slot, now));
  };

  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  if (any) {
    std::vector<double> scores(engine_->size());
    similarity_scores(client_slot, scores);
    for (const std::uint32_t slot : nodes_->by_id) {
      if (slot == client_slot || !usable(slot)) continue;
      heap.offer(ScoredRef{&id_at(slot), scores[slot]});
    }
  } else {
    std::vector<const std::string*> vetted;
    std::vector<std::size_t> slots;
    vetted.reserve(candidates.size());
    slots.reserve(candidates.size());
    for (const std::string& candidate : candidates) {
      if (candidate == client) continue;
      const std::size_t slot = find(candidate);
      if (slot == npos || !usable(slot)) continue;
      vetted.push_back(&candidate);
      slots.push_back(slot);
    }
    std::vector<double> scores(slots.size());
    std::size_t touched = 0;
    engine_->scores_of_subset(client_slot, slots, scores, &touched);
    counters_->similarity_queries.add();
    counters_->maps_touched.add(touched);
    for (std::size_t i = 0; i < vetted.size(); ++i) {
      heap.offer(ScoredRef{vetted[i], scores[i]});
    }
  }
  out.ranked = serving_detail::materialize<RankedNode>(heap.take_sorted());
  if (out.ranked.empty()) {
    out.tier = AnswerTier::kRefused;
    out.reason = DegradedReason::kNoUsableCandidates;
    counters_->refused_queries.add();
    return out;
  }
  out.tier = fresh ? AnswerTier::kFresh : AnswerTier::kStale;
  out.reason = fresh ? DegradedReason::kNone : DegradedReason::kStaleClient;
  (fresh ? counters_->fresh_answers : counters_->stale_answers).add();
  return out;
}

std::vector<RankedNode> ServingSnapshot::top_k(const core::RatioMap& query,
                                               std::size_t k,
                                               SimTime now) const {
  counters_->queries_served.add();
  std::vector<double> scores(engine_->size());
  std::size_t touched = 0;
  engine_->scores(query, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const std::uint32_t slot : nodes_->by_id) {
    if (!live_at(slot, now)) continue;
    heap.offer(ScoredRef{&id_at(slot), scores[slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::optional<ServingSnapshot::Resident> ServingSnapshot::resident(
    const std::string& node_id, SimTime now) const {
  const std::size_t slot = find(node_id);
  if (slot == npos) return std::nullopt;
  Resident r;
  r.slot = slot;
  r.row = engine_->row_view(slot);
  r.live = live_at(slot, now);
  r.stale_usable = stale_usable_at(slot, now);
  return r;
}

std::vector<ServingSnapshot::Vetted> ServingSnapshot::vet_candidates(
    std::span<const std::string* const> candidates, bool stale_band,
    SimTime now) const {
  std::vector<Vetted> vetted;
  vetted.reserve(candidates.size());
  for (const std::string* candidate : candidates) {
    const std::size_t slot = find(*candidate);
    if (slot == npos) continue;
    if (!live_at(slot, now) && !(stale_band && stale_usable_at(slot, now))) {
      continue;
    }
    vetted.push_back(Vetted{candidate, slot});
  }
  return vetted;
}

std::vector<RankedNode> ServingSnapshot::partial_closest_any(
    const core::RowView& client, std::size_t exclude_slot, bool stale_band,
    std::size_t k, SimTime now) const {
  std::vector<double> scores(engine_->size());
  std::size_t touched = 0;
  engine_->scores(client, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const std::uint32_t slot : nodes_->by_id) {
    if (slot == exclude_slot) continue;
    if (!live_at(slot, now) && !(stale_band && stale_usable_at(slot, now))) {
      continue;
    }
    heap.offer(ScoredRef{&id_at(slot), scores[slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<RankedNode> ServingSnapshot::partial_closest(
    const core::RowView& client, std::size_t exclude_slot,
    std::span<const Vetted> candidates, std::size_t k) const {
  if (candidates.empty()) return {};
  std::vector<double> scores(engine_->size());
  std::size_t touched = 0;
  engine_->scores(client, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const Vetted& candidate : candidates) {
    if (candidate.slot == exclude_slot) continue;
    heap.offer(ScoredRef{candidate.id, scores[candidate.slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<RankedNode> ServingSnapshot::partial_top_k(
    const core::RatioMap& query, std::size_t k, SimTime now) const {
  std::vector<double> scores(engine_->size());
  std::size_t touched = 0;
  engine_->scores(query, scores, &touched);
  counters_->similarity_queries.add();
  counters_->maps_touched.add(touched);
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const std::uint32_t slot : nodes_->by_id) {
    if (!live_at(slot, now)) continue;
    heap.offer(ScoredRef{&id_at(slot), scores[slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<std::vector<RankedNode>> ServingSnapshot::partial_closest_batch(
    std::span<const ExternalClient> clients, std::size_t self_shard,
    std::size_t k, SimTime now) const {
  std::vector<std::vector<RankedNode>> out(clients.size());
  if (clients.empty()) return out;
  // One usable-node sweep and one score buffer serve every client of
  // the batch — the partial twin of closest_batch's shared liveness
  // snapshot. (Partial reads never widen to the stale band: the batch
  // path, like the unsharded one, serves fresh clients only.)
  std::vector<NodeRef> nodes;
  nodes.reserve(nodes_->by_id.size());
  for (const std::uint32_t slot : nodes_->by_id) {
    if (live_at(slot, now)) {
      nodes.push_back(NodeRef{&id_at(slot), slot});
    }
  }
  std::vector<double> scores(engine_->size());
  std::uint64_t touched_total = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    std::size_t touched = 0;
    engine_->scores(clients[i].row, scores, &touched);
    touched_total += touched;
    const std::size_t exclude =
        clients[i].owner == self_shard ? clients[i].slot : npos;
    out[i] = rank_batch_row(nodes, exclude, scores, k);
  }
  counters_->similarity_queries.add(clients.size());
  counters_->maps_touched.add(touched_total);
  return out;
}

std::vector<std::vector<RankedNode>> ServingSnapshot::partial_closest_batch(
    std::span<const ExternalClient> clients, std::size_t self_shard,
    std::span<const Vetted> candidates, std::size_t k) const {
  std::vector<std::vector<RankedNode>> out(clients.size());
  if (clients.empty() || candidates.empty()) return out;
  std::vector<NodeRef> nodes;
  nodes.reserve(candidates.size());
  for (const Vetted& candidate : candidates) {
    nodes.push_back(NodeRef{candidate.id, candidate.slot});
  }
  std::vector<double> scores(engine_->size());
  std::uint64_t touched_total = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    std::size_t touched = 0;
    engine_->scores(clients[i].row, scores, &touched);
    touched_total += touched;
    const std::size_t exclude =
        clients[i].owner == self_shard ? clients[i].slot : npos;
    out[i] = rank_batch_row(nodes, exclude, scores, k);
  }
  counters_->similarity_queries.add(clients.size());
  counters_->maps_touched.add(touched_total);
  return out;
}

void ServingSnapshot::count_outcome(AnswerTier tier) const {
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

std::vector<RankedNode> ServingSnapshot::rank_batch_row(
    std::span<const NodeRef> nodes, std::size_t client_slot,
    std::span<const double> scores, std::size_t k) const {
  BoundedTopK<ScoredRef, decltype(&better_ref)> heap(k, &better_ref);
  for (const NodeRef& node : nodes) {
    if (node.slot == client_slot) continue;
    heap.offer(ScoredRef{node.id, scores[node.slot]});
  }
  return serving_detail::materialize<RankedNode>(heap.take_sorted());
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  counters_->queries_served.add(clients.size());
  std::vector<std::vector<RankedNode>> out(clients.size());
  if (clients.empty()) return out;

  std::vector<NodeRef> nodes;
  nodes.reserve(nodes_->by_id.size());
  for (const std::uint32_t slot : nodes_->by_id) {
    if (live_at(slot, now)) {
      nodes.push_back(NodeRef{&id_at(slot), slot});
    }
  }

  std::vector<std::size_t> rows;
  std::vector<std::size_t> result_at;
  rows.reserve(clients.size());
  result_at.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t slot = find(clients[i]);
    if (slot == npos || !live_at(slot, now)) continue;
    rows.push_back(slot);
    result_at.push_back(i);
  }
  if (rows.empty()) return out;

  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  FlatMatrix<double> scores;
  std::uint64_t touched = 0;
  engine_->scores_of_batch(rows, scores, &p, &touched);
  counters_->similarity_queries.add(rows.size());
  counters_->maps_touched.add(touched);

  p.parallel_for(0, rows.size(), [&](std::size_t j) {
    out[result_at[j]] = rank_batch_row(nodes, rows[j], scores.row(j), k);
  });
  return out;
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  counters_->queries_served.add(clients.size());
  std::vector<std::vector<RankedNode>> out(clients.size());
  if (clients.empty()) return out;

  std::vector<NodeRef> nodes;
  nodes.reserve(candidates.size());
  for (const std::string& candidate : candidates) {
    const std::size_t slot = find(candidate);
    if (slot == npos || !live_at(slot, now)) continue;
    nodes.push_back(NodeRef{&candidate, slot});
  }

  std::vector<std::size_t> rows;
  std::vector<std::size_t> result_at;
  rows.reserve(clients.size());
  result_at.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t slot = find(clients[i]);
    if (slot == npos || !live_at(slot, now)) continue;
    rows.push_back(slot);
    result_at.push_back(i);
  }
  if (rows.empty()) return out;

  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  FlatMatrix<double> scores;
  std::uint64_t touched = 0;
  engine_->scores_of_batch(rows, scores, &p, &touched);
  counters_->similarity_queries.add(rows.size());
  counters_->maps_touched.add(touched);

  p.parallel_for(0, rows.size(), [&](std::size_t j) {
    out[result_at[j]] = rank_batch_row(nodes, rows[j], scores.row(j), k);
  });
  return out;
}

std::vector<std::string> ServingSnapshot::same_cluster(
    const std::string& node_id, SimTime now) const {
  counters_->queries_served.add();
  const std::size_t slot = find(node_id);
  if (slot == npos || !live_at(slot, now)) return {};
  if (clustering_ == nullptr) return {};
  const auto& cluster =
      clustering_->clusters[clustering_->assignment[slot]];
  std::vector<std::string> out;
  for (std::size_t member : cluster.members) {
    if (member == slot) continue;
    const std::string& id = id_at(member);
    if (id.empty() || !live_at(member, now)) continue;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<std::string, std::size_t>
ServingSnapshot::cluster_assignment(SimTime now) const {
  counters_->queries_served.add();
  std::unordered_map<std::string, std::size_t> out;
  if (clustering_ == nullptr) return out;
  for (std::size_t slot = 0; slot < nodes_->ids.size(); ++slot) {
    const std::string& id = id_at(slot);
    if (id.empty() || !live_at(slot, now)) continue;
    out[id] = clustering_->assignment[slot];
  }
  return out;
}

std::vector<std::string> ServingSnapshot::diverse_set(
    std::size_t n, SimTime now, std::uint64_t seed) const {
  counters_->queries_served.add();
  if (clustering_ == nullptr) return {};

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
    for (std::size_t member : cluster.members) {
      const std::string& id = id_at(member);
      if (id.empty() || !live_at(member, now)) continue;
      ++c.live_members;
      if (member == cluster.center) center_live = true;
      if (smallest.empty() || id < smallest) smallest = id;
    }
    if (c.live_members == 0) continue;
    c.id = center_live ? id_at(cluster.center) : smallest;
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
  for (std::size_t ci : cluster_order) {
    if (out.size() == n) break;
    out.push_back(candidates[ci].id);
  }
  return out;
}

}  // namespace crp::service
