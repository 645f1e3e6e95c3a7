// Ranking helpers shared by the shard reader (per-shard partials) and
// the gather (their merge), so both rank through the exact same
// comparator and materialization code. Internal: not part of the
// service API.
#pragma once

#include <string>
#include <vector>

namespace crp::service {

struct RankedNode;

namespace serving_detail {

/// Heap entry for the closest paths: a borrowed node id plus its score.
/// Ranking borrows ids and copies only the k winners into RankedNodes.
struct ScoredRef {
  const std::string* id = nullptr;
  double sim = 0.0;
};

/// The (similarity desc, node_id asc) total order every closest path
/// ranks by. Total ⇒ the bounded heap's output is identical to the
/// stable-sort-then-truncate baseline (duplicate candidates compare
/// equal both ways and are interchangeable copies) — and independent of
/// offer order, which is why per-shard partials can merge in any order
/// and still answer byte-for-byte identically. A functor type, so the
/// bounded heap inlines the comparison in the per-node ranking loop.
struct BetterRef {
  bool operator()(const ScoredRef& a, const ScoredRef& b) const {
    if (a.sim != b.sim) return a.sim > b.sim;
    return *a.id < *b.id;
  }
};

/// Copies the k kept winners into owned RankedNodes (templated only so
/// this header needn't depend on position_service.hpp).
template <typename RankedNodeT>
std::vector<RankedNodeT> materialize(std::vector<ScoredRef> kept) {
  std::vector<RankedNodeT> ranked;
  ranked.reserve(kept.size());
  for (const ScoredRef& r : kept) {
    ranked.push_back(RankedNodeT{*r.id, r.sim});
  }
  return ranked;
}

}  // namespace serving_detail
}  // namespace crp::service
