#include "core/engine_kernels.hpp"

#include <algorithm>
#include <cstddef>

#include "common/top_k.hpp"

namespace crp::core::engine_detail {

namespace {

// Reused across queries (thread_local, see scratch()): `mark`/`epoch`
// implement O(touched) clearing — a slot belongs to the current query only
// if mark[m] == epoch, so no O(corpus) zeroing per query is needed.
// Thread-locality is also what makes the kernels safe for concurrent
// readers: two threads querying the same (frozen or quiescent) corpus
// never share an accumulator.
struct Scratch {
  std::vector<double> acc;           // cosine / weighted-overlap partial sums
  std::vector<std::uint32_t> inter;  // jaccard intersection counts
  std::vector<std::uint64_t> mark;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> touched;

  void begin(std::size_t n) {
    if (mark.size() < n) {
      mark.resize(n, 0);
      acc.resize(n, 0.0);
      inter.resize(n, 0);
    }
    ++epoch;
    touched.clear();
  }
};

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

/// Scatter-adds `entries` (sorted by replica id) over the posting lists.
/// Afterwards `scratch.touched` lists every corpus map sharing a replica
/// with the query, with per-map partial sums in `scratch.acc` /
/// `scratch.inter`.
void accumulate(const CorpusView& v, std::span<const RatioMap::Entry> entries,
                Scratch& s) {
  s.begin(v.size());
  for (const auto& [id, q_ratio] : entries) {
    const auto it = v.replica_slot->find(id);
    if (it == v.replica_slot->end()) continue;
    const PostingList& list = v.post[it->second];
    if (list.live == 0) continue;
    // Query entries arrive in increasing replica-id order, so each touched
    // map accumulates its shared replicas in exactly the order the
    // per-pair sorted merge visits them — scores stay bit-identical.
    switch (v.kind) {
      case SimilarityKind::kCosine:
        for (const Posting& p : list.postings()) {
          if (!v.current(p)) continue;
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.acc[m] = 0.0;
            s.touched.push_back(m);
          }
          s.acc[m] += q_ratio * p.ratio;
        }
        break;
      case SimilarityKind::kJaccard:
        for (const Posting& p : list.postings()) {
          if (!v.current(p)) continue;
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.inter[m] = 0;
            s.touched.push_back(m);
          }
          ++s.inter[m];
        }
        break;
      case SimilarityKind::kWeightedOverlap:
        for (const Posting& p : list.postings()) {
          if (!v.current(p)) continue;
          const std::uint32_t m = p.map;
          if (s.mark[m] != s.epoch) {
            s.mark[m] = s.epoch;
            s.acc[m] = 0.0;
            s.touched.push_back(m);
          }
          s.acc[m] += std::min(q_ratio, p.ratio);
        }
        break;
    }
  }
}

/// The single scoring expression: final score of touched map `m` from
/// its accumulated partial sum (`acc`, cosine/weighted-overlap) or
/// intersection count (`inter`, jaccard).
double finish_score(const CorpusView& v, std::size_t m, double query_norm,
                    std::size_t query_size, double acc, std::uint32_t inter) {
  switch (v.kind) {
    case SimilarityKind::kCosine: {
      const double denominator = query_norm * v.norms[m];
      if (denominator <= 0.0) return 0.0;
      return std::clamp(acc / denominator, 0.0, 1.0);
    }
    case SimilarityKind::kJaccard: {
      const std::size_t uni = query_size + v.rows[m].len - inter;
      if (uni == 0) return 0.0;
      return static_cast<double>(inter) / static_cast<double>(uni);
    }
    case SimilarityKind::kWeightedOverlap:
      return std::clamp(acc, 0.0, 1.0);
  }
  return 0.0;
}

/// Final score of touched map `m` given the query's norm and size.
double score_touched(const CorpusView& v, std::size_t m, double query_norm,
                     std::size_t query_size, const Scratch& s) {
  // The sibling accumulator (acc for jaccard, inter otherwise) holds a
  // stale value from an earlier query; finish_score never reads it.
  return finish_score(v, m, query_norm, query_size, s.acc[m], s.inter[m]);
}

/// Appends zero-similarity live rows in row order until `out` reaches
/// `want` entries, skipping indices already ranked in `out`.
void pad_zero_rows(const CorpusView& v, std::vector<RankedCandidate>& out,
                   std::size_t want) {
  // Pad with zero-similarity live maps in row order (the order the stable
  // sort leaves ties in), skipping the maps already ranked.
  std::vector<std::uint32_t> taken;
  taken.reserve(out.size());
  for (const RankedCandidate& rc : out) {
    taken.push_back(static_cast<std::uint32_t>(rc.index));
  }
  std::sort(taken.begin(), taken.end());
  std::size_t next_taken = 0;
  for (std::size_t m = 0; m < v.size() && out.size() < want; ++m) {
    if (next_taken < taken.size() && taken[next_taken] == m) {
      ++next_taken;
      continue;
    }
    if (!v.rows[m].live) continue;
    out.push_back(RankedCandidate{m, 0.0});
  }
}

}  // namespace

void dense_scores(const CorpusView& v, const RowView& query,
                  std::span<double> out, std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  std::fill(out.begin(), out.end(), 0.0);
  for (const std::uint32_t m : s.touched) {
    out[m] = score_touched(v, m, query.norm, query.entries.size(), s);
  }
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
}

void subset_scores(const CorpusView& v, const RowView& query,
                   std::span<const std::size_t> subset, std::span<double> out,
                   std::size_t* touched_maps) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const std::size_t m = subset[i];
    out[i] = s.mark[m] == s.epoch
                 ? score_touched(v, m, query.norm, query.entries.size(), s)
                 : 0.0;
  }
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
}

std::optional<RankedCandidate> best_match(const CorpusView& v,
                                          const RowView& query,
                                          std::size_t* touched_maps) {
  if (v.live_rows == 0) {
    if (touched_maps != nullptr) *touched_maps = 0;
    return std::nullopt;
  }
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  if (touched_maps != nullptr) *touched_maps = s.touched.size();
  // Scan the touched maps only. A dense argmax starting at -1 with a
  // strict `>` comparison picks (max score, lowest index) over all rows;
  // untouched live rows all score exactly 0, so whenever some touched map
  // scores > 0 the touched-only scan agrees with the dense one. If no
  // touched map beats 0, the dense argmax lands on the first live row at
  // 0 — reproduced by the fallback below.
  double best = 0.0;
  std::size_t best_index = v.size();
  for (const std::uint32_t m : s.touched) {
    const double score =
        score_touched(v, m, query.norm, query.entries.size(), s);
    if (score > best || (score == best && m < best_index)) {
      best = score;
      best_index = m;
    }
  }
  if (best > 0.0) return RankedCandidate{best_index, best};
  for (std::size_t m = 0; m < v.size(); ++m) {
    if (v.rows[m].live) return RankedCandidate{m, 0.0};
  }
  return std::nullopt;  // unreachable: live_rows > 0
}

std::vector<RankedCandidate> rank_all(const CorpusView& v,
                                      const RowView& query) {
  // Same algorithm as rank_candidates, with the per-pair merges replaced
  // by one engine query: dense scores, then a stable descending sort.
  // Dead rows are dropped up front — they are not corpus members.
  std::vector<double> all(v.size());
  dense_scores(v, query, all, nullptr);
  std::vector<RankedCandidate> ranked;
  ranked.reserve(v.live_rows);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!v.rows[i].live) continue;
    ranked.push_back(RankedCandidate{i, all[i]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedCandidate& a, const RankedCandidate& b) {
                     return a.similarity > b.similarity;
                   });
  return ranked;
}

void top_k_into(const CorpusView& v, const RowView& query, std::size_t k,
                std::vector<RankedCandidate>& out) {
  out.clear();
  const std::size_t want = std::min(k, v.live_rows);
  if (want == 0) return;

  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  // (similarity, index) pairs are unique per map, so ranking by
  // (similarity desc, index asc) is a total order: the bounded heap keeps
  // exactly the maps a full sort + truncate would, in the same order —
  // matching rank_candidates' stable sort — at O(touched log k).
  const auto better = [](const RankedCandidate& a, const RankedCandidate& b) {
    return a.similarity > b.similarity ||
           (a.similarity == b.similarity && a.index < b.index);
  };
  BoundedTopK<RankedCandidate, decltype(better)> heap(want, better);
  for (const std::uint32_t m : s.touched) {
    const double score =
        score_touched(v, m, query.norm, query.entries.size(), s);
    if (score > 0.0) heap.offer(RankedCandidate{m, score});
  }
  out = heap.take_sorted();
  // A short heap kept every positive-similarity map, so padding skips
  // exactly the already-ranked indices.
  if (out.size() < want) pad_zero_rows(v, out, want);
}

std::size_t comparable_count(const CorpusView& v, const RowView& query) {
  Scratch& s = scratch();
  accumulate(v, query.entries, s);
  std::size_t count = 0;
  for (const std::uint32_t m : s.touched) {
    // A touched map shares a replica, so its intersection (jaccard) or
    // partial sum (cosine, weighted overlap) is positive unless the
    // products underflowed — the same condition similarity() > 0 tests.
    if (v.kind == SimilarityKind::kJaccard ? s.inter[m] > 0 : s.acc[m] > 0.0) {
      ++count;
    }
  }
  return count;
}

}  // namespace crp::core::engine_detail
