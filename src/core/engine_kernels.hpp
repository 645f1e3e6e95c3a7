// Shared storage types and query kernels behind SimilarityEngine and
// EngineSnapshot.
//
// The mutable engine and its frozen snapshots answer queries through the
// *same* compiled kernels, each presenting its storage as a borrowed
// `CorpusView`. That is the whole bit-identity argument for the
// concurrent read path (DESIGN.md §8): a snapshot reads the very entry
// and posting bytes the engine wrote (shared, append-only) through its
// own frozen row table and list views, and a query never sees which of
// the two owners lent it the view — there is no second implementation
// to drift.
//
// Everything in `engine_detail` is internal: layouts and kernel
// signatures may change freely between PRs. User code queries through
// `SimilarityEngine` / `EngineSnapshot`.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp::core {

/// Borrowed view of one corpus row: the CSR entry segment (sorted by
/// replica id) plus its precomputed norm. A view
/// of engine A's row can be replayed into engine B (`add_row`) or used
/// as a query (`scores`/`best_match`) with bit-identical results —
/// nothing is renormalized, so not a single bit of the ratios or the
/// norm changes in transit. This is how the center-indexed SMF mirrors
/// corpus rows into its small center engine, and how every query shape
/// (RatioMap, corpus row, foreign row) funnels into one kernel. Views
/// into a mutable engine are invalidated by any mutation of it; views
/// into an EngineSnapshot stay valid as long as the snapshot is held.
struct RowView {
  std::span<const RatioMap::Entry> entries;
  double norm = 0.0;
};

namespace engine_detail {

/// A row's strongest mapping, max ratio (0 for an empty row) — the
/// same fold RatioMap::strongest_mapping runs over the same entries,
/// so it is derived on demand instead of stored per slot.
[[nodiscard]] inline double strongest_of(
    std::span<const RatioMap::Entry> entries) {
  double best = 0.0;
  for (const auto& [id, ratio] : entries) best = std::max(best, ratio);
  return best;
}

/// A CSR row: its entry segment, `len` entries at `data` inside one
/// chunk of the append-only entry arena. Updates point `data` at a
/// fresh segment and orphan the old one until compaction; no entry byte
/// is ever rewritten in place, which is what lets frozen snapshots share
/// the chunks with the writer.
struct Row {
  const RatioMap::Entry* data = nullptr;
  std::uint32_t len = 0;
  bool live = false;
};

/// One posting: a corpus row containing the replica, with its ratio.
/// Postings are appended and never moved; the one later write is the
/// tombstone, which stamps `dead_at` once, from kLive to the engine's
/// current freeze generation. A view with horizon H reads a posting as
/// dead iff dead_at <= H. A snapshot's horizon is the generation that
/// was current when it was cut, and every stamp written afterwards
/// carries a later generation, so a snapshot keeps reading the postings
/// it froze as they were — while sharing their bytes with the writer.
/// The stamp is a relaxed atomic because a reader of an older snapshot
/// may load it while the writer stores it; both values it can observe
/// mean "live" to that reader.
struct Posting {
  static constexpr std::uint32_t kLive = 0xffffffffu;

  std::uint32_t map = 0;
  std::atomic<std::uint32_t> dead_at{kLive};
  double ratio = 0.0;

  Posting() = default;
  Posting(std::uint32_t row, double r) : map(row), ratio(r) {}
  // std::atomic is not copyable; a block that grows copies its postings.
  Posting(const Posting& other) noexcept
      : map(other.map),
        dead_at(other.dead_at.load(std::memory_order_relaxed)),
        ratio(other.ratio) {}
  Posting& operator=(const Posting& other) noexcept {
    map = other.map;
    dead_at.store(other.dead_at.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    ratio = other.ratio;
    return *this;
  }
};

/// One replica's posting list as the kernels see it: the prefix
/// [0, size) of an append-only block (tombstoned postings included,
/// skipped at query time), plus how many of them are live.
struct PostingList {
  const Posting* items = nullptr;
  std::uint32_t size = 0;
  std::uint32_t live = 0;  // postings not tombstoned

  [[nodiscard]] std::span<const Posting> postings() const {
    return {items, size};
  }
};

/// Borrowed, read-only view of a whole corpus — the row table, the
/// inverted replica index, the tombstone horizon and the liveness
/// summary.
/// Both owners build one in O(1): the mutable engine over its members
/// (valid until the next mutation; the single-writer contract says no
/// mutation runs concurrently with a query), the snapshot over its
/// frozen shared arrays (valid while the snapshot is held).
struct CorpusView {
  SimilarityKind kind = SimilarityKind::kCosine;
  std::span<const Row> rows;
  std::span<const double> norms;
  const std::unordered_map<ReplicaId, std::uint32_t>* replica_slot = nullptr;
  std::span<const PostingList> post;
  /// Freeze generation this view reads tombstones up to (see Posting).
  std::uint32_t horizon = 0;
  std::size_t live_rows = 0;

  [[nodiscard]] std::size_t size() const { return rows.size(); }
  [[nodiscard]] std::span<const RatioMap::Entry> row(std::size_t index) const {
    return {rows[index].data, rows[index].len};
  }
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return RowView{row(index), norms[index]};
  }
  /// Whether posting `p` is live as of this view's horizon.
  [[nodiscard]] bool current(const Posting& p) const {
    return p.dead_at.load(std::memory_order_relaxed) > horizon;
  }
};

/// Wraps a RatioMap as a query (or as a row to store).
[[nodiscard]] inline RowView as_query(const RatioMap& map) {
  return RowView{map.entries(), map.norm()};
}

// --- scalar kernels ---
// All take the query as a RowView; `query.entries.size()` doubles as the
// query size (RatioMap::size() is its entry count). Each is bit-identical
// to the corresponding pre-extraction SimilarityEngine member function —
// the bodies moved verbatim, with member reads rewritten to view reads.

/// Dense scores for every corpus row, 0 for dead/untouched rows.
void dense_scores(const CorpusView& v, const RowView& query,
                  std::span<double> out, std::size_t* touched_maps);

/// Scores for the given rows only: out[i] = score of subset[i].
void subset_scores(const CorpusView& v, const RowView& query,
                   std::span<const std::size_t> subset, std::span<double> out,
                   std::size_t* touched_maps);

/// Best-scoring live row (ties to the lowest index; first live row at 0
/// similarity when nothing is comparable); nullopt iff no live rows.
[[nodiscard]] std::optional<RankedCandidate> best_match(
    const CorpusView& v, const RowView& query, std::size_t* touched_maps);

/// Top-k live rows by (similarity desc, index asc), zero-similarity
/// padding in row order.
void top_k_into(const CorpusView& v, const RowView& query, std::size_t k,
                std::vector<RankedCandidate>& out);

/// All live rows ranked, best first (stable descending sort).
[[nodiscard]] std::vector<RankedCandidate> rank_all(const CorpusView& v,
                                                    const RowView& query);

/// Rows with strictly positive similarity to the query.
[[nodiscard]] std::size_t comparable_count(const CorpusView& v,
                                           const RowView& query);

}  // namespace engine_detail
}  // namespace crp::core
