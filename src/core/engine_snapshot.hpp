// Immutable, shared-ownership snapshot of a SimilarityEngine corpus —
// the unit of the concurrent read path (DESIGN.md §8).
//
// `SimilarityEngine::freeze(epoch)` cuts one, tagged with the caller's
// membership epoch. Sharing granularity (DESIGN.md §8 "Structural
// sharing and the publish cost model"):
//  * entry chunks and posting blocks are shared with the writer and
//    every other snapshot — they are append-only, and this snapshot's
//    rows and per-list views cover only the prefix written before the
//    freeze; compaction moves the writer to fresh ones;
//  * the replica index is shared until a never-seen replica appears;
//  * the per-list views and the row table (row pointers and norms;
//    24 B per slot) are copied when a mutation dirtied them, and shared
//    with the previous snapshot otherwise.
// A later tombstone stamps a shared posting in place, but with a
// generation past this snapshot's horizon, so the snapshot still reads
// it as live (engine_detail::Posting).
// So a freeze copies O(slots + posting lists) bytes after update-only
// churn, and nothing after none. Every query here runs the same
// `engine_detail` kernels the mutable engine runs, over the same bytes
// — so a snapshot query is bit-identical to the same query against the
// engine at the moment of the freeze. That is the whole determinism
// story: one kernel implementation, two storage owners.
//
// Thread safety: an EngineSnapshot is deeply immutable after freeze();
// any number of threads may query one concurrently with no locking (the
// kernels' scratch is thread_local). Lifetime is shared_ptr-managed, so
// a reader's results stay valid however long it holds its snapshot,
// while the writer keeps mutating the live engine and cutting newer
// snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/engine_kernels.hpp"
#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp::core {

class EngineSnapshot {
 public:
  using RowView = core::RowView;

  /// Row-slot count (dead slots included), the length of dense score
  /// vectors — mirrors SimilarityEngine::size() at the freeze.
  [[nodiscard]] std::size_t size() const { return rows_->rows.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::size_t live_size() const { return live_rows_; }
  [[nodiscard]] bool alive(std::size_t index) const {
    return rows_->rows[index].live;
  }
  [[nodiscard]] SimilarityKind kind() const { return kind_; }
  [[nodiscard]] std::size_t distinct_replicas() const {
    return live_replicas_;
  }
  /// The membership epoch the writer passed to freeze() — how readers
  /// (and tests) tell which corpus generation answered them.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] double strongest_mapping(std::size_t index) const {
    return engine_detail::strongest_of(view().row(index));
  }
  /// Raw view of row `index` (empty for dead rows). Unlike the mutable
  /// engine's row_view, stays valid as long as the snapshot is held.
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return view().row_view(index);
  }

  // --- queries: each bit-identical to its SimilarityEngine namesake at
  // --- the frozen epoch (same kernels, same bytes) ---

  [[nodiscard]] std::vector<double> scores(const RatioMap& query) const;
  void scores(const RatioMap& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const;
  void scores(const RowView& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const;
  [[nodiscard]] std::vector<double> scores_of(std::size_t index) const;
  void scores_of(std::size_t index, std::span<double> out,
                 std::size_t* touched_maps = nullptr) const;
  [[nodiscard]] std::optional<RankedCandidate> best_match(
      const RowView& query, std::size_t* touched_maps = nullptr) const;
  [[nodiscard]] std::vector<RankedCandidate> rank_all(
      const RatioMap& query) const;
  [[nodiscard]] std::vector<RankedCandidate> top_k(const RatioMap& query,
                                                   std::size_t k) const;
  [[nodiscard]] std::size_t comparable_count(const RatioMap& query) const;

  /// The kernels' borrowed view of the frozen storage (see
  /// SimilarityEngine::view); valid while the snapshot is held.
  [[nodiscard]] engine_detail::CorpusView view() const {
    return engine_detail::CorpusView{kind_,        rows_->rows,
                                     rows_->norms, replica_slot_.get(),
                                     *post_,       horizon_,
                                     live_rows_};
  }

  // --- storage-identity probes (tests of structural sharing only) ---

  [[nodiscard]] const void* rows_identity() const { return rows_.get(); }
  [[nodiscard]] const void* entries_identity() const { return chunks_.get(); }
  [[nodiscard]] const void* postings_identity() const { return post_.get(); }
  [[nodiscard]] const void* posting_blocks_identity() const {
    return post_blocks_.get();
  }
  [[nodiscard]] const void* replica_index_identity() const {
    return replica_slot_.get();
  }

 private:
  friend class SimilarityEngine;  // the only producer
  EngineSnapshot() = default;

  /// The per-slot arrays, frozen together (they dirty together).
  struct RowTable {
    std::vector<engine_detail::Row> rows;
    std::vector<double> norms;
  };
  /// Ownership handles of append-only storage blocks. The snapshot never
  /// reads through them — rows and posting views hold raw pointers into
  /// the blocks — they only keep the blocks alive while it is held.
  template <typename T>
  using Handles = std::vector<std::shared_ptr<const T[]>>;

  SimilarityKind kind_ = SimilarityKind::kCosine;
  std::uint64_t epoch_ = 0;
  std::uint32_t horizon_ = 0;  // tombstone generation frozen (see Posting)
  std::size_t live_rows_ = 0;
  std::size_t live_replicas_ = 0;

  // Frozen storage, component-shared across consecutive freezes (see
  // SimilarityEngine's version counters). Entry chunks and posting
  // blocks are shared with the writer too: it only ever appends past
  // the prefix this snapshot's rows and posting views cover.
  std::shared_ptr<const RowTable> rows_;
  std::shared_ptr<const Handles<RatioMap::Entry>> chunks_;
  std::shared_ptr<const std::unordered_map<ReplicaId, std::uint32_t>>
      replica_slot_;
  std::shared_ptr<const std::vector<engine_detail::PostingList>> post_;
  std::shared_ptr<const Handles<engine_detail::Posting>> post_blocks_;
};

}  // namespace crp::core
