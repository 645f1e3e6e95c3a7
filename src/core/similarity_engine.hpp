// Batch similarity engine over a corpus of ratio maps.
//
// Every evaluation path of the reproduction — closest-node selection,
// SMF clustering, the ablations — reduces to "compare one ratio map
// against ~a thousand others". Doing that with per-pair sorted merges
// (`similarity()` in a loop) rescans every candidate map for every query
// and does work even for pairs that share no replica, whose similarity is
// 0 *by construction* for all three metrics. The engine exploits that
// sparsity structure:
//
//   * CSR corpus storage — all maps flattened into large chunks of
//     (replica id, ratio) entries with per-map (pointer, length) rows,
//     plus precomputed norms. A few cache-friendly blocks replace a
//     thousand small vectors.
//   * Inverted replica index — for each replica, the posting list of
//     (map index, ratio) pairs that contain it. A query walks only the
//     postings of its own replicas, so maps sharing no replica with the
//     query are never touched (they keep similarity 0 implicitly).
//   * Dense per-query accumulator — scatter-add over postings instead of
//     per-pair merges. For each touched map the partial sums accumulate
//     in increasing replica-id order — the same order as the sorted
//     merge — so every score is bit-identical to `similarity()`.
//
// Incremental corpus maintenance (the PositionService's serving mode —
// see DESIGN.md §6): `add`/`update`/`remove` mutate the corpus in place.
// Updated and removed rows leave tombstones — orphaned segments in the
// entry arena and postings stamped dead in the posting lists — which
// queries skip; entries are never written in place, and a posting only
// once, by its tombstone stamp (see engine_detail::Posting).
// Once tombstones outnumber live entries the engine compacts, rewriting
// both stores into fresh storage without disturbing row indices
// (removed rows keep their slot; `add` reuses freed slots).
// Scores over a mutated engine are bit-identical to scores over a
// freshly built engine of the live maps: per touched map, accumulation
// still follows increasing replica-id order, and norms/sizes come from
// the same `RatioMap` the fresh build would ingest.
//
// Determinism contract (the repo's first parallel subsystem; later ones
// follow the same conventions): all batch results are indexed by query
// position and each slot is computed independently, so results are
// bit-identical regardless of the thread pool's size, including the
// inline (0-thread) pool. Mutations are not thread-safe; quiesce queries
// before calling add/update/remove/compact.
//
// Concurrent serving (DESIGN.md §8): `freeze()` produces an immutable
// `EngineSnapshot` sharing this engine's query kernels, its append-only
// entry and posting bytes, and (across consecutive freezes) any small
// component no mutation dirtied.
// The engine itself stays single-writer: freeze() is a writer-side call,
// and published snapshots are what reader threads query lock-free.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/flat_matrix.hpp"
#include "core/engine_kernels.hpp"
#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "core/similarity.hpp"

namespace crp {
class ThreadPool;
}

namespace crp::core {

class EngineSnapshot;

class SimilarityEngine {
 public:
  /// The query/row view type (see engine_kernels.hpp). Kept as a member
  /// alias for source compatibility with pre-snapshot callers.
  using RowView = core::RowView;
  /// Mutation counters (monotonic over the engine's lifetime).
  struct MutationStats {
    std::uint64_t adds = 0;
    std::uint64_t updates = 0;
    std::uint64_t removes = 0;
    /// Postings (== corpus entries) turned into tombstones by
    /// update/remove. Compaction reclaims them without resetting this.
    std::uint64_t postings_tombstoned = 0;
    std::uint64_t compactions = 0;
    /// Bytes freeze() copied into snapshots: the row table and the
    /// small index arrays whose version moved. Entry and posting bytes
    /// are shared, never copied, so an update-only churn window costs
    /// O(slots + lists), and a clean refreeze costs 0.
    std::uint64_t snapshot_bytes_copied = 0;
  };

  /// Dead-entry floor below which automatic compaction never triggers
  /// (tiny corpora churn freely without rewrite storms).
  static constexpr std::size_t kCompactMinDeadEntries = 256;

  /// An empty mutable engine; grow it with `add`.
  explicit SimilarityEngine(SimilarityKind kind);

  /// Ingests `corpus` (maps are copied into CSR form; the span need not
  /// outlive the engine). `kind` fixes the metric for all queries.
  explicit SimilarityEngine(std::span<const RatioMap> corpus,
                            SimilarityKind kind = SimilarityKind::kCosine);

  // Move-only: the entry chunks and posting blocks are shared-ownership
  // storage the engine appends into, so a copy would append into its
  // original's blocks. (freeze() is the way to share a corpus.)
  SimilarityEngine(const SimilarityEngine&) = delete;
  SimilarityEngine& operator=(const SimilarityEngine&) = delete;
  SimilarityEngine(SimilarityEngine&&) noexcept = default;
  SimilarityEngine& operator=(SimilarityEngine&&) noexcept = default;

  /// Number of row slots, dead ones included — the length of dense score
  /// vectors. Equals the corpus size for a never-mutated engine.
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Rows currently holding a live map.
  [[nodiscard]] std::size_t live_size() const { return live_rows_; }
  /// Whether row `index` holds a live map (false once removed).
  [[nodiscard]] bool alive(std::size_t index) const {
    return rows_[index].live;
  }
  [[nodiscard]] SimilarityKind kind() const { return kind_; }
  /// Number of distinct replicas across the live corpus.
  [[nodiscard]] std::size_t distinct_replicas() const {
    return live_replicas_;
  }
  /// Corpus map i's strongest mapping (max ratio; 0 for an empty or
  /// removed map).
  [[nodiscard]] double strongest_mapping(std::size_t index) const {
    return engine_detail::strongest_of(row(index));
  }
  /// Raw view of row `index` (empty for dead rows). Invalidated by any
  /// mutation of this engine.
  [[nodiscard]] RowView row_view(std::size_t index) const {
    return RowView{row(index), norms_[index]};
  }

  // --- incremental corpus maintenance ---

  /// Adds a map and returns its row index. Freed slots (from `remove`)
  /// are reused before new ones are appended, so `size()` stays bounded
  /// by the high-water mark of live rows.
  std::size_t add(const RatioMap& map);
  /// Adds a preformed row (typically another engine's `row_view`)
  /// verbatim: no renormalization, the stored norm is the view's. Entries must be sorted by replica id with at most one entry
  /// per replica — true of every RowView. Same slot-reuse contract as
  /// `add`.
  std::size_t add_row(const RowView& row);
  /// Empties the engine (rows, entries, postings, free list, mutation
  /// counters) and re-fixes the metric, keeping the large allocations —
  /// the cheap way to reuse one engine across unrelated corpora, which
  /// is what keeps the SMF center index allocation-free across
  /// reclusterings.
  void clear(SimilarityKind kind);
  /// Replaces the map at live row `index` (precondition: alive(index)).
  /// The old row's entries and postings become tombstones.
  void update(std::size_t index, const RatioMap& map);
  /// Removes the map at live row `index` (precondition: alive(index)).
  /// The slot survives — dense scores keep their positions — and scores
  /// against it are 0 from here on.
  void remove(std::size_t index);
  /// Rewrites the live entries and postings into fresh chunks and
  /// blocks (snapshots keep the old ones), preserving every row index. Called automatically once dead entries
  /// outnumber live ones (past `kCompactMinDeadEntries`); callable
  /// explicitly after bulk churn.
  void compact();
  /// Tombstoned entries not yet reclaimed by compaction.
  [[nodiscard]] std::size_t dead_entries() const { return dead_entries_; }
  [[nodiscard]] const MutationStats& mutation_stats() const {
    return mstats_;
  }

  // --- freezing (the concurrent read path, DESIGN.md §8) ---

  /// Returns an immutable snapshot of the live corpus, tagged with the
  /// caller's membership `epoch`. Queries against the snapshot are
  /// bit-identical to the same queries against this engine right now —
  /// they run through the same kernels over the same bytes. Nothing the
  /// engine writes after the freeze is visible to the snapshot: entry
  /// chunks and posting blocks are append-only, so the snapshot shares
  /// them and sees only the prefix that existed when it was cut. A
  /// freeze copies just the small components whose version moved (the
  /// row table, the per-list views, handle lists, and the replica index
  /// when a new replica appeared); a fully clean same-epoch freeze
  /// returns the retained snapshot itself. Writer-side call: not safe
  /// concurrently with mutations.
  [[nodiscard]] std::shared_ptr<const EngineSnapshot> freeze(
      std::uint64_t epoch);

  // --- single-query paths ---

  /// Similarity of `query` to every corpus row, indexed by row position
  /// (0 for dead rows). Bit-identical to calling
  /// `similarity(kind, query, map)` per live map. If `touched_maps` is
  /// non-null it receives the number of corpus maps sharing at least one
  /// replica with the query — the work the inverted index actually did.
  [[nodiscard]] std::vector<double> scores(const RatioMap& query) const;
  void scores(const RatioMap& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const;

  /// Same, with corpus row `index` as the query (no RatioMap needed; uses
  /// the CSR row). scores_of(i)[i] is the self-similarity (1 for any
  /// non-empty live map under all three metrics). A dead row scores 0
  /// against everything.
  [[nodiscard]] std::vector<double> scores_of(std::size_t index) const;
  void scores_of(std::size_t index, std::span<double> out,
                 std::size_t* touched_maps = nullptr) const;

  /// Same, with a raw row view (possibly another engine's) as the query.
  /// Bit-identical to `scores` over the RatioMap the view was built
  /// from: the entries, their order and the norm are the originals.
  void scores(const RowView& query, std::span<double> out,
              std::size_t* touched_maps = nullptr) const;

  /// The best-scoring *live* row for the query — `top_k(query, 1)[0]`
  /// without the sort or the allocation: highest similarity, ties to the
  /// lowest row index, and the first live row (at similarity 0) when no
  /// row shares a replica with the query. nullopt iff no live rows.
  /// This is SMF's argmax-over-centers: O(query postings), independent
  /// of the corpus row count.
  [[nodiscard]] std::optional<RankedCandidate> best_match(
      const RowView& query, std::size_t* touched_maps = nullptr) const;

  /// All *live* corpus maps ranked by similarity to `query`, best first,
  /// ties and zero-similarity maps in row order — the same contract (and
  /// bit-identical result) as `rank_candidates` over the live maps.
  [[nodiscard]] std::vector<RankedCandidate> rank_all(
      const RatioMap& query) const;

  /// Top-k of `rank_all` without materializing the full ranking: only
  /// maps sharing a replica with the query are scored and sorted;
  /// zero-similarity live maps pad the tail in row order if k exceeds
  /// the number of comparable maps. Dead rows are never returned.
  [[nodiscard]] std::vector<RankedCandidate> top_k(const RatioMap& query,
                                                   std::size_t k) const;

  /// Number of corpus maps with strictly positive similarity to `query`.
  /// Fast path: counts touched postings, computes no scores.
  [[nodiscard]] std::size_t comparable_count(const RatioMap& query) const;

  // --- batch paths (parallel across queries, deterministic) ---

  /// top_k for every corpus row as the query, indexed by row position.
  /// `pool` defaults to `ThreadPool::shared()`.
  [[nodiscard]] std::vector<std::vector<RankedCandidate>> all_top_k(
      std::size_t k, ThreadPool* pool = nullptr) const;

  /// Full similarity matrix, `result(i, j) = similarity(map_i, map_j)`,
  /// in one row-major allocation. Symmetric; diagonal is the
  /// self-similarity; dead rows/columns are 0.
  [[nodiscard]] FlatMatrix<double> pairwise_similarities(
      ThreadPool* pool = nullptr) const;

  /// The kernels' borrowed view of this engine's storage — how readers
  /// outside the engine (the service's shard reader) run the shared
  /// `engine_detail` kernels. Valid until the next mutation.
  [[nodiscard]] engine_detail::CorpusView view() const {
    return engine_detail::CorpusView{kind_, rows_, norms_, &replica_slot_,
                                     post_, open_gen_, live_rows_};
  }

 private:
  [[nodiscard]] std::span<const RatioMap::Entry> row(std::size_t index) const {
    return {rows_[index].data, rows_[index].len};
  }

  /// Copies `src` to the tail of the entry arena (starting a new chunk
  /// when the tail chunk cannot hold it whole) and returns where it
  /// landed. Never writes below an existing segment.
  const RatioMap::Entry* append_entries(std::span<const RatioMap::Entry> src);
  /// Appends one posting to list `list`, moving the list to a block of
  /// twice the capacity when its block is full.
  void append_posting(std::uint32_t list, const engine_detail::Posting& p);
  /// Writes the view's entries as row `index`'s segment (at the tail of
  /// the arena) and appends its postings.
  void write_row(std::size_t index, const RowView& source);
  /// Shared slot pick + bookkeeping behind add/add_row.
  std::size_t add_impl(const RowView& source);
  /// Stamps row `index`'s live postings dead at the open generation and
  /// orphans its entry segment.
  void tombstone_row(std::size_t index);
  /// Drops every entry chunk and posting block (lists keep their slots,
  /// emptied) when a snapshot may still read them; otherwise only
  /// rewinds them for reuse. Behind clear() and compact().
  void restart_storage();
  void maybe_compact();

  SimilarityKind kind_;

  // Row table: per-slot metadata, copied whole by a freeze that finds it
  // dirty (24 B per slot).
  std::vector<engine_detail::Row> rows_;
  std::vector<double> norms_;  // RatioMap::norm() per row
  std::vector<std::uint32_t> free_rows_;  // dead slots, reused LIFO by add
  std::size_t live_rows_ = 0;
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;

  // Entry arena: fixed-capacity chunks, written append-only. Rows never
  // straddle chunks, so a row is one (pointer, length) pair. Snapshots
  // hold the chunk handles, so the writer appending past their frozen
  // rows never touches a byte they read.
  std::vector<std::shared_ptr<RatioMap::Entry[]>> chunks_;
  std::size_t tail_used_ = 0;  // entries used in chunks_.back()
  std::size_t tail_cap_ = 0;   // capacity of chunks_.back()

  // Inverted index: replica -> posting list. Lists keep insertion order;
  // within one replica each row has at most one live posting, so posting
  // order never affects the per-map accumulation order (which follows
  // the query's sorted entries). post_[l] is list l's kernel view into
  // post_blocks_[l], an append-only block of post_cap_[l] postings.
  std::unordered_map<ReplicaId, std::uint32_t> replica_slot_;
  std::vector<engine_detail::PostingList> post_;
  std::vector<std::shared_ptr<engine_detail::Posting[]>> post_blocks_;
  std::vector<std::uint32_t> post_cap_;
  std::size_t live_replicas_ = 0;  // posting lists with live > 0
  // Tombstone generations (engine_detail::Posting): tombstones stamp
  // open_gen_, and a freeze hands its snapshot open_gen_ as the horizon
  // (remembered in frozen_gen_); the first stamp after a freeze opens
  // the next generation. Fresh storage (clear, compact) holds no stamps
  // and no snapshot reads it, so both restart — which bounds the
  // generation by the tombstones between compactions.
  std::uint32_t open_gen_ = 1;
  std::uint32_t frozen_gen_ = 0;

  MutationStats mstats_;

  // Per-component dirt tracking for freeze()'s structural sharing. A
  // component's version bumps whenever a mutation touches it; freeze()
  // copies exactly the components whose version moved since the
  // snapshot it retains was cut, and shares the rest:
  //  * rows_version_     — the row table (add/update/remove/compact)
  //  * chunks_version_   — the chunk handle list (a new chunk starts)
  //  * replicas_version_ — replica_slot_ (a never-seen replica appears)
  //  * postings_version_ — the per-list (size, live) views
  //  * blocks_version_   — the posting block handles (a block grows)
  // Entry and posting *bytes* are never copied by a freeze: they are
  // append-only, so every snapshot shares them.
  std::uint64_t rows_version_ = 0;
  std::uint64_t chunks_version_ = 0;
  std::uint64_t replicas_version_ = 0;
  std::uint64_t postings_version_ = 0;
  std::uint64_t blocks_version_ = 0;
  // Set once a freeze captured the current chunks/blocks: clear() and
  // compact() must then start fresh storage instead of rewriting it.
  bool storage_frozen_ = false;

  struct FreezeCache {
    std::shared_ptr<const EngineSnapshot> snapshot;
    std::uint64_t rows_version = 0;
    std::uint64_t chunks_version = 0;
    std::uint64_t replicas_version = 0;
    std::uint64_t postings_version = 0;
    std::uint64_t blocks_version = 0;
  };
  FreezeCache freeze_cache_;
};

}  // namespace crp::core
