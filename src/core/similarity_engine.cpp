#include "core/similarity_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "common/thread_pool.hpp"
#include "core/engine_snapshot.hpp"

namespace crp::core {

using engine_detail::Posting;
using engine_detail::PostingList;
using engine_detail::Row;

SimilarityEngine::SimilarityEngine(SimilarityKind kind) : kind_(kind) {}

SimilarityEngine::SimilarityEngine(std::span<const RatioMap> corpus,
                                   SimilarityKind kind)
    : kind_(kind) {
  const std::size_t n = corpus.size();
  rows_.reserve(n);
  norms_.reserve(n);
  // Building via add() keeps each posting list ordered by row index
  // (insertion order), matching the historical static build.
  for (const RatioMap& map : corpus) (void)add(map);
  mstats_ = MutationStats{};  // a fresh build is not "mutation" churn
}

namespace {

/// Entries per arena chunk (64 KiB of 16-byte entries). A row longer
/// than this gets a chunk of its own length.
constexpr std::size_t kEntryChunk = 4096;
/// First block capacity of a posting list; blocks double from there.
constexpr std::uint32_t kFirstPostingBlock = 8;

}  // namespace

const RatioMap::Entry* SimilarityEngine::append_entries(
    std::span<const RatioMap::Entry> src) {
  if (src.empty()) return nullptr;
  if (chunks_.empty() || tail_used_ + src.size() > tail_cap_) {
    tail_cap_ = std::max(kEntryChunk, src.size());
    chunks_.push_back(std::shared_ptr<RatioMap::Entry[]>(
        new RatioMap::Entry[tail_cap_]));
    tail_used_ = 0;
    ++chunks_version_;
  }
  RatioMap::Entry* dst = chunks_.back().get() + tail_used_;
  std::copy(src.begin(), src.end(), dst);
  tail_used_ += src.size();
  return dst;
}

void SimilarityEngine::append_posting(std::uint32_t list, const Posting& p) {
  PostingList& view = post_[list];
  if (view.size == post_cap_[list]) {
    // Grow into a fresh block: snapshots keep reading the old one, so
    // it is never resized or written in place.
    const std::uint32_t cap =
        std::max(kFirstPostingBlock, 2 * post_cap_[list]);
    std::shared_ptr<Posting[]> block(new Posting[cap]);
    std::copy(view.items, view.items + view.size, block.get());
    post_blocks_[list] = std::move(block);
    post_cap_[list] = cap;
    view.items = post_blocks_[list].get();
    ++blocks_version_;
  }
  post_blocks_[list][view.size] = p;
  ++view.size;
}

void SimilarityEngine::write_row(std::size_t index, const RowView& source) {
  const auto src = source.entries;
  rows_[index] = Row{append_entries(src),
                     static_cast<std::uint32_t>(src.size()), true};
  norms_[index] = source.norm;
  live_entries_ += src.size();
  ++rows_version_;
  ++postings_version_;

  const auto map = static_cast<std::uint32_t>(index);
  for (const auto& [id, ratio] : src) {
    const auto [it, inserted] =
        replica_slot_.try_emplace(id, static_cast<std::uint32_t>(post_.size()));
    if (inserted) {
      post_.emplace_back();
      post_blocks_.emplace_back();
      post_cap_.push_back(0);
      ++replicas_version_;
    }
    PostingList& list = post_[it->second];
    if (list.live == 0) ++live_replicas_;
    ++list.live;
    append_posting(it->second, Posting{map, ratio});
  }
}

void SimilarityEngine::tombstone_row(std::size_t index) {
  const Row& r = rows_[index];
  const auto map = static_cast<std::uint32_t>(index);
  // Stamps must land past every snapshot's horizon: open a generation
  // after the newest snapshot's if this is its first stamp.
  if (open_gen_ == frozen_gen_) ++open_gen_;
  for (const auto& [id, ratio] : row(index)) {
    const std::uint32_t l = replica_slot_.at(id);
    PostingList& list = post_[l];
    Posting* const items = post_blocks_[l].get();
    for (std::uint32_t i = 0; i < list.size; ++i) {
      // The row has exactly one live posting per replica it holds.
      Posting& p = items[i];
      if (p.map == map &&
          p.dead_at.load(std::memory_order_relaxed) == Posting::kLive) {
        p.dead_at.store(open_gen_, std::memory_order_relaxed);
        break;
      }
    }
    if (--list.live == 0) --live_replicas_;
    ++mstats_.postings_tombstoned;
  }
  // The orphaned entry segment's bytes are untouched.
  dead_entries_ += r.len;
  live_entries_ -= r.len;
  ++postings_version_;
}

std::size_t SimilarityEngine::add_impl(const RowView& source) {
  std::size_t index;
  if (!free_rows_.empty()) {
    index = free_rows_.back();
    free_rows_.pop_back();
  } else {
    index = rows_.size();
    rows_.emplace_back();
    norms_.push_back(0.0);
  }
  write_row(index, source);
  ++live_rows_;
  ++mstats_.adds;
  return index;
}

std::size_t SimilarityEngine::add(const RatioMap& map) {
  return add_impl(engine_detail::as_query(map));
}

std::size_t SimilarityEngine::add_row(const RowView& row) {
  return add_impl(row);
}

void SimilarityEngine::restart_storage() {
  // A frozen snapshot may read any existing chunk or block, so those are
  // dropped (the snapshots keep them alive); storage no freeze has seen
  // is rewound and reused in place — the allocation-free reuse clear()
  // promises the SMF center index, which is never frozen.
  if (storage_frozen_) {
    chunks_.clear();
    tail_cap_ = 0;
    for (std::size_t l = 0; l < post_.size(); ++l) {
      post_blocks_[l].reset();
      post_cap_[l] = 0;
      post_[l].items = nullptr;
    }
    storage_frozen_ = false;
    ++blocks_version_;
  } else if (chunks_.size() > 1) {
    chunks_.erase(chunks_.begin(), chunks_.end() - 1);
  }
  tail_used_ = 0;
  ++chunks_version_;
  for (PostingList& list : post_) {
    list.size = 0;
    list.live = 0;
  }
  ++postings_version_;
  open_gen_ = 1;
  frozen_gen_ = 0;
}

void SimilarityEngine::clear(SimilarityKind kind) {
  kind_ = kind;
  rows_.clear();
  norms_.clear();
  free_rows_.clear();
  live_rows_ = 0;
  live_entries_ = 0;
  dead_entries_ = 0;
  // Keep the replica map's buckets and the posting-list slots — the
  // whole point of clear() over a fresh engine is reusing them — but
  // empty every list.
  restart_storage();
  live_replicas_ = 0;
  mstats_ = MutationStats{};
  ++rows_version_;
}

void SimilarityEngine::update(std::size_t index, const RatioMap& map) {
  assert(index < rows_.size() && rows_[index].live);
  tombstone_row(index);
  write_row(index, engine_detail::as_query(map));
  ++mstats_.updates;
  maybe_compact();
}

void SimilarityEngine::remove(std::size_t index) {
  assert(index < rows_.size() && rows_[index].live);
  tombstone_row(index);
  rows_[index] = Row{};
  norms_[index] = 0.0;
  free_rows_.push_back(static_cast<std::uint32_t>(index));
  --live_rows_;
  ++mstats_.removes;
  ++rows_version_;
  maybe_compact();
}

void SimilarityEngine::maybe_compact() {
  if (dead_entries_ >= kCompactMinDeadEntries &&
      dead_entries_ >= live_entries_) {
    compact();
  }
}

void SimilarityEngine::compact() {
  if (dead_entries_ == 0) return;
  // Live rows and live postings are copied out of the old
  // storage into fresh chunks and blocks, in row order and original
  // posting order; dead rows keep their slot (and their zero length), so
  // no external index moves. The old storage is held until the rewrite
  // is done, and never rewound: snapshots may still be reading it.
  const auto old_chunks = chunks_;
  const auto old_blocks = post_blocks_;
  const std::vector<PostingList> old_post = post_;
  storage_frozen_ = true;
  restart_storage();
  for (Row& r : rows_) {
    if (!r.live) continue;
    r.data = append_entries({r.data, r.len});
  }
  for (std::size_t l = 0; l < old_post.size(); ++l) {
    for (const Posting& p : old_post[l].postings()) {
      if (p.dead_at.load(std::memory_order_relaxed) != Posting::kLive) {
        continue;
      }
      append_posting(static_cast<std::uint32_t>(l), p);
    }
    post_[l].live = old_post[l].live;
  }
  dead_entries_ = 0;
  ++mstats_.compactions;
  ++rows_version_;
}

std::shared_ptr<const EngineSnapshot> SimilarityEngine::freeze(
    std::uint64_t epoch) {
  FreezeCache& c = freeze_cache_;
  const bool have = c.snapshot != nullptr;
  const bool rows_clean = have && c.rows_version == rows_version_;
  const bool chunks_clean = have && c.chunks_version == chunks_version_;
  const bool replicas_clean = have && c.replicas_version == replicas_version_;
  const bool postings_clean = have && c.postings_version == postings_version_;
  const bool blocks_clean = have && c.blocks_version == blocks_version_;
  if (rows_clean && chunks_clean && replicas_clean && postings_clean &&
      blocks_clean && c.snapshot->epoch() == epoch) {
    return c.snapshot;
  }

  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->kind_ = kind_;
  snap->epoch_ = epoch;
  snap->live_rows_ = live_rows_;
  snap->live_replicas_ = live_replicas_;
  // Copy exactly the components a mutation dirtied since the retained
  // snapshot was cut; share the rest. Entry and posting bytes are never
  // copied — only the handles that keep their chunks and blocks alive.
  std::uint64_t copied = 0;
  if (rows_clean) {
    snap->rows_ = c.snapshot->rows_;
  } else {
    snap->rows_ = std::make_shared<const EngineSnapshot::RowTable>(
        EngineSnapshot::RowTable{rows_, norms_});
    copied += rows_.size() * (sizeof(Row) + sizeof(double));
  }
  if (chunks_clean) {
    snap->chunks_ = c.snapshot->chunks_;
  } else {
    snap->chunks_ = std::make_shared<const EngineSnapshot::Handles<
        RatioMap::Entry>>(chunks_.begin(), chunks_.end());
    copied += chunks_.size() * sizeof(chunks_[0]);
  }
  if (replicas_clean) {
    snap->replica_slot_ = c.snapshot->replica_slot_;
  } else {
    snap->replica_slot_ = std::make_shared<
        const std::unordered_map<ReplicaId, std::uint32_t>>(replica_slot_);
    copied += replica_slot_.size() *
              sizeof(std::pair<const ReplicaId, std::uint32_t>);
  }
  if (postings_clean) {
    snap->post_ = c.snapshot->post_;
  } else {
    snap->post_ = std::make_shared<const std::vector<PostingList>>(post_);
    copied += post_.size() * sizeof(PostingList);
  }
  if (blocks_clean) {
    snap->post_blocks_ = c.snapshot->post_blocks_;
  } else {
    snap->post_blocks_ =
        std::make_shared<const EngineSnapshot::Handles<Posting>>(
            post_blocks_.begin(), post_blocks_.end());
    copied += post_blocks_.size() * sizeof(post_blocks_[0]);
  }
  mstats_.snapshot_bytes_copied += copied;
  storage_frozen_ = true;
  // Tombstones stamped so far are within this snapshot's horizon; the
  // next stamp opens a later generation (tombstone_row).
  snap->horizon_ = open_gen_;
  frozen_gen_ = open_gen_;
  c.snapshot = snap;
  c.rows_version = rows_version_;
  c.chunks_version = chunks_version_;
  c.replicas_version = replicas_version_;
  c.postings_version = postings_version_;
  c.blocks_version = blocks_version_;
  return snap;
}

// --- query forwarding: every public query runs the shared kernels over
// --- this engine's CorpusView (bit-identity with EngineSnapshot by
// --- construction — same code, same storage bytes).

void SimilarityEngine::scores(const RatioMap& query, std::span<double> out,
                              std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), engine_detail::as_query(query), out,
                              touched_maps);
}

std::vector<double> SimilarityEngine::scores(const RatioMap& query) const {
  std::vector<double> out(size());
  scores(query, out);
  return out;
}

void SimilarityEngine::scores_of(std::size_t index, std::span<double> out,
                                 std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), row_view(index), out, touched_maps);
}

std::vector<double> SimilarityEngine::scores_of(std::size_t index) const {
  std::vector<double> out(size());
  scores_of(index, out);
  return out;
}

void SimilarityEngine::scores(const RowView& query, std::span<double> out,
                              std::size_t* touched_maps) const {
  engine_detail::dense_scores(view(), query, out, touched_maps);
}

std::optional<RankedCandidate> SimilarityEngine::best_match(
    const RowView& query, std::size_t* touched_maps) const {
  return engine_detail::best_match(view(), query, touched_maps);
}

std::vector<RankedCandidate> SimilarityEngine::rank_all(
    const RatioMap& query) const {
  return engine_detail::rank_all(view(), engine_detail::as_query(query));
}

std::vector<RankedCandidate> SimilarityEngine::top_k(const RatioMap& query,
                                                     std::size_t k) const {
  std::vector<RankedCandidate> out;
  engine_detail::top_k_into(view(), engine_detail::as_query(query), k, out);
  return out;
}

std::size_t SimilarityEngine::comparable_count(const RatioMap& query) const {
  return engine_detail::comparable_count(view(),
                                         engine_detail::as_query(query));
}

std::vector<std::vector<RankedCandidate>> SimilarityEngine::all_top_k(
    std::size_t k, ThreadPool* pool) const {
  std::vector<std::vector<RankedCandidate>> out(size());
  const engine_detail::CorpusView v = view();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, size(), [this, v, k, &out](std::size_t i) {
    engine_detail::top_k_into(v, row_view(i), k, out[i]);
  });
  return out;
}

FlatMatrix<double> SimilarityEngine::pairwise_similarities(
    ThreadPool* pool) const {
  FlatMatrix<double> out(size(), size());
  const engine_detail::CorpusView v = view();
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::shared();
  p.parallel_for(0, size(), [this, v, &out](std::size_t i) {
    engine_detail::dense_scores(v, row_view(i), out.row(i), nullptr);
  });
  return out;
}

}  // namespace crp::core
