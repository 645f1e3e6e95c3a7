// One randomized oracle for the single read path (service/read_path.hpp):
// every read kind — closest, closest_any, both tiered queries, top_k,
// both closest_batch overloads and the gathered queries — on every
// surface that answers through it — a PositionService, its
// ServingSnapshot, and ShardedFrontend Views at 1, 2 and 4 shards — is
// compared with a naive per-pair core::similarity ranking written here,
// never with another optimized path. EXPECT_EQ on the doubles: the
// answers are bit-identical by contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/similarity.hpp"
#include "service/position_service.hpp"
#include "service/serving_snapshot.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::service {
namespace {

using Rows = std::vector<std::vector<RankedNode>>;

core::RatioMap random_map(Rng& rng) {
  std::vector<core::RatioMap::Entry> entries;
  const int n = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < n; ++i) {
    entries.emplace_back(
        ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, 24))},
        rng.uniform(0.05, 1.0));
  }
  return core::RatioMap::from_ratios(entries);
}

/// The naive reference: the accepted reports, ranked pair by pair.
struct Model {
  ServiceConfig config;
  std::map<std::string, PositionReport> reports;

  [[nodiscard]] bool live(const PositionReport& r, SimTime now) const {
    return now - r.when <= config.staleness_bound;
  }
  [[nodiscard]] bool stale_usable(const PositionReport& r, SimTime now) const {
    return config.stale_usable_bound > config.staleness_bound &&
           now - r.when > config.staleness_bound &&
           now - r.when <= config.stale_usable_bound;
  }

  /// `ids` (or every node when nullopt) minus the client, unknown and
  /// unusable ones, ranked by (similarity desc, id asc), at most k.
  [[nodiscard]] std::vector<RankedNode> rank(
      const core::RatioMap& query, const std::string* client,
      const std::optional<std::vector<std::string>>& ids, bool stale_band,
      std::size_t k, SimTime now) const {
    std::vector<std::string> pool;
    if (ids.has_value()) {
      pool = *ids;
    } else {
      for (const auto& [id, r] : reports) pool.push_back(id);
    }
    std::vector<RankedNode> ranked;
    for (const std::string& id : pool) {
      if (client != nullptr && id == *client) continue;
      const auto it = reports.find(id);
      if (it == reports.end()) continue;
      if (!live(it->second, now) &&
          !(stale_band && stale_usable(it->second, now))) {
        continue;
      }
      ranked.push_back(RankedNode{
          id, core::similarity(config.metric, query, it->second.map)});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const RankedNode& a, const RankedNode& b) {
                       if (a.similarity != b.similarity) {
                         return a.similarity > b.similarity;
                       }
                       return a.node_id < b.node_id;
                     });
    if (ranked.size() > k) ranked.resize(k);
    return ranked;
  }

  /// Plain closest/closest_any: a live client's live ranking, else {}.
  [[nodiscard]] std::vector<RankedNode> plain(
      const std::string& client,
      const std::optional<std::vector<std::string>>& ids, std::size_t k,
      SimTime now) const {
    const auto it = reports.find(client);
    if (it == reports.end() || !live(it->second, now)) return {};
    return rank(it->second.map, &client, ids, false, k, now);
  }

  [[nodiscard]] TieredAnswer tiered(
      const std::string& client,
      const std::optional<std::vector<std::string>>& ids, std::size_t k,
      SimTime now) const {
    TieredAnswer out;
    const auto it = reports.find(client);
    if (it == reports.end()) {
      out.reason = DegradedReason::kUnknownClient;
      return out;
    }
    const bool fresh = live(it->second, now);
    if (!fresh && !stale_usable(it->second, now)) {
      out.reason = DegradedReason::kClientExpired;
      return out;
    }
    out.ranked = rank(it->second.map, &client, ids, !fresh, k, now);
    if (out.ranked.empty()) {
      out.reason = DegradedReason::kNoUsableCandidates;
      return out;
    }
    out.tier = fresh ? AnswerTier::kFresh : AnswerTier::kStale;
    out.reason = fresh ? DegradedReason::kNone : DegradedReason::kStaleClient;
    return out;
  }
};

void expect_ranked(const std::vector<RankedNode>& got,
                   const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

void expect_tiered(const TieredAnswer& got, const TieredAnswer& want) {
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.reason, want.reason);
  expect_ranked(got.ranked, want.ranked);
}

/// Every read kind of one surface, with the pool forwarded where the
/// surface takes one (Views scatter on it; batches chunk on it).
template <typename S>
struct Reads {
  static constexpr bool kView = std::is_same_v<S, ShardedFrontend::View>;
  const S& s;
  ThreadPool* pool;

  auto closest(const std::string& c, std::span<const std::string> cands,
               std::size_t k, SimTime now) const {
    if constexpr (kView) return s.closest(c, cands, k, now, pool);
    else return s.closest(c, cands, k, now);
  }
  auto closest_any(const std::string& c, std::size_t k, SimTime now) const {
    if constexpr (kView) return s.closest_any(c, k, now, pool);
    else return s.closest_any(c, k, now);
  }
  auto closest_tiered(const std::string& c,
                      std::span<const std::string> cands, std::size_t k,
                      SimTime now) const {
    if constexpr (kView) return s.closest_tiered(c, cands, k, now, pool);
    else return s.closest_tiered(c, cands, k, now);
  }
  auto closest_any_tiered(const std::string& c, std::size_t k,
                          SimTime now) const {
    if constexpr (kView) return s.closest_any_tiered(c, k, now, pool);
    else return s.closest_any_tiered(c, k, now);
  }
  auto top_k(const core::RatioMap& q, std::size_t k, SimTime now) const {
    if constexpr (kView) return s.top_k(q, k, now, pool);
    else return s.top_k(q, k, now);
  }
};

struct Probe {
  std::vector<std::string> clients;
  std::vector<std::vector<std::string>> candidate_lists;
  std::vector<core::RatioMap> queries;
};

template <typename S>
void expect_surface(const S& surface, const Model& model, const Probe& probe,
                    SimTime now, ThreadPool* pool) {
  const Reads<S> reads{surface, pool};
  EXPECT_EQ(surface.live_nodes(now),
            [&] {
              std::vector<std::string> live;
              for (const auto& [id, r] : model.reports) {
                if (model.live(r, now)) live.push_back(id);
              }
              return live;
            }());
  for (const std::string& c : probe.clients) {
    SCOPED_TRACE("client " + c);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{100}}) {
      expect_ranked(reads.closest_any(c, k, now),
                    model.plain(c, std::nullopt, k, now));
    }
    expect_tiered(reads.closest_any_tiered(c, 4, now),
                  model.tiered(c, std::nullopt, 4, now));
    for (const auto& cands : probe.candidate_lists) {
      expect_ranked(reads.closest(c, cands, 3, now),
                    model.plain(c, cands, 3, now));
      expect_tiered(reads.closest_tiered(c, cands, 3, now),
                    model.tiered(c, cands, 3, now));
    }
  }
  for (const auto& q : probe.queries) {
    expect_ranked(reads.top_k(q, 5, now),
                  model.rank(q, nullptr, std::nullopt, false, 5, now));
  }
  const Rows any = surface.closest_batch(probe.clients, 3, now, pool);
  ASSERT_EQ(any.size(), probe.clients.size());
  for (std::size_t i = 0; i < any.size(); ++i) {
    SCOPED_TRACE("batch client " + probe.clients[i]);
    expect_ranked(any[i], model.plain(probe.clients[i], std::nullopt, 3, now));
  }
  for (const auto& cands : probe.candidate_lists) {
    const Rows rows = surface.closest_batch(probe.clients, cands, 3, now, pool);
    ASSERT_EQ(rows.size(), probe.clients.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SCOPED_TRACE("batch client " + probe.clients[i]);
      expect_ranked(rows[i], model.plain(probe.clients[i], cands, 3, now));
    }
  }
}

/// Gathered queries on a healthy view: the tiered answer, complete.
void expect_gathered(const ShardedFrontend::View& view, const Model& model,
                     const Probe& probe, SimTime now, ThreadPool* pool) {
  for (const std::string& c : probe.clients) {
    SCOPED_TRACE("gathered client " + c);
    const GatheredAnswer any = view.closest_any_gathered(c, 4, now, pool);
    expect_tiered(any.tiered, model.tiered(c, std::nullopt, 4, now));
    EXPECT_TRUE(any.completeness.complete());
    EXPECT_FALSE(any.completeness.any_stale());
    EXPECT_EQ(any.completeness.shards_answered, view.shard_count());
    for (const auto& cands : probe.candidate_lists) {
      expect_tiered(view.closest_gathered(c, cands, 3, now, pool).tiered,
                    model.tiered(c, cands, 3, now));
    }
  }
}

class ReadPathOracle
    : public ::testing::TestWithParam<core::SimilarityKind> {};

TEST_P(ReadPathOracle, EverySurfaceMatchesNaiveRanking) {
  for (const bool stale_tier : {true, false}) {
    SCOPED_TRACE(stale_tier ? "stale tier on" : "stale tier off");
    Model model;
    model.config.metric = GetParam();
    model.config.staleness_bound = Hours(6);
    model.config.stale_usable_bound = stale_tier ? Hours(12) : Duration{0};

    PositionService svc{model.config};
    std::vector<std::unique_ptr<ShardedFrontend>> fronts;
    for (const std::size_t shards : {1, 2, 4}) {
      ShardedFrontendConfig fc;
      fc.shards = shards;
      fc.service = model.config;
      fronts.push_back(std::make_unique<ShardedFrontend>(fc));
    }

    // Churn: publishes (new and updated), removals and expiries over a
    // 30 h history, so the corpus holds tombstones, reused slots and
    // reports of every age.
    Rng rng{hash_combine({777, static_cast<std::uint64_t>(GetParam()),
                          stale_tier ? 1ULL : 0ULL})};
    SimTime now = SimTime::epoch();
    std::vector<std::string> ids;
    for (int i = 0; i < 40; ++i) ids.push_back("n-" + std::to_string(i));
    for (int step = 0; step < 240; ++step) {
      now = now + Minutes(rng.uniform_int(1, 15));
      const std::string& id = ids[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.75) {
        const PositionReport r{id, now, random_map(rng)};
        const bool accepted = svc.publish(r, now);
        for (auto& fe : fronts) EXPECT_EQ(fe->publish(r, now), accepted);
        if (accepted) model.reports[id] = r;
      } else if (roll < 0.93) {
        const bool dropped = svc.remove(id);
        for (auto& fe : fronts) EXPECT_EQ(fe->remove(id), dropped);
        model.reports.erase(id);
      } else {
        const std::size_t dropped = svc.expire(now);
        for (auto& fe : fronts) EXPECT_EQ(fe->expire(now), dropped);
        const Duration bound = std::max(model.config.staleness_bound,
                                        model.config.stale_usable_bound);
        std::erase_if(model.reports, [&](const auto& kv) {
          return now - kv.second.when > bound;
        });
      }
    }
    const auto snap = svc.publish_snapshot(now);
    // The history reaches every case the oracle claims to cover.
    EXPECT_GT(svc.stats().postings_tombstoned, 0u);
    std::size_t stale = 0;
    std::size_t expired = 0;
    for (const auto& [id, r] : model.reports) {
      const SimTime at = now + Hours(5);
      stale += model.stale_usable(r, at) ? 1 : 0;
      expired += !model.live(r, at) && !model.stale_usable(r, at) ? 1 : 0;
    }
    EXPECT_GT(expired, 0u);
    if (stale_tier) EXPECT_GT(stale, 0u);

    Probe probe;
    probe.clients = ids;
    probe.clients.push_back("unknown");
    probe.clients.push_back(ids[3]);  // duplicate
    probe.candidate_lists.push_back({});  // empty candidate list
    probe.candidate_lists.push_back({"unknown", "also-unknown"});
    std::vector<std::string> mixed;
    for (std::size_t i = 0; i < ids.size(); i += 3) mixed.push_back(ids[i]);
    mixed.push_back(ids[0]);  // duplicate
    mixed.push_back("unknown");
    probe.candidate_lists.push_back(mixed);
    probe.queries = {random_map(rng), random_map(rng)};

    // Query times: just after the history, then with the tail in the
    // stale band, then with most reports expired but not yet dropped.
    for (const Duration later : {Minutes(1), Hours(5), Hours(10)}) {
      const SimTime at = now + later;
      for (const std::size_t workers :
           {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
        ThreadPool pool{workers};
        SCOPED_TRACE(::testing::Message() << "at +" << later.micros()
                                          << "us, workers " << workers);
        {
          SCOPED_TRACE("PositionService");
          expect_surface(svc, model, probe, at, &pool);
        }
        {
          SCOPED_TRACE("ServingSnapshot");
          expect_surface(*snap, model, probe, at, &pool);
        }
        for (const auto& fe : fronts) {
          SCOPED_TRACE(::testing::Message()
                       << "View at " << fe->shard_count() << " shard(s)");
          const auto view = fe->view();
          expect_surface(view, model, probe, at, &pool);
          expect_gathered(view, model, probe, at, &pool);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ReadPathOracle,
    ::testing::Values(core::SimilarityKind::kCosine,
                      core::SimilarityKind::kJaccard,
                      core::SimilarityKind::kWeightedOverlap));

// The similarity_queries rule: a (client, shard) partial runs — and
// counts — one engine query iff some candidate survives vetting and the
// client's own exclusion; with nothing to rank, nothing is scored.
TEST(ReadPathCounters, EngineQueryOnlyWhenSomethingToRank) {
  const SimTime t0 = SimTime::epoch();
  const auto map = core::RatioMap::from_ratios(
      std::vector<core::RatioMap::Entry>{{ReplicaId{1}, 1.0}});
  for (const std::size_t shards : {1, 4}) {
    ShardedFrontendConfig fc;
    fc.shards = shards;
    ShardedFrontend fe{fc};
    ASSERT_TRUE(fe.publish(PositionReport{"a", t0, map}, t0));
    ASSERT_TRUE(fe.publish(PositionReport{"b", t0, map}, t0));
    const auto view = fe.view();
    const std::vector<std::string> none{"ghost"};
    const std::vector<std::string> self{"a", "a"};
    const std::vector<std::string> other{"b"};
    (void)view.closest("a", none, 3, t0);
    (void)view.closest("a", self, 3, t0);
    (void)view.closest_batch(std::vector<std::string>{"a", "b"}, none, 3, t0);
    EXPECT_EQ(fe.stats().similarity_queries, 0u) << shards;
    // One candidate to rank: exactly one engine query, on its shard.
    (void)view.closest("a", other, 3, t0);
    EXPECT_EQ(fe.stats().similarity_queries, 1u) << shards;
    EXPECT_EQ(fe.stats().queries_served, 5u) << shards;
  }
}

}  // namespace
}  // namespace crp::service
