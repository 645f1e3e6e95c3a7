// Snapshot publishing cost (DESIGN.md §8 "Structural sharing and the
// publish cost model"): the freeze-work counter
// ServiceStats::snapshot_bytes_copied, the node table's incremental
// maintenance, a randomized immutability oracle for snapshots that
// share storage with a still-writing service, and the
// SnapshotSharingStress suite the TSan CI job runs.
#include "service/serving_snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine_kernels.hpp"
#include "service/position_service.hpp"
#include "service/wire.hpp"

namespace crp::service {
namespace {

PositionReport random_report(Rng& rng, const std::string& id, SimTime when,
                             std::uint32_t replicas, int entries) {
  std::vector<std::pair<ReplicaId, double>> ratios;
  for (int j = 0; j < entries; ++j) {
    ratios.emplace_back(
        ReplicaId{static_cast<std::uint32_t>(rng.uniform_int(0, replicas - 1))},
        rng.uniform(0.05, 1.0));
  }
  PositionReport r;
  r.node_id = id;
  r.when = when;
  r.map = core::RatioMap::from_ratios(ratios);
  return r;
}

std::string node_name(std::size_t i) { return "node-" + std::to_string(i); }

std::vector<std::string> encode_all(const std::vector<PositionReport>& rs) {
  std::vector<std::string> out;
  out.reserve(rs.size());
  for (const PositionReport& r : rs) out.push_back(*encode(r));
  return out;
}

void expect_same_ranking(const std::vector<RankedNode>& got,
                         const std::vector<RankedNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node_id, want[i].node_id);
    EXPECT_EQ(got[i].similarity, want[i].similarity);  // bit-identical
  }
}

std::uint64_t bytes_copied(const PositionService& service) {
  return service.stats().snapshot_bytes_copied;
}

// --- the freeze-work counter ---

TEST(SnapshotBytesCopied, CleanRepublishCopiesNothing) {
  Rng rng{9101};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  for (std::size_t i = 0; i < 50; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0, 40, 5), t0);
  }
  const auto s1 = service.publish_snapshot(t0);
  const std::uint64_t first = bytes_copied(service);
  EXPECT_GT(first, 0u);
  const auto s2 = service.publish_snapshot(t0 + Minutes(10));
  const auto s3 = service.publish_snapshot(t0 + Minutes(20));
  EXPECT_EQ(bytes_copied(service), first);
  EXPECT_EQ(s3->nodes_identity(), s1->nodes_identity());
  EXPECT_EQ(s3->timestamps_identity(), s1->timestamps_identity());
  EXPECT_EQ(s3->engine().get(), s1->engine().get());
  // A rejected (stale) report changes nothing either.
  (void)service.publish(random_report(rng, node_name(3), t0 - Hours(12), 40, 5),
                        t0 + Minutes(20));
  (void)service.publish_snapshot(t0 + Minutes(20));
  EXPECT_EQ(bytes_copied(service), first);
  // The counter is a writer-side function of the write sequence: a twin
  // service fed the same sequence counts the same bytes.
  Rng twin_rng{9101};
  PositionService twin;
  for (std::size_t i = 0; i < 50; ++i) {
    (void)twin.publish(random_report(twin_rng, node_name(i), t0, 40, 5), t0);
  }
  (void)twin.publish_snapshot(t0);
  EXPECT_EQ(bytes_copied(twin), first);
  // Shards' counts sum into the fleet view.
  const std::vector<ServiceStats> per_shard{service.stats(), twin.stats()};
  EXPECT_EQ(aggregate_stats(per_shard).snapshot_bytes_copied, 2 * first);
}

// A paper-shaped shard: ~2060 nodes over 400 replicas with 9 entries
// per map, churned to a steady state with tombstones. A 37-report
// update-only batch (one shard's share of a 150-report churn batch)
// then copies the row table, the timestamps and the per-list views —
// independent of how many entries or postings the shard holds — and a
// small fraction of what copying the whole shard state would cost.
TEST(SnapshotBytesCopied, UpdateOnlyBatchScalesWithSlotsAndListsNotEntries) {
  constexpr std::size_t kNodes = 2060;
  constexpr std::uint32_t kReplicas = 400;
  constexpr int kEntries = 9;
  constexpr std::size_t kBatch = 37;
  for (const int entries : {kEntries, 2 * kEntries}) {
    Rng rng{9102};
    PositionService service;
    SimTime now = SimTime::epoch();
    std::vector<PositionReport> load;
    for (std::size_t i = 0; i < kNodes; ++i) {
      load.push_back(random_report(rng, node_name(i), now, kReplicas, entries));
    }
    std::uint64_t live_entries = 0;
    std::vector<std::uint64_t> size_of(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      size_of[i] = load[i].map.size();
      live_entries += size_of[i];
    }
    ASSERT_EQ(service.publish_batch(encode_all(load), now), kNodes);
    (void)service.publish_snapshot(now);
    const std::uint64_t first_freeze = bytes_copied(service);

    std::uint64_t before = 0;
    std::uint64_t batch_bytes = 0;
    for (int round = 0; round < 40; ++round) {
      now = now + Seconds(1);
      std::vector<PositionReport> batch;
      for (std::size_t u = 0; u < kBatch; ++u) {
        const auto i =
            static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
        batch.push_back(
            random_report(rng, node_name(i), now, kReplicas, entries));
      }
      ASSERT_EQ(service.publish_batch(encode_all(batch), now), kBatch);
      for (const PositionReport& r : batch) {
        const auto i = static_cast<std::size_t>(
            std::stoul(r.node_id.substr(r.node_id.find('-') + 1)));
        live_entries += r.map.size();
        live_entries -= size_of[i];
        size_of[i] = r.map.size();
      }
      before = bytes_copied(service);
      (void)service.publish_snapshot(now);
      batch_bytes = bytes_copied(service) - before;
    }
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.compactions, 0u);  // steady state, tombstones kept

    // Structural bound: row table (24 B/slot) + timestamps (8 B/slot) +
    // per-list views and block handles (32 B/list) + chunk handles.
    const std::uint64_t slots = service.engine_slots();
    EXPECT_LE(batch_bytes, slots * (24 + sizeof(SimTime)) +
                               kReplicas * (sizeof(core::engine_detail::
                                                       PostingList) +
                                            16) +
                               64 * 16);
    // Against a full copy of the shard state — what every freeze copied
    // before entries and postings became shared: the first freeze's
    // small components plus every entry and posting byte (live and
    // tombstoned; one posting per entry).
    const std::uint64_t arena_entries =
        live_entries + stats.postings_tombstoned;
    const std::uint64_t full =
        first_freeze +
        arena_entries * (sizeof(core::RatioMap::Entry) +
                         sizeof(core::engine_detail::Posting));
    EXPECT_LT(static_cast<double>(batch_bytes),
              0.10 * static_cast<double>(full))
        << "entries/map=" << entries << " batch=" << batch_bytes
        << " full=" << full;
  }
}

TEST(SnapshotBytesCopied, AddDropAndCompactionCopyWhatTheyMust) {
  Rng rng{9103};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  for (std::size_t i = 0; i < 100; ++i) {
    (void)service.publish(random_report(rng, node_name(i), t0, 30, 4), t0);
  }
  const auto s1 = service.publish_snapshot(t0);

  // An update only: the node table is shared, the timestamps are not.
  (void)service.publish(random_report(rng, node_name(7), t0 + Minutes(1), 30,
                                      4),
                        t0 + Minutes(1));
  std::uint64_t before = bytes_copied(service);
  const auto s2 = service.publish_snapshot(t0 + Minutes(1));
  const std::uint64_t update_bytes = bytes_copied(service) - before;
  EXPECT_EQ(s2->nodes_identity(), s1->nodes_identity());
  EXPECT_NE(s2->timestamps_identity(), s1->timestamps_identity());

  // An add changes the node set: the table is copied on top.
  (void)service.publish(random_report(rng, "newcomer", t0 + Minutes(2), 30, 4),
                        t0 + Minutes(2));
  before = bytes_copied(service);
  const auto s3 = service.publish_snapshot(t0 + Minutes(2));
  const std::uint64_t add_bytes = bytes_copied(service) - before;
  EXPECT_NE(s3->nodes_identity(), s2->nodes_identity());
  EXPECT_GT(add_bytes, update_bytes);
  EXPECT_GE(add_bytes - update_bytes, 101 * sizeof(std::string));

  // A drop: same, and the dropped node is gone from the new table only.
  (void)service.remove(node_name(11));
  before = bytes_copied(service);
  const auto s4 = service.publish_snapshot(t0 + Minutes(2));
  EXPECT_GE(bytes_copied(service) - before, 100 * sizeof(std::string));
  EXPECT_NE(s4->nodes_identity(), s3->nodes_identity());
  EXPECT_FALSE(s4->resident(node_name(11), t0 + Minutes(2)).has_value());
  EXPECT_TRUE(s3->resident(node_name(11), t0 + Minutes(2)).has_value());

  // Compaction (updates until tombstones outnumber live entries) starts
  // fresh chunks and blocks: the freeze copies their handle lists too,
  // but still no entry or posting bytes.
  const std::uint64_t compactions = service.stats().compactions;
  SimTime now = t0 + Minutes(3);
  while (service.stats().compactions == compactions) {
    now = now + Seconds(1);
    const auto i = static_cast<std::size_t>(rng.uniform_int(20, 99));
    (void)service.publish(random_report(rng, node_name(i), now, 30, 4), now);
  }
  before = bytes_copied(service);
  const auto s5 = service.publish_snapshot(now);
  EXPECT_NE(s5->engine()->entries_identity(), s4->engine()->entries_identity());
  EXPECT_EQ(s5->nodes_identity(), s4->nodes_identity());
  EXPECT_LE(bytes_copied(service) - before, 2 * update_bytes + 30 * 64);
}

// --- the node table ---

TEST(NodeTableTest, IncrementalIndexMatchesFreshlySortedTable) {
  Rng rng{9201};
  NodeTable table;
  std::vector<std::size_t> free_slots;
  std::vector<std::string> pool;
  for (int i = 0; i < 64; ++i) pool.push_back("id" + std::to_string(i * 37));
  for (int op = 0; op < 2000; ++op) {
    const std::string& id = pool[rng.uniform_int(0, pool.size() - 1)];
    const std::size_t slot = table.find(id);
    if (slot == NodeTable::npos) {
      std::size_t at = table.ids.size();
      if (!free_slots.empty()) {
        at = free_slots.back();
        free_slots.pop_back();
      }
      table.insert(at, id);
    } else {
      table.erase(slot);
      free_slots.push_back(slot);
    }
    // Freshly sorted reference: every occupied slot, ordered by id.
    std::vector<std::uint32_t> fresh;
    for (std::size_t s = 0; s < table.ids.size(); ++s) {
      if (!table.ids[s].empty()) fresh.push_back(static_cast<std::uint32_t>(s));
    }
    std::sort(fresh.begin(), fresh.end(), [&table](auto a, auto b) {
      return table.ids[a] < table.ids[b];
    });
    ASSERT_EQ(table.by_id, fresh);
    for (const std::string& probe : pool) {
      const auto it = std::find(table.ids.begin(), table.ids.end(), probe);
      const std::size_t want =
          it == table.ids.end()
              ? NodeTable::npos
              : static_cast<std::size_t>(it - table.ids.begin());
      ASSERT_EQ(table.find(probe), want);
    }
  }
}

TEST(NodeTableTest, AddDropExpireSequenceMatchesFreshlySortedTable) {
  Rng rng{9202};
  PositionService service;
  std::map<std::string, PositionReport> model;  // what must be resident
  SimTime now = SimTime::epoch();
  for (int op = 0; op < 600; ++op) {
    now = now + Minutes(static_cast<std::int64_t>(rng.uniform_int(0, 20)));
    const double roll = rng.uniform(0.0, 1.0);
    const std::string id = node_name(rng.uniform_int(0, 79));
    if (roll < 0.6) {
      PositionReport r = random_report(rng, id, now, 30, 4);
      model[id] = r;
      ASSERT_TRUE(service.publish(std::move(r), now));
    } else if (roll < 0.85) {
      EXPECT_EQ(service.remove(id), model.erase(id) == 1);
    } else if (roll < 0.97) {
      std::size_t want = 0;
      for (auto it = model.begin(); it != model.end();) {
        if (now - it->second.when > service.config().staleness_bound) {
          it = model.erase(it);
          ++want;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(service.expire(now), want);
    } else {
      service.reset(now);
      model.clear();
    }
    const auto snap = service.publish_snapshot(now);
    // live_nodes() walks the incrementally kept index: it must come out
    // in the order a fresh sort of the live ids gives.
    std::vector<std::string> live;
    for (const auto& [mid, r] : model) {
      if (now - r.when <= service.config().staleness_bound) live.push_back(mid);
    }
    ASSERT_EQ(snap->live_nodes(now), live);
    ASSERT_EQ(snap->size(), model.size());
    // find() (through resident) lands on the slot holding the node's
    // current row, for every id ever used.
    for (std::size_t i = 0; i < 80; ++i) {
      const std::string probe = node_name(i);
      const auto res = snap->resident(probe, now);
      const auto it = model.find(probe);
      ASSERT_EQ(res.has_value(), it != model.end()) << probe;
      if (!res.has_value()) continue;
      const auto entries = it->second.map.entries();
      ASSERT_TRUE(std::equal(res->row.entries.begin(), res->row.entries.end(),
                             entries.begin(), entries.end()));
    }
  }
}

// --- immutability oracle ---

// A snapshot is cut; then update batches append into the chunks, blocks
// and node table it shares, a compaction abandons them, and a reset
// wipes the service. Throughout, the snapshot answers bit-identically
// to a reference service built from the reports as they were at the cut.
TEST(SnapshotImmutabilityOracle, SnapshotSurvivesUpdatesCompactionAndReset) {
  for (const std::uint64_t seed : {9301ULL, 9302ULL}) {
    Rng rng{seed};
    PositionService service;
    const SimTime t0 = SimTime::epoch();
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < 80; ++i) ids.push_back(node_name(i));
    for (const std::string& id : ids) {
      (void)service.publish(random_report(rng, id, t0, 24, 4), t0);
    }
    for (int d = 0; d < 6; ++d) {
      (void)service.remove(ids[rng.uniform_int(0, ids.size() - 1)]);
    }
    const auto snap = service.publish_snapshot(t0);

    PositionService reference;
    for (const std::string& id : ids) {
      if (auto r = service.report_of(id)) (void)reference.publish(*r, t0);
    }
    const core::RatioMap probe = random_report(rng, "probe", t0, 24, 5).map;
    const std::vector<std::string> candidates{ids[1], ids[5], ids[9], ids[30],
                                              ids[61], "stranger"};
    const auto check = [&] {
      ASSERT_EQ(snap->live_nodes(t0), reference.live_nodes(t0));
      for (const std::string& client : ids) {
        expect_same_ranking(snap->closest_any(client, 7, t0),
                            reference.closest_any(client, 7, t0));
        expect_same_ranking(snap->closest(client, candidates, 3, t0),
                            reference.closest(client, candidates, 3, t0));
      }
      const auto got = snap->closest_batch(ids, 5, t0);
      const auto want = reference.closest_batch(ids, 5, t0);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_same_ranking(got[i], want[i]);
      }
      expect_same_ranking(snap->top_k(probe, 10, t0),
                          reference.top_k(probe, 10, t0));
    };
    check();

    SimTime now = t0;
    for (int round = 0; round < 30; ++round) {
      now = now + Minutes(1);
      std::vector<PositionReport> batch;
      for (int u = 0; u < 12; ++u) {
        batch.push_back(random_report(
            rng, ids[rng.uniform_int(0, ids.size() - 1)], now, 24, 4));
      }
      (void)service.publish_batch(encode_all(batch), now);
      (void)service.publish_snapshot(now);
    }
    ASSERT_GT(service.stats().compactions, 0u);
    check();
    service.reset(now);
    for (std::size_t i = 0; i < 40; ++i) {
      (void)service.publish(random_report(rng, ids[i], now, 24, 4), now);
    }
    (void)service.publish_snapshot(now);
    check();
  }
}

// --- TSan: readers hold old snapshots while the writer appends ---

// Readers keep a window of old snapshots alive and re-query them while
// the writer appends into the entry chunks and posting blocks those
// snapshots share (past their frozen ends), adds and drops nodes,
// compacts and republishes. Every held snapshot must keep returning the
// answer it gave when first acquired; under ThreadSanitizer any write
// into bytes a reader can see is a reported race.
TEST(SnapshotSharingStress, ReadersHoldOldSnapshotsWhileWriterAppends) {
  Rng rng{9401};
  PositionService service;
  const SimTime t0 = SimTime::epoch();
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < 48; ++i) ids.push_back(node_name(i));
  for (const std::string& id : ids) {
    (void)service.publish(random_report(rng, id, t0, 32, 5), t0);
  }
  (void)service.publish_snapshot(t0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rechecks{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng{500 + static_cast<std::uint64_t>(r)};
      struct Held {
        std::shared_ptr<const ServingSnapshot> snap;
        std::string client;
        std::vector<RankedNode> answer;
        std::vector<double> scores;
      };
      std::deque<Held> held;
      while (!stop.load(std::memory_order_relaxed)) {
        Held h;
        h.snap = service.snapshot();
        h.client = ids[reader_rng.uniform_int(0, ids.size() - 1)];
        const SimTime now = h.snap->frozen_at();
        h.answer = h.snap->closest_any(h.client, 6, now);
        if (const auto res = h.snap->resident(h.client, now)) {
          h.scores.resize(h.snap->engine()->size());
          h.snap->engine()->scores(res->row, h.scores);
        }
        held.push_back(std::move(h));
        if (held.size() > 8) held.pop_front();
        for (const Held& old : held) {
          const SimTime now_old = old.snap->frozen_at();
          const auto again = old.snap->closest_any(old.client, 6, now_old);
          ASSERT_EQ(again.size(), old.answer.size());
          for (std::size_t i = 0; i < again.size(); ++i) {
            ASSERT_EQ(again[i].node_id, old.answer[i].node_id);
            ASSERT_EQ(again[i].similarity, old.answer[i].similarity);
          }
          if (!old.scores.empty()) {
            const auto res = old.snap->resident(old.client, now_old);
            ASSERT_TRUE(res.has_value());
            std::vector<double> scores(old.snap->engine()->size());
            old.snap->engine()->scores(res->row, scores);
            ASSERT_EQ(scores, old.scores);
          }
          rechecks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  SimTime now = t0;
  std::size_t next_id = ids.size();
  for (int round = 0; round < 300; ++round) {
    now = now + Seconds(30);
    std::vector<PositionReport> batch;
    for (int u = 0; u < 6; ++u) {
      batch.push_back(random_report(
          rng, ids[rng.uniform_int(0, ids.size() - 1)], now, 32, 5));
    }
    if (round % 10 == 0) {
      batch.push_back(random_report(rng, node_name(next_id++), now, 32, 5));
    }
    (void)service.publish_batch(encode_all(batch), now);
    if (round % 25 == 0) (void)service.remove(node_name(next_id - 1));
    (void)service.publish_snapshot(now);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_GT(service.stats().compactions, 0u);
  EXPECT_GT(rechecks.load(), 0u);
}

}  // namespace
}  // namespace crp::service
