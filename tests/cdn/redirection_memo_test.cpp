// The per-thread estimate memo inside LatencyDrivenPolicy::select must be
// result-neutral: every answer equals the one a fresh policy instance
// gives — a fresh instance has a never-seen id, so its memo is always
// empty and it computes every estimate from scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "cdn/health.hpp"
#include "cdn/redirection.hpp"
#include "common/thread_pool.hpp"

namespace crp::cdn {
namespace {

struct Call {
  HostId resolver;
  std::size_t customer = 0;
  SimTime now;
  int count = 2;
};

/// A seeded interleaving shaped like probing traffic: half the calls stay
/// on the previous resolver (a probe's next name), and time moves by
/// repeats, small steps, landings on either side of a measurement or
/// rotation epoch boundary, large jumps and jumps back to earlier epochs.
std::vector<Call> interleaving(const test::MiniWorld& world,
                               std::uint64_t seed, std::size_t n,
                               std::size_t resolvers) {
  Rng rng{seed};
  const std::int64_t refresh = world.measurement->config().refresh.micros();
  const std::int64_t rotation = LatencyPolicyConfig{}.rotation_epoch.micros();
  const auto pick_resolver = [&] {
    return world.clients[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(resolvers) - 1))];
  };
  std::vector<Call> calls;
  HostId resolver = pick_resolver();
  std::int64_t t = refresh - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.5)) resolver = pick_resolver();
    switch (rng.uniform_int(0, 4)) {
      case 0:  // same instant
        break;
      case 1:
        t += rng.uniform_int(1, Seconds(2).micros());
        break;
      case 2: {  // on a boundary or one microsecond before it
        const std::int64_t b = rng.bernoulli(0.5) ? refresh : rotation;
        t = (t / b + 1) * b - rng.uniform_int(0, 1);
        break;
      }
      case 3:
        t += rng.uniform_int(Seconds(5).micros(), Seconds(45).micros());
        break;
      default:  // back to an epoch the memo has already moved past
        t = std::max<std::int64_t>(0, t - rng.uniform_int(0, 2 * refresh));
        break;
    }
    calls.push_back(Call{resolver, static_cast<std::size_t>(
                                       rng.uniform_int(0, 1)),
                         SimTime{t}, static_cast<int>(rng.uniform_int(1, 3))});
  }
  return calls;
}

/// Calls that find the memo holding their own (resolver, measurement
/// epoch): the interleaving must exercise hits, not only refills.
std::size_t memo_hit_candidates(const test::MiniWorld& world,
                                const std::vector<Call>& calls) {
  std::size_t hits = 0;
  for (std::size_t i = 1; i < calls.size(); ++i) {
    if (calls[i].resolver == calls[i - 1].resolver &&
        world.measurement->epoch(calls[i].now) ==
            world.measurement->epoch(calls[i - 1].now)) {
      ++hits;
    }
  }
  return hits;
}

std::vector<ReplicaId> fresh_select(const test::MiniWorld& world,
                                    const MeasurementSystem& measurement,
                                    const LatencyPolicyConfig& config,
                                    const ReplicaHealth* health,
                                    const Call& call) {
  LatencyDrivenPolicy fresh{*world.oracle, world.deployment, measurement,
                            config};
  fresh.set_health(health);
  return fresh.select(call.resolver, world.catalog.customer(call.customer),
                      call.now, call.count);
}

/// Every call's memo-less answer. Computed before the policy under test
/// runs: a fresh policy's select would take over this thread's memo and
/// turn every memoized call into a refill.
std::vector<std::vector<ReplicaId>> fresh_answers(
    const test::MiniWorld& world, const MeasurementSystem& measurement,
    const LatencyPolicyConfig& config, const ReplicaHealth* health,
    const std::vector<Call>& calls) {
  std::vector<std::vector<ReplicaId>> out;
  out.reserve(calls.size());
  for (const Call& c : calls) {
    out.push_back(fresh_select(world, measurement, config, health, c));
  }
  return out;
}

TEST(RedirectionMemo, RepeatsAndEpochBoundariesMatchFreshPolicy) {
  const test::MiniWorld world{41};
  const auto calls = interleaving(world, 7, 600, 4);
  ASSERT_GT(memo_hit_candidates(world, calls), calls.size() / 4);
  const auto expected =
      fresh_answers(world, *world.measurement, {}, nullptr, calls);
  LatencyDrivenPolicy policy{*world.oracle, world.deployment,
                             *world.measurement};
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    EXPECT_EQ(policy.select(c.resolver, world.catalog.customer(c.customer),
                            c.now, c.count),
              expected[i])
        << "call " << i << " at " << c.now.micros() << " us";
  }
}

TEST(RedirectionMemo, RepeatedSelectDoesNoOracleWork) {
  const test::MiniWorld world{42};
  const HostId resolver = world.clients[0];
  const Call first{resolver, 0, SimTime::epoch() + Seconds(95), 2};
  // 95 s and 119 s share the 90-120 s measurement epoch.
  const Call again{resolver, 1, SimTime::epoch() + Seconds(119), 2};
  const auto expected = fresh_answers(world, *world.measurement, {}, nullptr,
                                      {first, again});
  LatencyDrivenPolicy policy{*world.oracle, world.deployment,
                             *world.measurement};
  EXPECT_EQ(policy.select(resolver, world.catalog.customer(0), first.now, 2),
            expected[0]);
  const netsim::PairCacheStats before =
      netsim::LatencyOracle::pair_cache_stats();
  EXPECT_EQ(policy.select(resolver, world.catalog.customer(1), again.now, 2),
            expected[1]);
  const netsim::PairCacheStats after =
      netsim::LatencyOracle::pair_cache_stats();
  // The second customer's candidates are (almost all) the first's: only
  // estimates the first call filtered out may cost an oracle lookup.
  const Customer& c0 = world.catalog.customer(0);
  const Customer& c1 = world.catalog.customer(1);
  std::size_t new_estimates = 0;
  for (ReplicaId id : policy.candidates(resolver)) {
    if (c1.serves(id) && !c0.serves(id)) ++new_estimates;
  }
  EXPECT_EQ(after.hits + after.misses - before.hits - before.misses,
            new_estimates);
}

TEST(RedirectionMemo, TwoPoliciesAlternatingOnOneThread) {
  const test::MiniWorld world{43};
  // The second policy sees a different measurement system (same refresh,
  // so the two share epoch numbers) and a shorter candidate list: any
  // estimate shared between the two through the memo changes answers.
  MeasurementConfig other_measure;
  other_measure.seed = 99;
  other_measure.noise_sigma = 0.4;
  const MeasurementSystem other{*world.oracle, other_measure};
  LatencyPolicyConfig other_config;
  other_config.candidate_pool = 20;
  other_config.rotation_pool = 5;

  const auto calls = interleaving(world, 8, 400, 3);
  const auto expected_a =
      fresh_answers(world, *world.measurement, {}, nullptr, calls);
  const auto expected_b =
      fresh_answers(world, other, other_config, nullptr, calls);
  LatencyDrivenPolicy a{*world.oracle, world.deployment, *world.measurement};
  LatencyDrivenPolicy b{*world.oracle, world.deployment, other, other_config};
  // Each call goes to one policy; the owner flips on about a third of
  // the calls, often within one (resolver, epoch).
  Rng flips{12};
  bool use_b = false;
  std::size_t switches = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (flips.bernoulli(0.35)) {
      use_b = !use_b;
      ++switches;
    }
    const Call& c = calls[i];
    const Customer& customer = world.catalog.customer(c.customer);
    if (use_b) {
      EXPECT_EQ(b.select(c.resolver, customer, c.now, c.count),
                expected_b[i])
          << "policy b, call " << i;
    } else {
      EXPECT_EQ(a.select(c.resolver, customer, c.now, c.count),
                expected_a[i])
          << "policy a, call " << i;
    }
  }
  EXPECT_GT(switches, calls.size() / 5);
  EXPECT_NE(expected_a, expected_b);
}

TEST(RedirectionMemo, HealthOutagesMatchFreshPolicy) {
  const test::MiniWorld world{44};
  // Outage epochs shorter than the measurement refresh: a replica can be
  // out for one call and back for the next within one memoized epoch.
  HealthConfig health_config;
  health_config.seed = 5;
  health_config.outage_probability = 0.3;
  health_config.outage_epoch = Seconds(7);
  health_config.readmit_hysteresis = Seconds(10);
  const ReplicaHealth health{health_config};

  const auto calls = interleaving(world, 9, 500, 4);
  const auto expected =
      fresh_answers(world, *world.measurement, {}, &health, calls);
  LatencyDrivenPolicy policy{*world.oracle, world.deployment,
                             *world.measurement};
  policy.set_health(&health);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    EXPECT_EQ(policy.select(c.resolver, world.catalog.customer(c.customer),
                            c.now, c.count),
              expected[i])
        << "call " << i;
  }
}

TEST(RedirectionMemo, StickyPolicyMatchesFreshPolicy) {
  const test::MiniWorld world{45};
  const auto calls = interleaving(world, 10, 300, 5);
  std::vector<std::vector<ReplicaId>> expected;
  for (const Call& c : calls) {
    StickyPolicy fresh{*world.oracle, world.deployment, *world.measurement};
    expected.push_back(fresh.select(
        c.resolver, world.catalog.customer(c.customer), c.now, c.count));
  }
  StickyPolicy policy{*world.oracle, world.deployment, *world.measurement};
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const Call& c = calls[i];
    EXPECT_EQ(policy.select(c.resolver, world.catalog.customer(c.customer),
                            c.now, c.count),
              expected[i])
        << "call " << i;
  }
}

TEST(RedirectionMemo, ConcurrentSelectMatchesFreshPolicyOnPools) {
  const test::MiniWorld world{46};
  const std::size_t resolvers = 6;
  const auto calls = interleaving(world, 11, 800, resolvers);
  const auto expected =
      fresh_answers(world, *world.measurement, {}, nullptr, calls);
  const std::vector<HostId> hosts(world.clients.begin(),
                                  world.clients.begin() + resolvers);
  for (const std::size_t threads : {0u, 1u, 4u}) {
    ThreadPool pool{threads};
    LatencyDrivenPolicy policy{*world.oracle, world.deployment,
                               *world.measurement};
    policy.prepare(hosts, &pool);
    // Several rounds over the same calls, so the same resolvers' selects
    // run on different threads with differently warmed memos.
    for (int round = 0; round < 3; ++round) {
      std::vector<std::vector<ReplicaId>> got(calls.size());
      pool.parallel_for(0, calls.size(), [&](std::size_t i) {
        const Call& c = calls[i];
        got[i] = policy.select(c.resolver, world.catalog.customer(c.customer),
                               c.now, c.count);
      });
      for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << threads << " threads, round " << round << ", call " << i;
      }
    }
  }
}

}  // namespace
}  // namespace crp::cdn
