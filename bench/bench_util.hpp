// Shared harness for the figure/table benches.
//
// `SelectionExperiment` reproduces the paper's closest-node-selection
// setup (§V.A): a world with PlanetLab-like candidate servers and
// DNS-server clients, a probing campaign, CRP ratio maps for everyone, a
// Meridian overlay over the candidates, and direct-measurement ground
// truth. Figs. 4, 5, 8, 9 and the ablations all start from here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/ratio_map.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "eval/world.hpp"
#include "meridian/overlay.hpp"
#include "service/position_service.hpp"
#include "service/sharded_frontend.hpp"

namespace crp::bench {

/// Scale knobs honoured by every bench: CRP_BENCH_SCALE=small shrinks the
/// experiment for quick runs, =tiny to a CI smoke size; full (default)
/// reproduces the paper's population.
struct Scale {
  std::size_t candidates = 240;
  std::size_t dns_servers = 1000;
  std::size_t replicas = 400;
  Duration campaign = Hours(24);
  Duration probe_interval = Minutes(10);

  static Scale from_env() {
    Scale scale;
    const char* env = std::getenv("CRP_BENCH_SCALE");
    const std::string value = env == nullptr ? "" : env;
    if (value == "small") {
      scale.candidates = 60;
      scale.dns_servers = 150;
      scale.replicas = 200;
      scale.campaign = Hours(12);
    } else if (value == "tiny") {
      scale.candidates = 20;
      scale.dns_servers = 40;
      scale.replicas = 120;
      scale.campaign = Hours(4);
      scale.probe_interval = Minutes(30);
    }
    return scale;
  }
};

/// Parses a `--shards=N` / `--shards N` flag out of argv. Returns 0 when
/// absent (bench keeps its unsharded serving path); N>=1 asks the bench
/// to also run its serving block through a ShardedFrontend of N shards
/// and digest-check it against the unsharded answers.
inline std::size_t parse_shards(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      return static_cast<std::size_t>(
          std::strtoull(arg.c_str() + 9, nullptr, 10));
    }
    if (arg == "--shards" && i + 1 < argc) {
      return static_cast<std::size_t>(
          std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  return 0;
}

/// FNV-1a digest of a batched ranked answer set (ids plus similarity bit
/// patterns) — the serving-path equality check the --shards flag runs:
/// sharded answers must be bit-identical to unsharded ones.
inline std::uint64_t ranked_digest(
    const std::vector<std::vector<service::RankedNode>>& answers) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& ranked : answers) {
    const std::size_t n = ranked.size();
    mix(&n, sizeof(n));
    for (const auto& node : ranked) {
      mix(node.node_id.data(), node.node_id.size());
      mix(&node.similarity, sizeof(node.similarity));
    }
  }
  return h;
}

/// Per-shard + aggregate serving-stats banner (stderr). For an unsharded
/// service pass its single stats entry; the aggregate line then repeats
/// it.
inline void print_service_stats(
    const std::vector<service::ServiceStats>& per_shard) {
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const auto& st = per_shard[s];
    std::fprintf(stderr,
                 "[serving]   shard %zu: %llu queries, %llu sim queries "
                 "(%llu maps), %llu/%llu reports accepted/rejected, "
                 "epoch lag %llu (max %llu)\n",
                 s, static_cast<unsigned long long>(st.queries_served),
                 static_cast<unsigned long long>(st.similarity_queries),
                 static_cast<unsigned long long>(st.maps_touched),
                 static_cast<unsigned long long>(st.reports_accepted),
                 static_cast<unsigned long long>(st.reports_rejected),
                 static_cast<unsigned long long>(st.epoch_lag_last),
                 static_cast<unsigned long long>(st.epoch_lag_max));
  }
  const service::ServiceStats total = service::aggregate_stats(per_shard);
  std::fprintf(stderr,
               "[serving] aggregate: %llu queries (%llu fresh, %llu stale, "
               "%llu refused), %llu sim queries (%llu maps), "
               "%llu/%llu reports accepted/rejected, "
               "%llu routing-rejected, epoch lag %llu (max %llu), "
               "%llu snapshot bytes copied\n",
               static_cast<unsigned long long>(total.queries_served),
               static_cast<unsigned long long>(total.fresh_answers),
               static_cast<unsigned long long>(total.stale_answers),
               static_cast<unsigned long long>(total.refused_queries),
               static_cast<unsigned long long>(total.similarity_queries),
               static_cast<unsigned long long>(total.maps_touched),
               static_cast<unsigned long long>(total.reports_accepted),
               static_cast<unsigned long long>(total.reports_rejected),
               static_cast<unsigned long long>(total.routing_rejected),
               static_cast<unsigned long long>(total.epoch_lag_last),
               static_cast<unsigned long long>(total.epoch_lag_max),
               static_cast<unsigned long long>(total.snapshot_bytes_copied));
}

/// Frontend fault-handling banner (all zeros unless a plan was armed).
inline void print_health_stats(const service::FrontendHealthStats& hs) {
  std::fprintf(
      stderr,
      "[faults] breakers: %llu opened, %llu half-opened, %llu closed; "
      "writes: %llu retries, %llu failed, %llu shed; "
      "crashes: %llu (%llu reports replayed); "
      "serving: %llu fallback views, %llu degraded, %llu partial\n",
      static_cast<unsigned long long>(hs.breaker_opens),
      static_cast<unsigned long long>(hs.breaker_half_opens),
      static_cast<unsigned long long>(hs.breaker_closes),
      static_cast<unsigned long long>(hs.write_retries),
      static_cast<unsigned long long>(hs.writes_failed),
      static_cast<unsigned long long>(hs.writes_shed),
      static_cast<unsigned long long>(hs.shard_crashes),
      static_cast<unsigned long long>(hs.recovery_replays),
      static_cast<unsigned long long>(hs.stale_fallback_views),
      static_cast<unsigned long long>(hs.degraded_answers),
      static_cast<unsigned long long>(hs.partial_answers));
}

/// One-line campaign cost banner (stderr, like the other progress lines).
inline void print_campaign_stats(const eval::CampaignStats& stats) {
  std::fprintf(
      stderr,
      "[campaign] %zu nodes x %zu rounds: %zu probes in %.2f s "
      "(%.0f probes/s, %zu threads); resolver hit rate %.1f%%, "
      "%zu upstream DNS queries, %zu CDN queries, "
      "oracle pair-cache hit rate %.1f%%\n",
      stats.participants, stats.rounds, stats.probes_issued,
      stats.wall_seconds, stats.probes_per_second(), stats.threads,
      100.0 * stats.resolver_hit_rate(), stats.upstream_dns_queries,
      stats.cdn_queries, 100.0 * stats.oracle_pair_hit_rate());
}

struct SelectionExperiment {
  /// `patch` may adjust the world config before construction (e.g.
  /// concentrate candidates in a few regions).
  explicit SelectionExperiment(
      std::uint64_t seed, Scale scale = {},
      eval::PolicyKind policy = eval::PolicyKind::kLatencyDriven,
      const std::function<void(eval::WorldConfig&)>& patch = nullptr) {
    eval::WorldConfig config;
    config.seed = seed;
    config.num_candidates = scale.candidates;
    config.num_dns_servers = scale.dns_servers;
    config.cdn.target_replicas = scale.replicas;
    config.policy_kind = policy;
    if (patch) patch(config);

    std::fprintf(stderr, "[world] building (%zu candidates, %zu clients, "
                         "%zu replicas)...\n",
                 scale.candidates, scale.dns_servers, scale.replicas);
    world = std::make_unique<eval::World>(config);

    std::fprintf(stderr, "[world] probing %.0f h campaign at %.0f min "
                         "intervals...\n",
                 (scale.campaign).seconds() / 3600.0,
                 scale.probe_interval.minutes());
    rounds = world->run_probing(SimTime::epoch(),
                                SimTime::epoch() + scale.campaign,
                                scale.probe_interval);
    print_campaign_stats(world->campaign_stats());

    for (HostId h : world->dns_servers()) {
      client_maps.push_back(world->crp_node(h).ratio_map());
    }
    for (HostId h : world->candidates()) {
      candidate_maps.push_back(world->crp_node(h).ratio_map());
    }

    std::fprintf(stderr, "[world] measuring ground truth...\n");
    gt = std::make_unique<eval::GroundTruthMatrix>(
        *world, world->dns_servers(), world->candidates());
  }

  /// Runs the Meridian baseline over the candidates and returns each
  /// client's selected candidate index. `faults` defaults to the paper's
  /// observed PlanetLab pathology mix.
  std::vector<std::size_t> run_meridian(
      meridian::FaultSpec faults = paper_faults()) {
    std::fprintf(stderr, "[meridian] bootstrapping overlay...\n");
    meridian::MeridianConfig config;
    config.seed = world->config().seed + 1;
    overlay = std::make_unique<meridian::MeridianOverlay>(
        world->oracle(),
        std::vector<HostId>{world->candidates().begin(),
                            world->candidates().end()},
        config, faults);
    overlay->bootstrap(SimTime::epoch());

    std::fprintf(stderr, "[meridian] answering %zu queries...\n",
                 world->dns_servers().size());
    std::vector<std::size_t> choice;
    Rng rng{world->config().seed + 2};
    const SimTime query_time = world->campaign_end();
    for (HostId client : world->dns_servers()) {
      const auto result =
          overlay->closest_node(overlay->random_entry(rng), client,
                                query_time);
      const auto it = std::find(world->candidates().begin(),
                                world->candidates().end(), result.selected);
      choice.push_back(static_cast<std::size_t>(
          it - world->candidates().begin()));
    }
    return choice;
  }

  /// Fault mix matching §V.A's observations: restarted nodes answering
  /// with themselves, a few that never joined, a couple of partitioned
  /// sites.
  static meridian::FaultSpec paper_faults() {
    meridian::FaultSpec faults;
    faults.selfish_fraction = 0.03;
    faults.selfish_duration = Hours(17);  // 10 h mute + 7 h selfish
    faults.dead_fraction = 0.02;
    faults.partitioned_fraction = 0.03;
    return faults;
  }

  std::unique_ptr<eval::World> world;
  std::unique_ptr<eval::GroundTruthMatrix> gt;
  std::unique_ptr<meridian::MeridianOverlay> overlay;
  std::vector<core::RatioMap> client_maps;
  std::vector<core::RatioMap> candidate_maps;
  std::size_t rounds = 0;
};

}  // namespace crp::bench
