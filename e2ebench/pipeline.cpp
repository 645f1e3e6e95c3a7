#include "pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/similarity.hpp"
#include "service/wire.hpp"

namespace e2e {

using namespace crp;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

eval::WorldConfig world_config(std::uint64_t seed, std::size_t dns_servers,
                               std::size_t replicas) {
  eval::WorldConfig config;
  config.seed = seed;
  config.num_candidates = kCandidates;
  config.num_dns_servers = dns_servers;
  config.cdn.target_replicas = replicas;
  return config;
}

service::ShardedFrontendConfig frontend_config(std::size_t shards) {
  service::ShardedFrontendConfig config;
  config.shards = shards;
  config.service.snapshots.enabled = true;
  config.service.snapshots.max_epoch_lag =
      std::numeric_limits<std::uint64_t>::max();
  config.service.snapshots.max_age = Hours(24 * 365);
  return config;
}

std::vector<std::string> host_names(const eval::World& world,
                                    std::span<const HostId> hosts) {
  std::vector<std::string> names;
  names.reserve(hosts.size());
  for (const HostId h : hosts) names.push_back(world.topology().host(h).name);
  return names;
}

std::vector<std::string> encode_reports(eval::World& world,
                                        std::span<const HostId> hosts,
                                        std::span<const std::string> names,
                                        SimTime when, ThreadPool& pool,
                                        std::vector<core::RatioMap>* maps) {
  std::vector<std::string> wire(hosts.size());
  if (maps != nullptr) maps->assign(hosts.size(), core::RatioMap{});
  pool.parallel_for(0, hosts.size(), [&](std::size_t i) {
    service::PositionReport report{names[i], when,
                                   world.crp_node(hosts[i]).ratio_map()};
    if (auto bytes = service::encode(report)) wire[i] = std::move(*bytes);
    if (maps != nullptr) (*maps)[i] = std::move(report.map);
  });
  return wire;
}

std::uint64_t digest(const Rows& rows) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const Ranked& row : rows) {
    const std::size_t n = row.size();
    mix(&n, sizeof n);
    for (const auto& node : row) {
      mix(node.node_id.data(), node.node_id.size());
      mix(&node.similarity, sizeof node.similarity);
    }
  }
  return h;
}

bool same_answer(const Ranked& a, const Ranked& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_id != b[i].node_id) return false;
    if (std::memcmp(&a[i].similarity, &b[i].similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

MapIndex stored_maps(const service::ShardedFrontend& frontend,
                     std::span<const std::string> ids) {
  MapIndex maps;
  maps.reserve(ids.size());
  for (const std::string& id : ids) {
    if (auto map = frontend.map_of(id)) maps.emplace(id, std::move(*map));
  }
  return maps;
}

Ranked naive_rank(const std::string& client, std::span<const std::string> pool,
                  const MapIndex& maps, std::size_t k) {
  const auto self = maps.find(client);
  if (self == maps.end()) return {};
  Ranked all;
  for (const std::string& id : pool) {
    if (id == client) continue;
    const auto it = maps.find(id);
    if (it == maps.end()) continue;
    all.push_back(service::RankedNode{
        id, core::similarity(core::SimilarityKind::kCosine, self->second,
                             it->second)});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.node_id < b.node_id;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

Corpus build_corpus(std::uint64_t seed, std::size_t dns_servers,
                    std::size_t replicas, SimTime start, Duration campaign,
                    Duration interval, ThreadPool& pool) {
  Corpus c;
  c.world = std::make_unique<eval::World>(
      world_config(seed, dns_servers, replicas));
  (void)c.world->run_probing_parallel(
      start, start + campaign, interval, &pool);
  c.hosts = c.world->participants();
  c.ids = host_names(*c.world, c.hosts);
  c.loaded_at = c.world->campaign_end();
  c.wire = encode_reports(*c.world, c.hosts, c.ids, c.loaded_at, pool,
                          nullptr);
  for (const std::string& bytes : c.wire) c.wire_bytes += bytes.size();
  c.frontend =
      std::make_unique<service::ShardedFrontend>(frontend_config(kShards));
  c.accepted = c.frontend->publish_batch(c.wire, c.loaded_at, &pool);
  c.frontend->publish_snapshots(c.loaded_at);
  return c;
}

}  // namespace e2e
