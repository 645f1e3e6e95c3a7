// Inputs and reference answers for the end-to-end benchmark: the worlds
// it builds from the seed, the wire reports it feeds the serving tier,
// and the naive rankings and digests the answers are checked against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "core/ratio_map.hpp"
#include "eval/world.hpp"
#include "service/sharded_frontend.hpp"

namespace e2e {

inline constexpr std::size_t kCandidates = 240;
inline constexpr std::size_t kCampaignDnsServers = 1000;
inline constexpr std::size_t kCorpusDnsServers = 8000;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kTopK = 5;

/// Independent stream `salt` of the command-line seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt);

crp::eval::WorldConfig world_config(std::uint64_t seed,
                                    std::size_t dns_servers,
                                    std::size_t replicas);

/// Snapshots on, republished only by explicit publish_snapshots calls.
crp::service::ShardedFrontendConfig frontend_config(std::size_t shards);

std::vector<std::string> host_names(const crp::eval::World& world,
                                    std::span<const crp::HostId> hosts);

/// Wire-encodes every host's current ratio map at `when`, fanned out on
/// `pool` into per-host slots. `maps`, when given, receives the maps.
std::vector<std::string> encode_reports(crp::eval::World& world,
                                        std::span<const crp::HostId> hosts,
                                        std::span<const std::string> names,
                                        crp::SimTime when,
                                        crp::ThreadPool& pool,
                                        std::vector<crp::core::RatioMap>* maps);

using Ranked = std::vector<crp::service::RankedNode>;
using Rows = std::vector<Ranked>;

/// FNV-1a over ids and similarity bit patterns.
std::uint64_t digest(const Rows& rows);

bool same_answer(const Ranked& a, const Ranked& b);

using MapIndex = std::unordered_map<std::string, crp::core::RatioMap>;

/// The maps the frontend stores for `ids` (decoded from the wire).
MapIndex stored_maps(const crp::service::ShardedFrontend& frontend,
                     std::span<const std::string> ids);

/// Naive reference ranking: per-pair core::similarity from `client` to
/// every entry of `pool` except the client, ordered by (similarity desc,
/// id asc), first k.
Ranked naive_rank(const std::string& client,
                  std::span<const std::string> pool, const MapIndex& maps,
                  std::size_t k);

/// The serving corpus: one campaign's participants loaded into a
/// sharded frontend.
struct Corpus {
  std::unique_ptr<crp::eval::World> world;
  std::unique_ptr<crp::service::ShardedFrontend> frontend;
  std::vector<crp::HostId> hosts;
  std::vector<std::string> ids;  // candidates first, then DNS servers
  std::vector<std::string> wire;
  std::size_t accepted = 0;
  std::uint64_t wire_bytes = 0;
  crp::SimTime loaded_at;

  [[nodiscard]] std::span<const std::string> candidates() const {
    return std::span<const std::string>(ids).first(kCandidates);
  }
};

/// World build, a `campaign`-long probing campaign from `start` at
/// `interval`, and the initial load of every report into a 4-shard
/// frontend.
Corpus build_corpus(std::uint64_t seed, std::size_t dns_servers,
                    std::size_t replicas, crp::SimTime start,
                    crp::Duration campaign,
                    crp::Duration interval, crp::ThreadPool& pool);

}  // namespace e2e
