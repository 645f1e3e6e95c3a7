#include "service/serving_snapshot.hpp"

#include "service/read_path.hpp"

namespace crp::service {

ShardReader ServingSnapshot::reader() const {
  return ShardReader{engine_->view(),   *nodes_,    *when_,
                     Liveness{config_}, *counters_, clustering_.get()};
}

std::optional<ServingSnapshot::Resident> ServingSnapshot::resident(
    const std::string& node_id, SimTime now) const {
  return reader().resident(node_id, now);
}

std::vector<std::string> ServingSnapshot::live_nodes(SimTime now) const {
  return Gather(reader()).live_nodes(now);
}

std::vector<RankedNode> ServingSnapshot::closest(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return Gather(reader()).closest(client, candidates, k, now, nullptr);
}

std::vector<RankedNode> ServingSnapshot::closest_any(
    const std::string& client, std::size_t k, SimTime now) const {
  return Gather(reader()).closest_any(client, k, now, nullptr);
}

TieredAnswer ServingSnapshot::closest_any_tiered(const std::string& client,
                                                 std::size_t k,
                                                 SimTime now) const {
  return Gather(reader()).closest_any_tiered(client, k, now, nullptr);
}

TieredAnswer ServingSnapshot::closest_tiered(
    const std::string& client, std::span<const std::string> candidates,
    std::size_t k, SimTime now) const {
  return Gather(reader()).closest_tiered(client, candidates, k, now, nullptr);
}

std::vector<RankedNode> ServingSnapshot::top_k(const core::RatioMap& query,
                                               std::size_t k,
                                               SimTime now) const {
  return Gather(reader()).top_k(query, k, now, nullptr);
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return Gather(reader()).closest_batch(clients, k, now, pool);
}

std::vector<std::vector<RankedNode>> ServingSnapshot::closest_batch(
    std::span<const std::string> clients,
    std::span<const std::string> candidates, std::size_t k, SimTime now,
    ThreadPool* pool) const {
  return Gather(reader()).closest_batch(clients, candidates, k, now, pool);
}

std::vector<std::string> ServingSnapshot::same_cluster(
    const std::string& node_id, SimTime now) const {
  return reader().same_cluster(node_id, now);
}

std::unordered_map<std::string, std::size_t>
ServingSnapshot::cluster_assignment(SimTime now) const {
  return reader().cluster_assignment(now);
}

std::vector<std::string> ServingSnapshot::diverse_set(
    std::size_t n, SimTime now, std::uint64_t seed) const {
  return reader().diverse_set(n, now, seed);
}

}  // namespace crp::service
