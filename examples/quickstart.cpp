// Quickstart: the CRP pipeline end to end, on a small world.
//
//  1. Build a simulated Internet with a CDN on top.
//  2. Let every node passively collect CDN redirections for a day.
//  3. Ask CRP for the closest candidate server to one client, and
//     compare the recommendation against ground-truth RTTs.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/ratio_map.hpp"
#include "core/selection.hpp"
#include "eval/ground_truth.hpp"
#include "eval/world.hpp"

int main() {
  using namespace crp;

  // A small world: 40 candidate servers, 60 clients, ~200 CDN replicas.
  eval::WorldConfig config;
  config.seed = 1;
  config.num_candidates = 40;
  config.num_dns_servers = 60;
  config.cdn.target_replicas = 200;

  std::printf("building world...\n");
  eval::World world{config};
  std::printf("  regions=%zu ases=%zu pops=%zu hosts=%zu replicas=%zu\n",
              world.topology().num_regions(), world.topology().num_ases(),
              world.topology().num_pops(), world.topology().num_hosts(),
              world.deployment().size());

  // Probe the CDN every 10 minutes for 24 hours (sim time).
  std::printf("running 24h probing campaign...\n");
  const std::size_t slots = world.run_probing(
      SimTime::epoch(), SimTime::epoch() + Hours(24), Minutes(10));
  const eval::CampaignStats& campaign = world.campaign_stats();
  std::printf("  %zu schedule slots, %.1f probes/node, %zu CDN queries total\n",
              slots,
              static_cast<double>(campaign.probes_issued) /
                  static_cast<double>(campaign.participants),
              world.cdn_queries_served());

  // Collect ratio maps.
  std::vector<core::RatioMap> candidate_maps;
  for (HostId h : world.candidates()) {
    candidate_maps.push_back(world.crp_node(h).ratio_map());
  }

  // Pick the first client and ask CRP for the closest candidates.
  const HostId client = world.dns_servers()[0];
  const core::RatioMap client_map = world.crp_node(client).ratio_map();
  std::printf("client %s sees %zu distinct replicas\n",
              world.topology().host(client).name.c_str(),
              world.crp_node(client).history().distinct_replicas());

  const auto top = core::select_top_k(client_map, candidate_maps, 5);
  std::printf("\nCRP top-5 recommendations:\n");
  std::printf("  %-34s %-10s %-12s\n", "candidate", "cos_sim", "true RTT ms");
  for (const core::RankedCandidate& rc : top) {
    const HostId h = world.candidates()[rc.index];
    std::printf("  %-34s %-10.4f %-12.1f\n",
                world.topology().host(h).name.c_str(), rc.similarity,
                world.ground_truth_rtt_ms(client, h));
  }

  // How good was that? Compare with the true closest candidate.
  double best_rtt = 1e18;
  HostId best;
  for (HostId h : world.candidates()) {
    const double rtt = world.ground_truth_rtt_ms(client, h);
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = h;
    }
  }
  std::printf("\noptimal candidate: %s at %.1f ms\n",
              world.topology().host(best).name.c_str(), best_rtt);
  const double selected_rtt = world.ground_truth_rtt_ms(
      client, world.candidates()[top.front().index]);
  std::printf("CRP top-1 is %.1f ms (%.1f ms from optimal) — no probe "
              "was ever sent.\n",
              selected_rtt, selected_rtt - best_rtt);
  return 0;
}
