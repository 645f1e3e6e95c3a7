#include "cdn/measurement.hpp"

#include <cmath>
#include <numbers>

namespace crp::cdn {

MeasurementSystem::MeasurementSystem(const netsim::LatencyOracle& oracle,
                                     MeasurementConfig config)
    : oracle_(&oracle), config_(config) {}

double MeasurementSystem::estimate_ms(HostId resolver, HostId replica_host,
                                      SimTime t) const {
  const std::int64_t refresh_epoch = epoch(t);
  // The estimate was taken at the start of the epoch...
  const SimTime sample_time{refresh_epoch * config_.refresh.micros()};
  const double true_rtt = oracle_->rtt_ms(resolver, replica_host, sample_time);
  // ...with measurement noise frozen for the epoch.
  const std::uint64_t h = hash_combine(
      {config_.seed, stable_hash("cdn-measure"), resolver.value(),
       replica_host.value(), static_cast<std::uint64_t>(refresh_epoch)});
  double u1 = hash_to_unit(h);
  const double u2 = hash_to_unit(hash_mix(h ^ 0xdeadbeefULL));
  if (u1 <= 1e-12) u1 = 1e-12;
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * std::numbers::pi * u2);
  return true_rtt * std::exp(config_.noise_sigma * z);
}

}  // namespace crp::cdn
