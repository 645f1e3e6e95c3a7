// The CDN's internal network-measurement subsystem.
//
// Large CDNs continuously estimate path latency between their edge servers
// and client name servers, and feed those estimates into redirection.
// The estimates are imperfect: they refresh on an epoch (not continuously)
// and carry multiplicative measurement noise. Both imperfections are
// modelled as pure hash functions of (resolver, replica, epoch), keeping
// the whole subsystem stateless and deterministic.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/latency_model.hpp"

namespace crp::cdn {

struct MeasurementConfig {
  std::uint64_t seed = 13;
  /// How often estimates refresh.
  Duration refresh = Seconds(30);
  /// Log-normal sigma of measurement noise.
  double noise_sigma = 0.12;
};

class MeasurementSystem {
 public:
  /// `oracle` must outlive the system.
  MeasurementSystem(const netsim::LatencyOracle& oracle,
                    MeasurementConfig config);

  /// The CDN's current latency estimate between a client resolver and a
  /// replica host, in milliseconds.
  [[nodiscard]] double estimate_ms(HostId resolver, HostId replica_host,
                                   SimTime t) const;

  /// Refresh epoch containing `t`. Two times in the same epoch get the
  /// same `estimate_ms` for every pair, so callers may memoize on it.
  [[nodiscard]] std::int64_t epoch(SimTime t) const {
    return t.micros() / std::max<std::int64_t>(1, config_.refresh.micros());
  }

  [[nodiscard]] const MeasurementConfig& config() const { return config_; }

 private:
  const netsim::LatencyOracle* oracle_;
  MeasurementConfig config_;
};

}  // namespace crp::cdn
