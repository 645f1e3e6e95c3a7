// Open-loop read load: a seeded arrival schedule served by reader
// threads that pull the next arrival from one shared queue (independent
// clients, a fixed number of servers). Latency is timed from each
// request's due time, so a stall also charges the requests queued
// behind it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "service/sharded_frontend.hpp"

namespace e2e {

enum class ReadKind : std::uint8_t { kClosestAny, kClosest };

struct Request {
  std::int64_t due_ns = 0;  // offset from the schedule's start
  std::uint32_t client = 0;
  ReadKind kind = ReadKind::kClosestAny;
  std::int32_t verify_slot = -1;  // >= 0: keep the answer for checking
};

struct Schedule {
  std::vector<Request> requests;
  std::size_t verify_count = 0;
};

/// Poisson arrivals at `rate` for `seconds`; 80 % closest_any and 20 %
/// closest, clients uniform over `clients`; `verify` answers kept.
Schedule make_schedule(std::uint64_t seed, double rate, double seconds,
                       std::size_t clients, std::size_t verify);

struct LoadResult {
  std::vector<double> latency_us;     // per request; +inf when it failed
  std::vector<double> queue_wait_us;  // due -> call start
  /// Lateness of requests a free reader issued after their due time
  /// (wake-up delay of the generator itself, not queueing).
  std::vector<double> generator_late_us;
  std::uint64_t failed = 0;
  std::vector<std::vector<crp::service::RankedNode>> verified;  // by slot
};

struct ReadTarget {
  const crp::service::ShardedFrontend* frontend = nullptr;
  std::span<const std::string> ids;         // client ids by index
  std::span<const std::string> candidates;  // closest()'s candidate list
  std::size_t k = 5;
  crp::SimTime now;
  const char* root = "bench.read";  // root span name of each request
};

/// Serves `schedule` with `readers` threads. Without `main_task` the
/// calling thread is one of the readers; with it, every reader is a new
/// thread and the caller runs `main_task(start_ns)` meanwhile (the churn
/// writer).
LoadResult run_open_loop(
    const Schedule& schedule, const ReadTarget& target, std::size_t readers,
    const std::function<void(std::int64_t)>& main_task = nullptr);

/// Sleeps, then yields, until the steady clock reaches `due_ns`.
void wait_until(std::int64_t due_ns);

}  // namespace e2e
