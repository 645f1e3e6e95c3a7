#include "load.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <random>
#include <thread>

#include "common/thread_pool.hpp"
#include "trace.hpp"

namespace e2e {

Schedule make_schedule(std::uint64_t seed, double rate, double seconds,
                       std::size_t clients, std::size_t verify) {
  std::mt19937_64 rng{seed};
  std::exponential_distribution<double> gap{rate};
  std::uniform_int_distribution<std::uint32_t> client{
      0, static_cast<std::uint32_t>(clients - 1)};
  std::bernoulli_distribution closest{0.2};
  Schedule s;
  double t = 0.0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds) break;
    Request r;
    r.due_ns = static_cast<std::int64_t>(t * 1e9);
    r.client = client(rng);
    r.kind = closest(rng) ? ReadKind::kClosest : ReadKind::kClosestAny;
    s.requests.push_back(r);
  }
  if (!s.requests.empty()) {
    std::uniform_int_distribution<std::size_t> pick{0, s.requests.size() - 1};
    for (std::size_t v = 0; v < verify; ++v) {
      Request& r = s.requests[pick(rng)];
      if (r.verify_slot < 0) {
        r.verify_slot = static_cast<std::int32_t>(s.verify_count++);
      }
    }
  }
  return s;
}

void wait_until(std::int64_t due_ns) {
  for (;;) {
    const std::int64_t left = due_ns - now_ns();
    if (left <= 0) return;
    // A sleeping thread (and, in a VM, its halted vCPU) can wake up
    // milliseconds late, so the last 2 ms are spent yielding instead.
    if (left > 3'000'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 2'000'000));
    } else {
      std::this_thread::yield();
    }
  }
}

LoadResult run_open_loop(const Schedule& schedule, const ReadTarget& target,
                         std::size_t readers,
                         const std::function<void(std::int64_t)>& main_task) {
  const std::size_t n = schedule.requests.size();
  LoadResult result;
  result.latency_us.assign(n, 0.0);
  result.queue_wait_us.assign(n, 0.0);
  result.verified.resize(schedule.verify_count);
  std::vector<std::vector<double>> late(readers);
  std::vector<std::uint64_t> failed(readers, 0);
  std::atomic<std::size_t> next{0};
  // Readers start 20 ms after the schedule is armed, so every thread is
  // running before the first arrival is due.
  const std::int64_t start_ns = now_ns() + 20'000'000;

  const auto reader = [&](std::size_t r) {
    crp::ThreadPool inline_pool{0};
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const Request& req = schedule.requests[i];
      const std::int64_t due = start_ns + req.due_ns;
      const bool free_before_due = now_ns() < due;
      wait_until(due);
      const std::int64_t begin = now_ns();
      std::vector<crp::service::RankedNode> answer;
      {
        Scope read(target.root, i);
        const auto view = [&] {
          Scope s("service.view");
          return target.frontend->view();
        }();
        const std::string& client = target.ids[req.client];
        if (req.kind == ReadKind::kClosestAny) {
          Scope s("service.closest_any");
          answer = view.closest_any(client, target.k, target.now,
                                    &inline_pool);
        } else {
          Scope s("service.closest");
          answer = view.closest(client, target.candidates, target.k,
                                target.now, &inline_pool);
        }
      }
      const std::int64_t end = now_ns();
      result.queue_wait_us[i] = static_cast<double>(begin - due) / 1e3;
      if (free_before_due) {
        late[r].push_back(static_cast<double>(begin - due) / 1e3);
      }
      if (answer.empty()) {
        ++failed[r];
        result.latency_us[i] = std::numeric_limits<double>::infinity();
      } else {
        result.latency_us[i] = static_cast<double>(end - due) / 1e3;
      }
      if (req.verify_slot >= 0) {
        result.verified[static_cast<std::size_t>(req.verify_slot)] =
            std::move(answer);
      }
    }
  };

  std::vector<std::thread> threads;
  const std::size_t spawned = main_task ? readers : readers - 1;
  threads.reserve(spawned);
  for (std::size_t r = 0; r < spawned; ++r) threads.emplace_back(reader, r);
  std::exception_ptr error;
  try {
    if (main_task) {
      main_task(start_ns);
    } else {
      reader(readers - 1);
    }
  } catch (...) {
    error = std::current_exception();
    next.store(n, std::memory_order_relaxed);  // readers drain and stop
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  for (std::size_t r = 0; r < readers; ++r) {
    result.failed += failed[r];
    result.generator_late_us.insert(result.generator_late_us.end(),
                                    late[r].begin(), late[r].end());
  }
  return result;
}

}  // namespace e2e
