// Batched serving: the per-query loops vs the batch paths of one
// PositionService, at three corpus sizes.
//
// Measures, per corpus:
//   * ingest  — publish_encoded loop vs publish_batch,
//   * closest — closest_any loop vs closest_batch (shared pool)
// and, because speed means nothing if the answers drift, cross-checks
// every batched result bit-for-bit against its scalar twin (exit 1 on
// any mismatch — DESIGN.md §6). The batch win is one vetting pass per
// batch plus clients ranked in parallel chunks; each client runs the
// same scalar kernel the loop does. Target: closest_batch ≥2x the
// per-query loop at the largest corpus.
//
// Every timing is the median of 5 runs. CRP_BENCH_SCALE=tiny|small
// shrinks the corpus sweep for CI smoke runs.
// `--json=PATH` also writes the run as a BENCH_*.json document (host
// CPU count, build type, command, scale, results, acceptance).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/position_service.hpp"
#include "service/wire.hpp"

#ifndef CRP_BUILD_TYPE
#define CRP_BUILD_TYPE "unknown"
#endif

namespace {

using namespace crp;

std::string bench_scale() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  return env == nullptr ? "paper" : env;
}

std::vector<std::size_t> corpus_sweep(const std::string& scale) {
  if (scale == "tiny") return {60, 120, 240};
  if (scale == "small") return {500, 1000, 2000};
  return {1000, 4000, 10000};
}

// The service-shaped corpus the other micro benches use: ~16 entries per
// map over a 2000-replica id space, so posting lists are long enough
// that a dense query really touches most of the corpus.
std::vector<core::RatioMap> make_corpus(std::size_t n) {
  Rng rng{hash_combine({91, n})};
  constexpr std::uint32_t kIdSpace = 2000;
  std::vector<core::RatioMap> maps;
  maps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<core::RatioMap::Entry> entries;
    for (int j = 0; j < 16; ++j) {
      entries.emplace_back(ReplicaId{static_cast<std::uint32_t>(
                               rng.uniform_int(0, kIdSpace - 1))},
                           rng.uniform(0.05, 1.0));
    }
    maps.push_back(core::RatioMap::from_ratios(entries));
  }
  return maps;
}

std::string node_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node-%05zu", i);
  return std::string{buf};
}

/// Median wall time of kRuns calls of `f`: one timing on a shared host
/// swings by tens of percent.
constexpr int kRuns = 5;
template <typename F>
double median_wall(F&& f) {
  std::vector<double> walls;
  for (int i = 0; i < kRuns; ++i) {
    const auto start = std::chrono::steady_clock::now();
    f();
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  std::sort(walls.begin(), walls.end());
  return walls[kRuns / 2];
}

bool same_ranked(const std::vector<service::RankedNode>& a,
                 const std::vector<service::RankedNode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node_id != b[i].node_id || a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::size_t nodes = 0;
  std::size_t batch = 0;
  double publish_loop = 0.0;   // reports/s
  double publish_batch = 0.0;  // reports/s
  double closest_loop = 0.0;   // q/s
  double closest_batch = 0.0;  // q/s
};

double round2(double x) {
  return static_cast<double>(std::llround(x * 100)) / 100;
}

void write_json(const std::string& path, const std::string& scale,
                const std::vector<Row>& rows, bool ok) {
  std::ofstream out{path};
  const double speedup =
      rows.empty() ? 0.0 : rows.back().closest_batch / rows.back().closest_loop;
  const bool met = ok && speedup >= 2.0;
  out << "{\n"
      << "  \"benchmark\": \"Batched serving: per-query loops vs the batch "
         "paths of one PositionService (publish_batch, closest_batch)\",\n"
      << "  \"source\": \"bench/micro_batch_query.cpp\",\n"
      << "  \"command\": \"./build/bench/micro_batch_query --json=" << path
      << "\",\n"
      << "  \"context\": {\n"
      << "    \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"build_type\": \"" << CRP_BUILD_TYPE << "\",\n"
      << "    \"scale\": \"" << scale << "\",\n"
      << "    \"corpus\": \"16 entries per node over a 2000-replica id space, "
         "cosine, top-5, batch of up to 256 clients spread over the corpus, "
         "closest_batch on the shared pool, each timing the median of 5 "
         "runs\",\n"
      << "    \"determinism\": \"" << (ok ? "every" : "NOT every")
      << " batched answer equals its scalar twin bit for bit\"\n"
      << "  },\n"
      << "  \"acceptance\": {\n"
      << "    \"criterion\": \"closest_batch >= 2x the per-query closest_any "
         "loop at the largest corpus\",\n"
      << "    \"status\": \"" << (met ? "met" : "not met") << "\",\n"
      << "    \"closest_batch_vs_loop_speedup_largest_corpus\": "
      << round2(speedup) << "\n"
      << "  },\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"corpus_nodes\": " << r.nodes
        << ", \"batch_clients\": " << r.batch
        << ", \"publish_encoded_loop_reports_per_s\": "
        << std::llround(r.publish_loop)
        << ", \"publish_batch_reports_per_s\": "
        << std::llround(r.publish_batch)
        << ", \"closest_any_loop_q_per_s\": " << std::llround(r.closest_loop)
        << ", \"closest_batch_q_per_s\": " << std::llround(r.closest_batch)
        << ", \"closest_batch_speedup\": "
        << round2(r.closest_batch / r.closest_loop) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--json=")) json_path = arg.substr(7);
  }
  const std::string scale = bench_scale();
  bool ok = true;
  std::vector<Row> rows;

  for (const std::size_t n : corpus_sweep(scale)) {
    const auto maps = make_corpus(n);
    const SimTime now = SimTime::epoch() + Hours(1);
    Row row;
    row.nodes = n;

    // Wire-encode every node's report once; both ingest paths reuse it.
    std::vector<std::string> ids;
    std::vector<std::string> wire;
    ids.reserve(n);
    wire.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(node_name(i));
      wire.push_back(
          *service::encode(service::PositionReport{ids[i], now, maps[i]}));
    }

    // Ingest: element-wise decode+publish vs the batched path, each run
    // into a fresh service (the last one serves the queries below).
    auto loop_svc = std::make_unique<service::PositionService>();
    const double publish_loop_wall = median_wall([&] {
      loop_svc = std::make_unique<service::PositionService>();
      for (const std::string& bytes : wire) {
        (void)loop_svc->publish_encoded(bytes, now);
      }
    });
    auto batch_svc = std::make_unique<service::PositionService>();
    std::size_t accepted = 0;
    const double publish_batch_wall = median_wall([&] {
      batch_svc = std::make_unique<service::PositionService>();
      accepted = batch_svc->publish_batch(wire, now);
    });
    const service::PositionService& svc = *batch_svc;
    if (accepted != n || svc.live_nodes(now) != loop_svc->live_nodes(now)) {
      std::printf("  ingest MISMATCH: publish_batch vs publish_encoded\n");
      ok = false;
    }
    row.publish_loop = static_cast<double>(n) / publish_loop_wall;
    row.publish_batch = static_cast<double>(n) / publish_batch_wall;
    std::printf("corpus: %zu nodes\n", n);
    std::printf("  %-26s %9.0f reports/s  wall %7.3f s\n",
                "publish_encoded (loop)", row.publish_loop, publish_loop_wall);
    std::printf("  %-26s %9.0f reports/s  wall %7.3f s  speedup %5.2fx\n",
                "publish_batch", row.publish_batch, publish_batch_wall,
                publish_loop_wall / publish_batch_wall);

    // The query batch: B clients spread evenly across the corpus.
    row.batch = std::min<std::size_t>(256, n);
    std::vector<std::string> clients;
    for (std::size_t j = 0; j < row.batch; ++j) {
      clients.push_back(ids[j * n / row.batch]);
    }
    const std::size_t reps = std::max<std::size_t>(1, 1024 / row.batch);
    const double q = static_cast<double>(reps * row.batch);
    constexpr std::size_t kTopK = 5;

    std::vector<std::vector<service::RankedNode>> closest_loop(
        clients.size());
    const double closest_loop_wall = median_wall([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t j = 0; j < clients.size(); ++j) {
          closest_loop[j] = svc.closest_any(clients[j], kTopK, now);
        }
      }
    });
    std::vector<std::vector<service::RankedNode>> closest_batched;
    const double closest_batch_wall = median_wall([&] {
      for (std::size_t r = 0; r < reps; ++r) {
        closest_batched = svc.closest_batch(clients, kTopK, now);
      }
    });
    for (std::size_t j = 0; j < clients.size(); ++j) {
      if (!same_ranked(closest_loop[j], closest_batched[j])) {
        std::printf("  closest MISMATCH: closest_batch client %zu\n", j);
        ok = false;
      }
    }
    row.closest_loop = q / closest_loop_wall;
    row.closest_batch = q / closest_batch_wall;
    std::printf("  %-26s %9.0f q/s  wall %7.3f s\n", "closest_any (loop)",
                row.closest_loop, closest_loop_wall);
    std::printf("  %-26s %9.0f q/s  wall %7.3f s  speedup %5.2fx\n",
                "closest_batch", row.closest_batch, closest_batch_wall,
                closest_loop_wall / closest_batch_wall);
    rows.push_back(row);
  }

  if (!json_path.empty()) write_json(json_path, scale, rows, ok);
  if (!ok) {
    std::fprintf(stderr, "micro_batch_query: FAIL — variants disagree\n");
    return 1;
  }
  return 0;
}
