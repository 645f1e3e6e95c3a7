// Probing-campaign throughput: sequential event-scheduler replay vs the
// sharded parallel campaign (inline and on N worker threads), at three
// corpus sizes, with the latency oracle's pair cache on and off.
//
// Every variant runs 5 times, the variants alternating, and reports its
// median wall clock: one timing on a shared host swings by tens of
// percent, and a process's threads can stay stacked on one CPU for
// seconds before the OS spreads them (then an N-thread campaign runs at
// serial speed). Thread scaling is printed from the median runs and from
// the best runs, which is what the campaign reaches once spread. Because speed means nothing if the answers drift, every
// run's ratio-map digest must equal the sequential no-cache baseline
// (DESIGN.md §6), and every pair-cache-on run must report the same exact
// work count — base-RTT evaluations (pair-cache hits + misses), which
// depend on what the campaign computes, not on threads or timing. Either
// mismatch exits 1. Target: the parallel campaign >= 2.5x the inline
// pool on 4 threads at the largest corpus.
//
// CRP_BENCH_SCALE=tiny|small shrinks the corpus sweep for CI smoke runs.
// `--json=PATH` also writes the run as a BENCH_*.json document (host
// CPU count, build type, command, scale, results, acceptance).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "eval/world.hpp"

#ifndef CRP_BUILD_TYPE
#define CRP_BUILD_TYPE "unknown"
#endif

namespace {

using namespace crp;

struct Corpus {
  std::size_t candidates;
  std::size_t dns_servers;
  std::size_t replicas;
};

std::string bench_scale() {
  const char* env = std::getenv("CRP_BENCH_SCALE");
  return env == nullptr ? "paper" : env;
}

std::vector<Corpus> corpus_sweep(const std::string& scale) {
  if (scale == "tiny") return {{10, 20, 80}, {15, 30, 100}, {20, 40, 120}};
  if (scale == "small") return {{30, 60, 120}, {45, 100, 160}, {60, 150, 200}};
  return {{60, 250, 200}, {120, 500, 300}, {240, 1000, 400}};
}

eval::WorldConfig make_config(const Corpus& corpus, bool pair_cache) {
  eval::WorldConfig config;
  config.seed = 42;
  config.num_candidates = corpus.candidates;
  config.num_dns_servers = corpus.dns_servers;
  config.cdn.target_replicas = corpus.replicas;
  config.latency.pair_cache = pair_cache;
  return config;
}

/// Order-sensitive digest over every participant's ratio map; any
/// divergence between campaign variants changes it.
std::uint64_t ratio_digest(eval::World& world) {
  std::uint64_t digest = stable_hash("campaign-digest");
  for (HostId h : world.participants()) {
    // ratio_map() returns by value; keep it alive while we iterate.
    const core::RatioMap map = world.crp_node(h).ratio_map();
    for (const auto& [replica, ratio] : map.entries()) {
      std::uint64_t ratio_bits = 0;
      static_assert(sizeof(ratio_bits) == sizeof(ratio));
      std::memcpy(&ratio_bits, &ratio, sizeof(ratio_bits));
      digest = hash_combine({digest, h.value(), replica.value(), ratio_bits});
    }
  }
  return digest;
}

enum class Mode { kSequential, kParallel };

struct Variant {
  std::string label;
  std::string key;  // JSON field prefix
  Mode mode;
  bool pair_cache;
  ThreadPool* pool;  // parallel variants only
};

struct Run {
  eval::CampaignStats stats;
  std::uint64_t digest = 0;
  /// Base-RTT evaluations (pair-cache hits + misses); 0 with the cache
  /// off, which does not count.
  std::uint64_t pair_lookups = 0;
};

/// One variant's repetitions at one corpus size.
struct Measured {
  std::vector<Run> runs;

  [[nodiscard]] std::vector<double> sorted_walls() const {
    std::vector<double> walls;
    for (const Run& r : runs) walls.push_back(r.stats.wall_seconds);
    std::sort(walls.begin(), walls.end());
    return walls;
  }
  [[nodiscard]] double median_wall() const {
    return sorted_walls()[runs.size() / 2];
  }
  [[nodiscard]] double best_wall() const { return sorted_walls().front(); }
  [[nodiscard]] double probes_per_s() const {
    return static_cast<double>(runs.front().stats.probes_issued) /
           median_wall();
  }
  [[nodiscard]] double median_hit_rate() const {
    std::vector<double> rates;
    for (const Run& r : runs) rates.push_back(r.stats.oracle_pair_hit_rate());
    std::sort(rates.begin(), rates.end());
    return rates[rates.size() / 2];
  }
};

constexpr int kReps = 5;

Run run(const Corpus& corpus, const Variant& variant) {
  eval::World world{make_config(corpus, variant.pair_cache)};
  const SimTime start = SimTime::epoch();
  const SimTime end = start + Hours(6);
  const Duration interval = Minutes(15);
  if (variant.mode == Mode::kSequential) {
    (void)world.run_probing_sequential(start, end, interval);
  } else {
    (void)world.run_probing_parallel(start, end, interval, variant.pool);
  }
  const eval::CampaignStats& stats = world.campaign_stats();
  return Run{stats, ratio_digest(world),
             stats.oracle_pair_hits + stats.oracle_pair_misses};
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double round2(double x) {
  return static_cast<double>(std::llround(x * 100)) / 100;
}

struct Row {
  Corpus corpus;
  std::vector<Measured> variants;  // same order as the variant list
  std::uint64_t digest = 0;
  std::uint64_t pair_lookups = 0;
};

/// N threads vs the inline pool (the last two variants) by `wall`.
double thread_scaling(const Row& r, double (Measured::*wall)() const) {
  return (r.variants[r.variants.size() - 2].*wall)() /
         (r.variants.back().*wall)();
}

void write_json(const std::string& path, const std::string& scale,
                std::size_t threads, const std::vector<Variant>& variants,
                const std::vector<Row>& rows, bool ok) {
  std::ofstream out{path};
  const auto scaling = [](const Row& r) {
    return thread_scaling(r, &Measured::median_wall);
  };
  const auto best_scaling = [](const Row& r) {
    return thread_scaling(r, &Measured::best_wall);
  };
  const double largest = rows.empty() ? 0.0 : scaling(rows.back());
  const bool met = ok && largest >= 2.5;
  out << "{\n"
      << "  \"benchmark\": \"probing-campaign throughput: sequential "
         "event-scheduler vs sharded parallel replay (inline and "
      << threads
      << " threads), latency-oracle pair cache on/off\",\n"
      << "  \"source\": \"bench/micro_campaign.cpp\",\n"
      << "  \"command\": \"./build/bench/micro_campaign --json=" << path
      << "\",\n"
      << "  \"context\": {\n"
      << "    \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"build_type\": \"" << CRP_BUILD_TYPE << "\",\n"
      << "    \"scale\": \"" << scale << "\",\n"
      << "    \"campaign\": \"6 h at 15 min probe intervals, seed 42, a "
         "fresh world per run; each variant run "
      << kReps
      << " times, variants alternating; probes_per_s from the median wall "
         "clock\",\n"
      << "    \"determinism\": \"" << (ok ? "every" : "NOT every")
      << " run's ratio-map digest equals the sequential no-cache baseline, "
         "and every pair-cache-on run reports the same pair_lookups\"\n"
      << "  },\n"
      << "  \"acceptance\": {\n"
      << "    \"criterion\": \"parallel campaign on " << threads
      << " threads >= 2.5x the 0-thread inline pool at the largest "
         "corpus\",\n"
      << "    \"status\": \"" << (met ? "met" : "not met") << "\",\n"
      << "    \"thread_speedup_largest_corpus\": " << round2(largest) << ",\n"
      << "    \"thread_speedup_best_runs_largest_corpus\": "
      << (rows.empty() ? 0.0 : round2(best_scaling(rows.back()))) << "\n"
      << "  },\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"corpus\": \"" << r.corpus.candidates << " candidates, "
        << r.corpus.dns_servers << " dns servers, " << r.corpus.replicas
        << " replicas\", \"probes\": "
        << r.variants.front().runs.front().stats.probes_issued
        << ", \"pair_lookups\": " << r.pair_lookups;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const Measured& m = r.variants[v];
      out << ", \"" << variants[v].key
          << "_probes_per_s\": " << std::llround(m.probes_per_s()) << ", \""
          << variants[v].key << "_walls_s\": [";
      for (std::size_t k = 0; k < m.runs.size(); ++k) {
        out << (k == 0 ? "" : ", ") << round2(m.runs[k].stats.wall_seconds);
      }
      out << "]";
    }
    out << ", \"thread_speedup\": " << round2(scaling(r))
        << ", \"thread_speedup_best_runs\": " << round2(best_scaling(r))
        << ", \"pair_cache_hit_rate_parallel\": "
        << round2(r.variants.back().median_hit_rate()) << ", \"digest\": \""
        << hex(r.digest) << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
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
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t threads = hw >= 8 ? 8 : (hw > 1 ? hw : 1);
  std::printf("micro_campaign: hardware threads %zu, median of %d runs\n", hw,
              kReps);

  ThreadPool inline_pool{0};
  ThreadPool pool{threads};
  // The baseline first, the thread scaling pair last.
  const std::vector<Variant> variants = {
      {"sequential (no pair cache)", "sequential_no_pair_cache",
       Mode::kSequential, false, nullptr},
      {"sequential", "sequential", Mode::kSequential, true, nullptr},
      {"parallel (0 threads)", "parallel_0_threads", Mode::kParallel, true,
       &inline_pool},
      {"parallel (" + std::to_string(threads) + " threads)",
       "parallel_" + std::to_string(threads) + "_threads", Mode::kParallel,
       true, &pool},
  };

  bool ok = true;
  std::vector<Row> rows;
  for (const Corpus& corpus : corpus_sweep(scale)) {
    std::printf("corpus: %zu candidates, %zu dns servers, %zu replicas\n",
                corpus.candidates, corpus.dns_servers, corpus.replicas);
    Row row{corpus, std::vector<Measured>(variants.size()), 0, 0};
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        row.variants[v].runs.push_back(run(corpus, variants[v]));
      }
    }

    // Equivalence and exact work: every run, cached or not, threaded or
    // not, must leave the same ratio maps behind, and every cached run
    // must have evaluated the same base RTTs.
    row.digest = row.variants.front().runs.front().digest;
    row.pair_lookups = row.variants.back().runs.front().pair_lookups;
    bool digests_ok = true;
    bool work_ok = true;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (const Run& r : row.variants[v].runs) {
        if (r.digest != row.digest) digests_ok = false;
        if (variants[v].pair_cache && r.pair_lookups != row.pair_lookups) {
          work_ok = false;
        }
      }
    }

    const double baseline = row.variants.front().median_wall();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const Measured& m = row.variants[v];
      std::printf(
          "  %-26s %8zu probes  %9.0f probes/s  median wall %7.3f s  "
          "speedup %5.2fx  pair lookups %10llu  pair-cache hit %5.1f%%\n",
          variants[v].label.c_str(), m.runs.front().stats.probes_issued,
          m.probes_per_s(), m.median_wall(), baseline / m.median_wall(),
          static_cast<unsigned long long>(m.runs.front().pair_lookups),
          100.0 * m.median_hit_rate());
    }
    std::printf(
        "  thread scaling: %s %.2fx the inline pool (median runs), %.2fx "
        "(best runs)\n",
        variants.back().label.c_str(),
        thread_scaling(row, &Measured::median_wall),
        thread_scaling(row, &Measured::best_wall));
    if (digests_ok) {
      std::printf("  digest: identical across variants (%s)\n",
                  hex(row.digest).c_str());
    } else {
      std::printf("  digest MISMATCH:");
      for (std::size_t v = 0; v < variants.size(); ++v) {
        for (const Run& r : row.variants[v].runs) {
          std::printf(" %s=%s", variants[v].key.c_str(),
                      hex(r.digest).c_str());
        }
      }
      std::printf("\n");
    }
    if (work_ok) {
      std::printf("  pair lookups: identical across cached runs (%llu)\n",
                  static_cast<unsigned long long>(row.pair_lookups));
    } else {
      std::printf("  pair lookups MISMATCH:");
      for (std::size_t v = 0; v < variants.size(); ++v) {
        if (!variants[v].pair_cache) continue;
        for (const Run& r : row.variants[v].runs) {
          std::printf(" %s=%llu", variants[v].key.c_str(),
                      static_cast<unsigned long long>(r.pair_lookups));
        }
      }
      std::printf("\n");
    }
    ok = ok && digests_ok && work_ok;
    rows.push_back(std::move(row));
  }

  if (!json_path.empty()) {
    write_json(json_path, scale, threads, variants, rows, ok);
  }
  if (!ok) {
    std::fprintf(stderr,
                 "micro_campaign: FAIL — campaign variants disagree\n");
    return 1;
  }
  return 0;
}
