// End-to-end benchmark of the CRP reproduction.
//
//   crp_e2ebench --workload <paper|dense> --seed <n> --seconds <s>
//                --trace <0|1> [--trace-out <file.csv>]
//
// One run builds every input from the seed and drives the library only
// through its public calls (eval::World, service::wire, ShardedFrontend
// and its View, core::smf_cluster), in rounds of four phases:
//
//   campaign     the operator's job: probe, encode, publish, freeze,
//                cluster and answer every DNS server (one closed pass);
//   serve_read   applications asking "which node is closest to me?": an
//                open loop of closest_any/closest reads at a fixed rate;
//   rank_all     one caller ranking every corpus node (closed loop);
//   serve_churn  the same reads while a writer re-reports nodes.
//
// A workload is a CDN shape; every phase runs on each. With --trace 0
// the result line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from spans around the same calls
// plus the library's counters, and the traced run also measures a heavy
// read rate and the highest rate that meets the read latency limit.
// Every answer check runs outside the timed regions; a failed check
// exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/clustering.hpp"
#include "core/similarity_engine.hpp"
#include "load.hpp"
#include "pipeline.hpp"
#include "report.hpp"
#include "service/position_service.hpp"
#include "service/wire.hpp"
#include "trace.hpp"

namespace {

using namespace crp;
using namespace e2e;

struct Shape {
  const char* name;
  std::size_t replicas;  // CDN size of both worlds
  double nominal_qps;    // about 1/3 of read capacity on 4 CPUs
  double heavy_qps;      // about 2/3
};

// Rates fixed once from the highest rate meeting the read p99 limit on a
// 4-vCPU host (about 24k q/s for paper, 12k-16k for dense). `dense`
// shares each replica among ~4x more nodes, so every similarity query
// touches more maps.
constexpr Shape kShapes[] = {
    {"paper", 400, 8000.0, 16000.0},
    {"dense", 100, 4000.0, 8000.0},
};

// The simulated Internet and CDN are the same on every run, like a
// dataset; the seed varies what runs on them (see campaign_start).
constexpr std::uint64_t kWorldSeed = 2008;

constexpr Duration kCampaignLength = Hours(24);
constexpr Duration kCampaignInterval = Minutes(10);
constexpr double kReadP99LimitUs = 1000.0;
constexpr std::size_t kReaders = 3;
constexpr std::size_t kRounds = 10;
constexpr std::size_t kCampaignWorkers = 3;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kChurnBatch = 150;
constexpr std::int64_t kChurnPeriodNs = 50'000'000;
constexpr std::size_t kVerifiedReads = 48;
constexpr std::size_t kVerifiedRows = 32;

enum Salt : std::uint64_t {
  kCampaignStart = 1,
  kCorpusStart,
  kNominalReads,
  kHeavyReads,
  kChurnReads,
  kChurnOrder,
  kRowSample,
  kSearchReads,
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

struct Checks {
  bool ok = true;
  void expect(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Threads of this process (Linux /proc), -1 if unknown.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

bool same_clustering(const core::Clustering& a, const core::Clustering& b) {
  if (a.assignment != b.assignment || a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].center != b.clusters[i].center ||
        a.clusters[i].members != b.clusters[i].members) {
      return false;
    }
  }
  return true;
}

/// The seed picks when a campaign starts (within two weeks of sim time),
/// which moves it through different jitter, congestion and CDN rotation
/// epochs of the fixed world.
SimTime campaign_start(std::uint64_t seed, std::uint64_t salt) {
  constexpr std::uint64_t kMinutes = 14 * 24 * 60;
  return SimTime::epoch() +
         Minutes(static_cast<std::int64_t>(derive(seed, salt) % kMinutes));
}

/// Item `index` of the seed's independent stream `salt`.
std::uint64_t stream(std::uint64_t seed, Salt salt, std::uint64_t index) {
  return derive(derive(seed, salt), index);
}

/// `count` distinct indices below `n`, seeded.
std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t count) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  std::mt19937_64 rng{seed};
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min(count, n));
  return all;
}

// ------------------------------------------------------------- campaign

struct CampaignPass {
  double build_s = 0.0;
  double probing_s = 0.0;
  std::size_t participants = 0;
  std::size_t rounds = 0;
  std::size_t accepted = 0;
  std::uint64_t wire_bytes = 0;
  std::size_t empty_rows = 0;
  std::uint64_t digest = 0;
  eval::CampaignStats stats;
  double top1_rtt_ms = 0.0;
};

/// One closed campaign pass over a fresh paper-population world:
/// run_probing_parallel, wire::encode of every map, publish_batch into a
/// 4-shard frontend, publish_snapshots, smf_cluster over the DNS servers'
/// maps, and closest_batch (top-5) of every DNS server over the
/// candidates. With `check`, the answers are verified afterwards.
CampaignPass campaign_pass(const Shape& shape, std::uint64_t seed,
                           ThreadPool& pool, std::uint64_t pass, bool check,
                           Checks& checks) {
  eval::World world{
      world_config(kWorldSeed, kCampaignDnsServers, shape.replicas)};
  const SimTime begin = campaign_start(seed, kCampaignStart);
  const std::vector<HostId> hosts = world.participants();
  const std::vector<std::string> names = host_names(world, hosts);
  const std::span<const std::string> candidates =
      std::span<const std::string>(names).first(kCandidates);
  const std::span<const std::string> dns =
      std::span<const std::string>(names).subspan(kCandidates);
  service::ShardedFrontend frontend{frontend_config(kShards)};

  CampaignPass out;
  out.participants = hosts.size();
  std::vector<core::RatioMap> maps;
  std::vector<std::string> wire;
  core::Clustering clustering;
  Rows rows;
  SimTime when;
  const std::int64_t start = now_ns();
  {
    Scope build("bench.build", pass);
    {
      Scope s("eval.run_probing");
      const std::int64_t t = now_ns();
      out.rounds = world.run_probing_parallel(
          begin, begin + kCampaignLength, kCampaignInterval, &pool);
      out.probing_s = seconds_since(t);
    }
    when = world.campaign_end();
    {
      Scope s("service.wire.encode");
      wire = encode_reports(world, hosts, names, when, pool, &maps);
    }
    {
      Scope s("service.publish_batch");
      out.accepted = frontend.publish_batch(wire, when, &pool);
    }
    {
      Scope s("service.publish_snapshots");
      frontend.publish_snapshots(when);
    }
    {
      Scope s("core.smf_cluster");
      const core::SimilarityEngine engine{
          std::span<const core::RatioMap>(maps).subspan(kCandidates)};
      clustering = core::smf_cluster(engine, core::SmfConfig{}, &pool);
    }
    const auto view = [&] {
      Scope s("service.view");
      return frontend.view();
    }();
    {
      Scope s("service.closest_batch");
      rows = view.closest_batch(dns, candidates, kTopK, when, &pool);
    }
  }
  out.build_s = seconds_since(start);
  out.stats = world.campaign_stats();
  for (const std::string& bytes : wire) out.wire_bytes += bytes.size();
  for (const Ranked& row : rows) out.empty_rows += row.empty() ? 1 : 0;
  out.digest = digest(rows);

  // Every node's probes are staggered by less than one interval, so each
  // probes once per interval of the campaign. (run_probing_parallel's
  // return value counts the unstaggered schedule, one round more; it is
  // reported as eval.rounds_returned.)
  const std::size_t rounds = static_cast<std::size_t>(
      kCampaignLength.micros() / kCampaignInterval.micros());
  checks.expect(out.stats.probes_issued == out.participants * rounds,
                "campaign issues participants x rounds probes");
  checks.expect(out.accepted == out.participants,
                "campaign publishes every report");
  if (!check) return out;

  const std::span<const core::RatioMap> dns_maps =
      std::span<const core::RatioMap>(maps).subspan(kCandidates);
  checks.expect(same_clustering(clustering,
                                core::smf_cluster_reference(dns_maps)),
                "smf_cluster equals smf_cluster_reference");

  service::ServiceConfig unsharded_config;
  service::PositionService unsharded{unsharded_config};
  (void)unsharded.publish_batch(wire, when, &pool);
  checks.expect(
      digest(unsharded.closest_batch(dns, candidates, kTopK, when, &pool)) ==
          out.digest,
      "campaign: sharded answers equal an unsharded PositionService");

  const MapIndex stored = stored_maps(frontend, names);
  for (const std::size_t i : sample_indices(derive(seed, kRowSample),
                                            dns.size(), kVerifiedRows)) {
    checks.expect(
        same_answer(rows[i], naive_rank(dns[i], candidates, stored, kTopK)),
        "campaign: answer equals the naive ranking for " + dns[i]);
  }

  // The paper's Fig. 4 quantity: ground-truth RTT to CRP's top-1 pick.
  std::unordered_map<std::string, HostId> host_of;
  for (std::size_t i = 0; i < kCandidates; ++i) host_of[names[i]] = hosts[i];
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < dns.size(); ++i) {
    if (rows[i].empty()) continue;
    sum += world.ground_truth_rtt_ms(hosts[kCandidates + i],
                                     host_of.at(rows[i].front().node_id));
    ++counted;
  }
  out.top1_rtt_ms = counted == 0 ? 0.0 : sum / static_cast<double>(counted);
  return out;
}

// ---------------------------------------------------------------- reads

struct ReadRun {
  LoadResult load;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_max_ms = 0.0;
};

ReadRun serve(const Schedule& schedule, const ReadTarget& target,
              Tally& tally,
              const std::function<void(std::int64_t)>& writer = nullptr) {
  ReadRun run;
  run.load = run_open_loop(schedule, target, kReaders, writer);
  run.p50_us = percentile(run.load.latency_us, 0.50);
  run.p99_us = percentile(run.load.latency_us, 0.99);
  if (!run.load.generator_late_us.empty()) {
    run.late_max_ms = *std::max_element(run.load.generator_late_us.begin(),
                                        run.load.generator_late_us.end()) /
                      1e3;
  }
  tally.add(schedule.requests.size(), run.load.failed);
  return run;
}

/// Checks kept answers against the naive ranking over the stored maps.
void verify_reads(const Schedule& schedule, const LoadResult& load,
                  const ReadTarget& target, const MapIndex& stored,
                  Checks& checks, const char* phase) {
  for (const Request& r : schedule.requests) {
    if (r.verify_slot < 0) continue;
    const std::string& client = target.ids[r.client];
    const Ranked expected =
        r.kind == ReadKind::kClosestAny
            ? naive_rank(client, target.ids, stored, target.k)
            : naive_rank(client, target.candidates, stored, target.k);
    checks.expect(
        same_answer(load.verified[static_cast<std::size_t>(r.verify_slot)],
                    expected),
        std::string(phase) + ": answer equals the naive ranking for " +
            client);
  }
}

/// The stepped search for the highest offered rate whose p99 stays under
/// the limit (a growing backlog breaks it too). Each round brackets the
/// rate between a passing and a failing step a factor 1.25 apart,
/// starting from the median of the earlier rounds' results, and
/// interpolates p99 linearly to the limit inside the bracket; the metric
/// is the median over rounds.
struct CapacitySearch {
  double next = 0.0;  // first rate the next round tries
  std::vector<double> estimates;
  double late_max_ms = 0.0;
};

void capacity_round(CapacitySearch& search, std::uint64_t seed,
                    double step_seconds, ReadTarget target, Tally& tally) {
  constexpr double kFactor = 1.25;
  target.root = "bench.read.search";
  double lo = 0.0, lo_p99 = 0.0;
  double hi = std::numeric_limits<double>::infinity(), hi_p99 = 0.0;
  double rate = search.next;
  for (int step = 0; step < 6 && (lo == 0.0 || std::isinf(hi)); ++step) {
    const Schedule s = make_schedule(
        stream(seed, kSearchReads, 16 * search.estimates.size() + step),
        rate, step_seconds, target.ids.size(), 0);
    const ReadRun run = serve(s, target, tally);
    search.late_max_ms = std::max(search.late_max_ms, run.late_max_ms);
    if (run.p99_us <= kReadP99LimitUs) {
      lo = rate;
      lo_p99 = run.p99_us;
      rate *= kFactor;
    } else {
      hi = rate;
      hi_p99 = run.p99_us;
      rate /= kFactor;
    }
  }
  double estimate = lo;
  if (lo > 0.0 && std::isfinite(hi) && std::isfinite(hi_p99)) {
    const double t = (kReadP99LimitUs - lo_p99) / (hi_p99 - lo_p99);
    estimate = lo + (hi - lo) * std::clamp(t, 0.0, 1.0);
  }
  search.estimates.push_back(estimate);
  search.next = median(search.estimates);
}

// ---------------------------------------------------------------- churn

/// Writer-side churn state, carried across churn segments so every
/// report is newer than the one it replaces.
struct ChurnState {
  std::vector<core::RatioMap> maps[2];  // [0] resident at load, [1] other
  std::vector<std::uint8_t> version;    // which map each node holds now
  std::vector<std::uint32_t> order;     // seeded re-report order
  std::vector<SimTime> last_when;
  std::size_t cursor = 0;
  std::uint64_t batches = 0;
};

/// Each node's alternative map comes from a shorter window of the same
/// campaign (its most recent probes); a node whose every window matches
/// the full map gets its last entry dropped instead.
ChurnState churn_state(Corpus& corpus, std::uint64_t seed) {
  ChurnState st;
  const std::size_t n = corpus.hosts.size();
  st.maps[0].resize(n);
  st.maps[1].resize(n);
  st.version.assign(n, 0);
  st.last_when.assign(n, corpus.loaded_at);
  for (std::size_t i = 0; i < n; ++i) {
    const core::CrpNode& node = corpus.world->crp_node(corpus.hosts[i]);
    st.maps[0][i] = node.ratio_map();
    st.maps[1][i] = st.maps[0][i];
    for (const std::size_t window : {6, 3, 1}) {
      core::RatioMap alt = node.ratio_map(window);
      if (!(alt == st.maps[0][i]) && !alt.empty()) {
        st.maps[1][i] = std::move(alt);
        break;
      }
    }
    if (st.maps[1][i] == st.maps[0][i]) {
      const auto entries = st.maps[0][i].entries();
      if (entries.size() > 1) {
        st.maps[1][i] = core::RatioMap::from_ratios(
            entries.first(entries.size() - 1));
      }
    }
  }
  st.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) st.order[i] = static_cast<std::uint32_t>(i);
  std::mt19937_64 rng{derive(seed, kChurnOrder)};
  std::shuffle(st.order.begin(), st.order.end(), rng);
  return st;
}

struct ChurnRun {
  ReadRun reads;
  std::vector<double> visible_ms;
  std::size_t sent = 0;
  std::size_t accepted = 0;
  std::uint64_t epoch_lag_max = 0;
};

/// The nominal read schedule plus one writer re-reporting kChurnBatch
/// nodes every kChurnPeriodNs: encode, publish_batch, publish_snapshots.
ChurnRun churn(Corpus& corpus, ChurnState& st, const Schedule& schedule,
               const ReadTarget& target, double seconds, bool observe_lag,
               Tally& tally) {
  ChurnRun out;
  service::ShardedFrontend& frontend = *corpus.frontend;
  const auto writer = [&](std::int64_t start_ns) {
    ThreadPool inline_pool{0};
    const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t b = 0; b * kChurnPeriodNs < horizon; ++b) {
      const std::int64_t due = start_ns + b * kChurnPeriodNs;
      wait_until(due);
      const std::uint64_t id = st.batches++;
      const SimTime when =
          corpus.loaded_at + Millis(static_cast<std::int64_t>(id) + 1);
      {
        Scope batch("bench.churn_batch", id);
        std::vector<std::string> wire;
        wire.reserve(kChurnBatch);
        {
          Scope s("service.wire.encode");
          for (std::size_t j = 0; j < kChurnBatch; ++j) {
            const std::uint32_t node = st.order[st.cursor++ % st.order.size()];
            st.version[node] ^= 1;
            auto bytes = service::encode(service::PositionReport{
                corpus.ids[node], when, st.maps[st.version[node]][node]});
            wire.push_back(bytes ? std::move(*bytes) : std::string{});
            st.last_when[node] = when;
          }
        }
        {
          Scope s("service.publish_batch");
          out.accepted += frontend.publish_batch(wire, when, &inline_pool);
        }
        if (observe_lag) {
          out.epoch_lag_max =
              std::max(out.epoch_lag_max, frontend.stats().epoch_lag_last);
        }
        {
          Scope s("service.publish_snapshots");
          frontend.publish_snapshots(when);
        }
      }
      out.visible_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
      out.sent += kChurnBatch;
    }
  };
  out.reads = serve(schedule, target, tally, writer);
  tally.add(out.sent, out.sent - out.accepted);
  return out;
}

// ------------------------------------------------------------- rank_all

struct RankRun {
  std::vector<double> pass_s;
  Rows first;
};

/// Closed loop: closest_batch (top-5) of every corpus node over all live
/// nodes, repeated for `seconds` (at least three passes).
RankRun rank_all(const Corpus& corpus, SimTime now, double seconds,
                 ThreadPool& pool, Tally& tally) {
  RankRun out;
  const std::int64_t start = now_ns();
  for (std::uint64_t pass = 0;
       pass < 3 || seconds_since(start) < seconds; ++pass) {
    const std::int64_t t = now_ns();
    Rows rows;
    {
      Scope root("bench.rank_pass", pass);
      const auto view = [&] {
        Scope s("service.view");
        return corpus.frontend->view();
      }();
      Scope s("service.closest_batch");
      rows = view.closest_batch(corpus.ids, kTopK, now, &pool);
    }
    out.pass_s.push_back(seconds_since(t));
    std::uint64_t empty = 0;
    for (const Ranked& row : rows) empty += row.empty() ? 1 : 0;
    tally.add(rows.size(), empty);
    if (pass == 0) out.first = std::move(rows);
  }
  return out;
}

double clients_per_s(const RankRun& run, std::size_t clients) {
  std::vector<double> rates;
  for (const double s : run.pass_s) {
    rates.push_back(static_cast<double>(clients) / s);
  }
  return median(rates);
}

/// What the frontend adds at one shard: a 1-shard frontend's
/// closest_batch time divided by its own snapshot's closest_batch time
/// (medians of alternating repetitions).
double one_shard_overhead(const Corpus& corpus, SimTime now,
                          ThreadPool& pool, Checks& checks) {
  service::ShardedFrontend one{frontend_config(1)};
  (void)one.publish_batch(corpus.wire, corpus.loaded_at, &pool);
  one.publish_snapshots(corpus.loaded_at);
  const auto snapshot = one.shard(0).snapshot();
  std::vector<double> front_s, snap_s;
  std::uint64_t front_digest = 0, snap_digest = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t t = now_ns();
    {
      Scope s("service.one_shard.frontend");
      front_digest = digest(one.view().closest_batch(corpus.ids, kTopK, now,
                                                     &pool));
    }
    front_s.push_back(seconds_since(t));
    t = now_ns();
    {
      Scope s("service.one_shard.snapshot");
      snap_digest = digest(snapshot->closest_batch(corpus.ids, kTopK, now,
                                                   &pool));
    }
    snap_s.push_back(seconds_since(t));
  }
  checks.expect(front_digest == snap_digest,
                "1-shard frontend answers equal its snapshot's");
  return median(front_s) / median(snap_s);
}

// ------------------------------------------------------------- per-layer

using Groups = std::map<std::pair<std::string, std::string>, SpanGroup>;

const SpanGroup& group(const Groups& groups, const char* root,
                       const char* name) {
  static const SpanGroup kEmpty;
  const auto it = groups.find({root, name});
  return it == groups.end() ? kEmpty : it->second;
}

double self_percentile(const Groups& groups, const char* root,
                       const char* name, double q, double scale) {
  return percentile(group(groups, root, name).self_ns, q) / scale;
}

double total_self(const Groups& groups, const char* root, const char* name) {
  double sum = 0.0;
  for (const double v : group(groups, root, name).self_ns) sum += v;
  return sum;
}

/// Query-path counters of `after` minus `before`.
service::ServiceStats delta(service::ServiceStats after,
                            const service::ServiceStats& before) {
  after.queries_served -= before.queries_served;
  after.similarity_queries -= before.similarity_queries;
  after.maps_touched -= before.maps_touched;
  after.refused_queries -= before.refused_queries;
  after.postings_tombstoned -= before.postings_tombstoned;
  after.compactions -= before.compactions;
  return after;
}

std::uint64_t sum_maps_touched(const std::vector<service::ServiceStats>& s) {
  std::uint64_t total = 0;
  for (const auto& st : s) total += st.maps_touched;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: crp_e2ebench --workload <paper|dense> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes) {
    if (opt.workload == s.name) shape = &s;
  }
  if (shape == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  Checks checks;
  Tally tally;
  Tracer& tracer = Tracer::instance();

  // ---------------------------------------------------------- set-up
  // The serving corpus: 240 candidates + 8000 DNS servers from a 6 h
  // campaign at 30 min probes, loaded into a 4-shard frontend. Built
  // kSetupRepeats times; setup_s is the median.
  std::vector<double> setup_s;
  Corpus corpus;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    corpus = Corpus{};
    const std::int64_t t = now_ns();
    {
      ThreadPool pool{kCampaignWorkers};
      corpus = build_corpus(kWorldSeed, kCorpusDnsServers,
                            shape->replicas,
                            campaign_start(opt.seed, kCorpusStart), Hours(6),
                            Minutes(30), pool);
    }
    setup_s.push_back(seconds_since(t));
  }
  const std::size_t nodes = corpus.ids.size();
  checks.expect(corpus.accepted == nodes, "corpus: every report loaded");
  tally.add(nodes, nodes - corpus.accepted);
  ChurnState churn_st = churn_state(corpus, opt.seed);

  ReadTarget target;
  target.frontend = corpus.frontend.get();
  target.ids = corpus.ids;
  target.candidates = corpus.candidates();
  target.k = kTopK;
  target.now = corpus.loaded_at + Hours(1);

  // ---------------------------------------------------------- rounds
  // Each round runs every phase once: a campaign pass, nominal reads,
  // rank_all, then churn (last, because it rewrites the corpus).
  // Interleaving spreads a host slowdown over all metrics' rounds
  // instead of spoiling one phase; each metric is a median over rounds.
  // A traced run has two rounds, an untraced reference and then the
  // traced round the per-layer metrics come from, and adds the heavy
  // rate and the capacity search to each: their tails are too noisy on a
  // shared 4-vCPU host to gate on.
  const std::size_t rounds = opt.trace ? 2 : kRounds;
  const double slice = opt.seconds / static_cast<double>(kRounds);
  std::vector<CampaignPass> passes;
  std::vector<ReadRun> nominal, heavy;
  std::vector<RankRun> ranked;
  std::vector<ChurnRun> churned;
  std::vector<double> visible_ms;
  std::vector<double> nominal_late_us;
  CapacitySearch capacity;
  capacity.next = 1.5 * shape->heavy_qps;
  service::ServiceStats read_delta, churn_delta;
  ReadRun nominal_ref;  // untraced twins of the traced round's phases
  RankRun rank_ref;
  ChurnRun churn_ref;
  std::vector<service::ServiceStats> rank_before, rank_after;
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool traced = opt.trace && r == 1;
    const bool first = r == 0;
    tracer.set_enabled(traced);
    {
      ThreadPool pool{kCampaignWorkers};
      passes.push_back(
          campaign_pass(*shape, opt.seed, pool, r, first, checks));
    }

    // serve_read: answers are checked against the maps resident now.
    const MapIndex stored = stored_maps(*corpus.frontend, corpus.ids);
    const service::ServiceStats before = corpus.frontend->stats();
    const Schedule nominal_schedule =
        make_schedule(stream(opt.seed, kNominalReads, r),
                      shape->nominal_qps, 0.15 * slice, nodes, kVerifiedReads);
    target.root = "bench.read.nominal";
    if (traced) {  // the same reads untraced, for the tracing overhead
      tracer.set_enabled(false);
      nominal_ref = serve(nominal_schedule, target, tally);
      tracer.set_enabled(true);
    }
    nominal.push_back(serve(nominal_schedule, target, tally));
    if (first || traced) {
      read_delta = delta(corpus.frontend->stats(), before);
    }
    verify_reads(nominal_schedule, nominal.back().load, target, stored,
                 checks, "serve_read");
    nominal_late_us.insert(nominal_late_us.end(),
                           nominal.back().load.generator_late_us.begin(),
                           nominal.back().load.generator_late_us.end());
    if (opt.trace) {
      const Schedule heavy_schedule =
          make_schedule(stream(opt.seed, kHeavyReads, r), shape->heavy_qps,
                        0.1 * slice, nodes, kVerifiedReads);
      target.root = "bench.read.heavy";
      heavy.push_back(serve(heavy_schedule, target, tally));
      verify_reads(heavy_schedule, heavy.back().load, target, stored, checks,
                   "serve_read heavy");
      capacity_round(capacity, opt.seed, 0.08 * slice, target, tally);
    }

    // rank_all
    {
      ThreadPool pool{kCampaignWorkers};
      if (traced) {
        tracer.set_enabled(false);
        rank_ref = rank_all(corpus, target.now, 0.1 * slice, pool, tally);
        tracer.set_enabled(true);
        rank_before = corpus.frontend->shard_stats();
      }
      ranked.push_back(rank_all(corpus, target.now, 0.1 * slice, pool, tally));
      if (traced) rank_after = corpus.frontend->shard_stats();
      if (first) {
        service::ServiceConfig unsharded_config;
        service::PositionService unsharded{unsharded_config};
        (void)unsharded.publish_batch(corpus.wire, corpus.loaded_at, &pool);
        checks.expect(
            digest(unsharded.closest_batch(corpus.ids, kTopK, target.now,
                                           &pool)) ==
                digest(ranked.back().first),
            "rank_all: sharded answers equal an unsharded PositionService");
        for (const std::size_t i : sample_indices(
                 derive(opt.seed, kRowSample), nodes, kVerifiedRows)) {
          checks.expect(
              same_answer(ranked.back().first[i],
                          naive_rank(corpus.ids[i], corpus.ids, stored,
                                     kTopK)),
              "rank_all: answer equals the naive ranking for " +
                  corpus.ids[i]);
        }
      }
    }

    // serve_churn
    const Schedule churn_schedule =
        make_schedule(stream(opt.seed, kChurnReads, r),
                      shape->nominal_qps, 0.2 * slice, nodes, 0);
    target.root = "bench.read.churn";
    if (traced) {
      tracer.set_enabled(false);
      churn_ref = churn(corpus, churn_st, churn_schedule, target, 0.2 * slice,
                        false, tally);
      tracer.set_enabled(true);
    }
    const service::ServiceStats churn_before = corpus.frontend->stats();
    churned.push_back(churn(corpus, churn_st, churn_schedule, target,
                            0.2 * slice, traced, tally));
    if (traced) churn_delta = delta(corpus.frontend->stats(), churn_before);
    const ChurnRun& c = churned.back();
    visible_ms.insert(visible_ms.end(), c.visible_ms.begin(),
                      c.visible_ms.end());
    checks.expect(c.accepted == c.sent,
                  "serve_churn: every re-report accepted");
    nominal_late_us.insert(nominal_late_us.end(),
                           c.reads.load.generator_late_us.begin(),
                           c.reads.load.generator_late_us.end());
  }
  tracer.set_enabled(false);
  // The generator fell behind at the nominal rate if more than 5 % of the
  // requests a free reader issued left over the latency limit late. (A
  // stall of the host delays some wake-ups; that alone does not.)
  checks.expect(percentile(nominal_late_us, 0.95) <= kReadP99LimitUs,
                "load generator kept up with the nominal schedule");

  // After the last write, every new View sees the newest reports, and
  // answers still equal the naive ranking over them.
  {
    const MapIndex stored = stored_maps(*corpus.frontend, corpus.ids);
    const auto view = corpus.frontend->view();
    ThreadPool inline_pool{0};
    for (const std::size_t i : sample_indices(derive(opt.seed, kChurnReads),
                                              nodes, kVerifiedRows)) {
      const auto report = corpus.frontend->report_of(corpus.ids[i]);
      checks.expect(report && report->when == churn_st.last_when[i],
                    "serve_churn: newest report resident for " +
                        corpus.ids[i]);
      checks.expect(
          same_answer(view.closest_any(corpus.ids[i], kTopK, target.now,
                                       &inline_pool),
                      naive_rank(corpus.ids[i], corpus.ids, stored, kTopK)),
          "serve_churn: answer equals the naive ranking for " +
              corpus.ids[i]);
    }
  }
  for (const CampaignPass& p : passes) {
    checks.expect(p.digest == passes[0].digest,
                  "campaign passes answer identically");
    tally.add(p.stats.probes_issued, p.stats.failed_probes);
    tally.add(p.participants, p.participants - p.accepted);
    tally.add(kCampaignDnsServers, p.empty_rows);
  }

  const double maps_per_sim_query =
      static_cast<double>(read_delta.maps_touched) /
      static_cast<double>(read_delta.similarity_queries);
  std::printf("corpus: nodes=%zu wire_bytes=%llu maps_per_sim_query=%.2f\n",
              nodes, static_cast<unsigned long long>(corpus.wire_bytes),
              maps_per_sim_query);
  const auto over_rounds = [&](auto&& value) {
    std::vector<double> values;
    for (std::size_t r = 0; r < rounds; ++r) values.push_back(value(r));
    return median(values);
  };
  const double read_p99_us =
      over_rounds([&](std::size_t r) { return nominal[r].p99_us; });
  const double churn_read_p99_us =
      over_rounds([&](std::size_t r) { return churned[r].reads.p99_us; });
  const double visible_p90_ms = percentile(visible_ms, 0.9);
  std::printf("tails: read_p99_us=%.1f churn_read_p99_us=%.1f "
              "visible_p90_ms=%.3f\n",
              read_p99_us, churn_read_p99_us, visible_p90_ms);

  MetricTable out;
  if (!opt.trace) {
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("build_s", over_rounds([&](std::size_t r) {
              return passes[r].build_s;
            }), "s");
    out.add("probes_per_s", over_rounds([&](std::size_t r) {
              return static_cast<double>(passes[r].stats.probes_issued) /
                     passes[r].probing_s;
            }), "1/s");
    out.add("top1_rtt_ms", passes[0].top1_rtt_ms, "ms");
    out.add("read_p50_us",
            over_rounds([&](std::size_t r) { return nominal[r].p50_us; }),
            "us");
    out.add("churn_read_p50_us", over_rounds([&](std::size_t r) {
              return churned[r].reads.p50_us;
            }), "us");
    out.add("visible_p50_ms", percentile(visible_ms, 0.5), "ms");
    out.add("ranked_clients_per_s", over_rounds([&](std::size_t r) {
              return clients_per_s(ranked[r], nodes);
            }), "1/s");
  } else {
    // The same campaign on a 0-worker pool, for eval.inline_speedup.
    ThreadPool inline_pool{0};
    const CampaignPass inline_pass =
        campaign_pass(*shape, opt.seed, inline_pool, 2, false, checks);
    checks.expect(inline_pass.digest == passes[0].digest,
                  "campaign answers are pool-size independent");
    double one_shard = 0.0;
    {
      ThreadPool pool{kCampaignWorkers};
      one_shard = one_shard_overhead(corpus, target.now, pool, checks);
    }

    const Groups groups = aggregate(tracer);
    const CampaignPass& traced = passes[1];
    const eval::CampaignStats& cs = traced.stats;
    const char* kBuild = "bench.build";
    const auto stage_s = [&](const char* name) {
      return total_self(groups, kBuild, name) / 1e9;
    };
    const SpanGroup& build = group(groups, kBuild, kBuild);
    const double coverage =
        build.duration_ns.empty()
            ? 0.0
            : 1.0 - build.self_ns.front() / build.duration_ns.front();
    checks.expect(coverage >= 0.95,
                  "campaign stage spans cover build_s within 5 %");

    out.add("eval.run_probing_s", stage_s("eval.run_probing"), "s");
    out.add("eval.probes", static_cast<double>(cs.probes_issued), "count");
    out.add("eval.rounds_returned", static_cast<double>(traced.rounds),
            "count");
    out.add("eval.inline_speedup", inline_pass.probing_s / traced.probing_s,
            "ratio");
    out.add("netsim.pair_cache_hit_ratio", cs.oracle_pair_hit_rate(),
            "ratio");
    out.add("netsim.pair_lookups",
            static_cast<double>(cs.oracle_pair_hits + cs.oracle_pair_misses),
            "count");
    out.add("dns.resolver_hit_ratio", cs.resolver_hit_rate(), "ratio");
    out.add("dns.resolver_lookups",
            static_cast<double>(cs.resolver_cache_hits +
                                cs.resolver_cache_misses),
            "count");
    out.add("dns.upstream_queries",
            static_cast<double>(cs.upstream_dns_queries), "count");
    out.add("cdn.authoritative_queries", static_cast<double>(cs.cdn_queries),
            "count");
    out.add("core.smf_cluster_s", stage_s("core.smf_cluster"), "s");
    out.add("core.postings_tombstoned",
            static_cast<double>(churn_delta.postings_tombstoned), "count");
    out.add("core.compactions", static_cast<double>(churn_delta.compactions),
            "count");
    out.add("service.wire.encode_s", stage_s("service.wire.encode"), "s");
    out.add("service.wire.bytes", static_cast<double>(traced.wire_bytes),
            "bytes");
    out.add("service.publish_batch_s", stage_s("service.publish_batch"),
            "s");
    out.add("service.publish_snapshots_s",
            stage_s("service.publish_snapshots"), "s");
    out.add("service.closest_batch_s", stage_s("service.closest_batch"),
            "s");
    const char* kChurn = "bench.churn_batch";
    for (const char* name :
         {"service.publish_batch", "service.publish_snapshots"}) {
      out.add(std::string(name) + "_ms.p50",
              self_percentile(groups, kChurn, name, 0.5, 1e6), "ms");
      out.add(std::string(name) + "_ms.p90",
              self_percentile(groups, kChurn, name, 0.9, 1e6), "ms");
    }
    out.add("service.epoch_lag_max",
            static_cast<double>(churned[1].epoch_lag_max), "count");
    const char* kRead = "bench.read.nominal";
    for (const char* name :
         {"service.view", "service.closest_any", "service.closest"}) {
      out.add(std::string(name) + "_us.p50",
              self_percentile(groups, kRead, name, 0.5, 1e3), "us");
      out.add(std::string(name) + "_us.p99",
              self_percentile(groups, kRead, name, 0.99, 1e3), "us");
    }
    out.add("service.maps_per_sim_query", maps_per_sim_query, "count");
    out.add("service.sim_queries_per_read",
            static_cast<double>(read_delta.similarity_queries) /
                static_cast<double>(read_delta.queries_served),
            "count");
    out.add("service.refused",
            static_cast<double>(read_delta.refused_queries +
                                nominal[1].load.failed),
            "count");
    out.add("service.rank_closest_batch_s",
            self_percentile(groups, "bench.rank_pass",
                            "service.closest_batch", 0.5, 1e9),
            "s");
    std::vector<double> touched;
    for (std::size_t s = 0; s < rank_after.size(); ++s) {
      touched.push_back(static_cast<double>(rank_after[s].maps_touched -
                                            rank_before[s].maps_touched));
    }
    const double mean_touched =
        static_cast<double>(sum_maps_touched(rank_after) -
                            sum_maps_touched(rank_before)) /
        static_cast<double>(touched.size());
    out.add("service.shard_imbalance",
            *std::max_element(touched.begin(), touched.end()) / mean_touched,
            "ratio");
    out.add("service.one_shard_overhead", one_shard, "ratio");
    out.add("bench.queue_wait_us.p50",
            percentile(nominal[1].load.queue_wait_us, 0.5), "us");
    out.add("bench.queue_wait_us.p99",
            percentile(nominal[1].load.queue_wait_us, 0.99), "us");
    out.add("bench.read_self_us.p50",
            self_percentile(groups, kRead, kRead, 0.5, 1e3), "us");
    out.add("bench.generator_late_ms_max.nominal", nominal[1].late_max_ms,
            "ms");
    out.add("bench.generator_late_ms_max.heavy", heavy[1].late_max_ms, "ms");
    out.add("bench.generator_late_ms_max.search", capacity.late_max_ms, "ms");
    out.add("bench.generator_late_ms_max.churn", churned[1].reads.late_max_ms,
            "ms");
    out.add("bench.read_p99_us", read_p99_us, "us");
    out.add("bench.read_p99_us_heavy",
            over_rounds([&](std::size_t r) { return heavy[r].p99_us; }),
            "us");
    out.add("bench.read_max_qps", median(capacity.estimates), "1/s");
    out.add("bench.churn_read_p99_us", churn_read_p99_us, "us");
    out.add("bench.visible_p90_ms", visible_p90_ms, "ms");
    out.add("bench.build_stage_coverage", coverage, "ratio");
    out.add("bench.trace_overhead.campaign",
            passes[1].build_s / passes[0].build_s - 1.0, "ratio");
    out.add("bench.trace_overhead.serve_read",
            nominal[1].p50_us / nominal_ref.p50_us - 1.0, "ratio");
    out.add("bench.trace_overhead.rank_all",
            clients_per_s(rank_ref, nodes) / clients_per_s(ranked[1], nodes) -
                1.0,
            "ratio");
    out.add("bench.trace_overhead.serve_churn",
            median(churned[1].visible_ms) / median(churn_ref.visible_ms) - 1.0,
            "ratio");
    out.add("bench.failed_frac",
            static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted),
            "ratio");
    if (!opt.trace_out.empty()) {
      checks.expect(write_csv(tracer, opt.trace_out),
                    "trace written to " + opt.trace_out);
    }
  }

  // Every pool is gone: no hidden shared pool was started by the library.
  checks.expect(thread_count() == 1, "no threads left running");
  for (const Metric& m : out.all()) {
    checks.expect(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  std::fprintf(stderr, "workload %s seed %llu (%s run):\n", shape->name,
               static_cast<unsigned long long>(opt.seed),
               opt.trace ? "traced" : "untraced");
  out.print_table(stderr);
  std::printf("%s\n",
              out.result_json(checks.ok, tally.attempted, tally.failed).c_str());
  std::fflush(stdout);
  return checks.ok ? 0 : 1;
}
