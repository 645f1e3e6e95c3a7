// Percentiles, the metric table, and the one-line JSON result.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Linear-interpolated percentile (q in [0, 1]) of `values`; NaN if empty.
/// Infinite entries (failed requests) sort last.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order; printed as a table (stderr) and as the
/// result object (stdout).
class MetricTable {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

  void print_table(std::FILE* out) const {
    for (const Metric& m : metrics_) {
      std::fprintf(out, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

  /// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
  [[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                        std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      char value[64];
      // JSON has no NaN/inf; a non-finite figure is printed as null and
      // fails the run's correctness (see main.cpp).
      if (std::isfinite(m.value)) {
        std::snprintf(value, sizeof value, "%.17g", m.value);
      } else {
        std::snprintf(value, sizeof value, "null");
      }
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace e2e
