// Small statistics helpers: percentiles, summaries, CDF extraction, and
// Jain's fairness index. Used by the instrumentation layer and the benches.

#ifndef SRC_UTIL_STATS_UTIL_H_
#define SRC_UTIL_STATS_UTIL_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dibs {

// Returns the p-th percentile (p in [0, 100]) of `values` using linear
// interpolation between closest ranks. Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

// Like Percentile() but for a pre-sorted vector (no copy).
double PercentileSorted(const std::vector<double>& sorted, double p);

double Mean(const std::vector<double>& values);
double StdDev(const std::vector<double>& values);

// Jain's fairness index: (sum x)^2 / (n * sum x^2). Returns 1.0 for empty or
// all-zero inputs (a degenerate but perfectly "fair" allocation).
double JainFairnessIndex(const std::vector<double>& values);

// Summary statistics bundle for one metric.
struct Summary {
  size_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;

  // Calls visit(key, field) for every field, in record order; the run-record
  // codec and the CSV sink walk this list (src/exp/record_codec.h). `Self`
  // is Summary or const Summary.
  template <typename Self, typename Visit>
  static void ForEachField(Self& self, Visit&& visit) {
    visit("count", self.count);
    visit("mean", self.mean);
    visit("min", self.min);
    visit("max", self.max);
    visit("p50", self.p50);
    visit("p90", self.p90);
    visit("p99", self.p99);
    visit("p999", self.p999);
  }
};

Summary Summarize(std::vector<double> values);

// Extracts `points` evenly spaced (value, cumulative-fraction) pairs from the
// empirical CDF of `values`. The last point is always (max, 1.0).
std::vector<std::pair<double, double>> EmpiricalCdfPoints(std::vector<double> values,
                                                          size_t points = 100);

}  // namespace dibs

#endif  // SRC_UTIL_STATS_UTIL_H_
