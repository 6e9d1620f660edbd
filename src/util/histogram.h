// Fixed-width bucket histogram used for detour-count and occupancy
// distributions. Values above the last bucket accumulate in an overflow bin.

#ifndef SRC_UTIL_HISTOGRAM_H_
#define SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/util/logging.h"

namespace dibs {

class Histogram {
 public:
  // Buckets are [0, width), [width, 2*width), ..., plus an overflow bucket.
  Histogram(double bucket_width, size_t num_buckets)
      : bucket_width_(bucket_width), counts_(num_buckets + 1, 0) {
    DIBS_CHECK(bucket_width > 0.0);
    DIBS_CHECK(num_buckets > 0);
  }

  void Add(double value, uint64_t count = 1) {
    size_t idx = value < 0 ? 0 : static_cast<size_t>(value / bucket_width_);
    if (idx >= counts_.size() - 1) {
      idx = counts_.size() - 1;  // overflow bucket
    }
    counts_[idx] += count;
    total_ += count;
    if (value > max_seen_) {
      max_seen_ = value;
    }
  }

  uint64_t total() const { return total_; }
  double max_seen() const { return max_seen_; }
  size_t num_buckets() const { return counts_.size() - 1; }
  uint64_t bucket_count(size_t i) const { return counts_[i]; }
  uint64_t overflow_count() const { return counts_.back(); }
  double bucket_lower_bound(size_t i) const { return static_cast<double>(i) * bucket_width_; }

  // Fraction of samples with value < the upper bound of bucket i.
  double CumulativeFraction(size_t i) const {
    if (total_ == 0) {
      return 0.0;
    }
    uint64_t acc = 0;
    for (size_t j = 0; j <= i && j < counts_.size(); ++j) {
      acc += counts_[j];
    }
    return static_cast<double>(acc) / static_cast<double>(total_);
  }

  // Smallest bucket upper-bound value v such that at least `fraction` of
  // samples are < v. Returns max_seen() if fraction is 1.0.
  double ApproxQuantile(double fraction) const {
    if (total_ == 0) {
      return 0.0;
    }
    const auto target = static_cast<uint64_t>(fraction * static_cast<double>(total_));
    uint64_t acc = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      acc += counts_[i];
      if (acc >= target) {
        return bucket_lower_bound(i + 1);
      }
    }
    return max_seen_;
  }

 private:
  double bucket_width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  double max_seen_ = 0.0;
};

}  // namespace dibs

#endif  // SRC_UTIL_HISTOGRAM_H_
