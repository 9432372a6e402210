#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> s = xs_;
  std::sort(s.begin(), s.end());
  if (s.size() == 1) return s.front();
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

}  // namespace mvs::util
