#pragma once
// Streaming statistics accumulators used by the metrics module and benches.

#include <cstddef>
#include <vector>

namespace mvs::util {

/// Constant-memory accumulator for count/mean/variance/min/max
/// (Welford's online algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Keeps all samples; supports exact percentiles. Use for per-frame latency
/// traces where sample counts are modest (thousands).
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t count() const { return xs_.size(); }
  double percentile(double p) const;  ///< p in [0,100], linear interpolation
  const std::vector<double>& samples() const { return xs_; }

 private:
  std::vector<double> xs_;
};

}  // namespace mvs::util
