#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mvs::obs {

// Monotonically increasing event count. Thread-safe.
class Counter {
 public:
  void add(long long n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  long long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

// Last-written point-in-time value. Thread-safe, last writer wins; only set
// gauges from deterministic (single-writer) contexts if you care about the
// cross-thread-count determinism guard.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Streaming log2-bucket histogram: percentiles without storing samples.
//
// A positive value v lands in the bucket of its binary exponent e
// (2^e <= v < 2^(e+1)), clamped to [kMinExp, kMaxExp]; v <= 0 lands in a
// dedicated underflow bucket. percentile() walks buckets by nearest rank and
// reports the bucket midpoint clamped to the observed [min, max], so the
// estimate differs from the exact sorted-sample percentile by at most the
// width of the bucket holding the exact value (tested in test_obs).
//
// Bucket counts, count, min and max are bit-identical regardless of the
// thread interleaving of record() calls; `sum` is a floating-point
// accumulation whose value depends on addition order and is therefore
// excluded from determinism fingerprints.
class Histogram {
 public:
  static constexpr int kMinExp = -30;
  static constexpr int kMaxExp = 33;
  // +1 for the clamped exponent range being inclusive, +1 for underflow.
  static constexpr int kBucketCount = kMaxExp - kMinExp + 2;

  void record(double v);

  long long count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  // Smallest / largest recorded value; NaN when empty.
  double min() const;
  double max() const;
  // p in [0, 100]. Nearest-rank percentile estimate; NaN when empty.
  double percentile(double p) const;

  // The same nearest-rank estimate over explicit bucket counts (length
  // kBucketCount) — percentile() delegates here, and
  // MetricsRegistry::to_json() uses it on one consistent bucket snapshot.
  static double percentile_from_counts(const long long* counts, long long n,
                                       double p, double min, double max);

  std::vector<long long> bucket_counts() const;
  void reset();

  // Bucket index for a value (0 = underflow bucket for v <= 0).
  static int bucket_index(double v);
  // Inclusive lower / exclusive upper bound of a bucket. The underflow
  // bucket reports [0, 0]; the top bucket's upper bound is +inf.
  static double bucket_lower(int idx);
  static double bucket_upper(int idx);

  Histogram() { reset(); }

 private:
  std::array<std::atomic<long long>, kBucketCount> buckets_{};
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // +inf when empty, set by reset()
  std::atomic<double> max_{0.0};  // -inf when empty, set by reset()
};

// Named metric store. Lookup returns a reference that stays valid until
// reset() destroys the registry contents; hot paths may cache the reference.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Destroys all registered metrics. Do not hold references across reset().
  void reset();

  // Bumped by every reset(); probes that cache a reference re-resolve on it.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // Full snapshot exposition:
  // { "counters": {name: n}, "gauges": {name: v},
  //   "histograms": {name: {count,sum,min,max,p50,p95,p99,buckets:[...]}} }
  std::string to_json() const;

  // Deterministic identity for the cross-thread-count guard: counter and
  // gauge values, histogram bucket counts + count + min + max. Histogram
  // `sum` is always excluded (FP addition order); histograms whose name ends
  // in "_wall_ms" carry wall-clock durations and are fingerprinted by count
  // only.
  std::string fingerprint() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::atomic<std::uint64_t> generation_{1};
};

}  // namespace mvs::obs
