#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/json.hpp"

namespace mvs::obs {

namespace {

// Atomically fold v into slot with a monotone op (min or max).
template <typename Op>
void atomic_fold(std::atomic<double>& slot, double v, Op better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(v, cur) &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // underflow bucket: zero, negatives, NaN
  int e = std::ilogb(v);
  e = std::clamp(e, kMinExp, kMaxExp);
  return e - kMinExp + 1;
}

double Histogram::bucket_lower(int idx) {
  if (idx <= 0) return 0.0;
  return std::ldexp(1.0, kMinExp + idx - 1);
}

double Histogram::bucket_upper(int idx) {
  if (idx <= 0) return 0.0;
  if (idx >= kBucketCount - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, kMinExp + idx);
}

void Histogram::record(double v) {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_fold(min_, v, [](double a, double b) { return a < b; });
  atomic_fold(max_, v, [](double a, double b) { return a > b; });
}

double Histogram::min() const {
  if (count() == 0) return std::numeric_limits<double>::quiet_NaN();
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  if (count() == 0) return std::numeric_limits<double>::quiet_NaN();
  return max_.load(std::memory_order_relaxed);
}

double Histogram::percentile_from_counts(const long long* counts,
                                         long long n, double p, double min,
                                         double max) {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: smallest rank r in [1, n] with r >= p/100 * n.
  long long rank = static_cast<long long>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp(rank, 1LL, n);
  long long seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const double lo = bucket_lower(i);
      double hi = bucket_upper(i);
      if (!std::isfinite(hi)) hi = lo * 2.0;
      double rep = 0.5 * (lo + hi);
      // Clamp to the observed range: exact for single-valued buckets at the
      // extremes and never worse than the midpoint elsewhere.
      rep = std::clamp(rep, min, max);
      return rep;
    }
  }
  return max;  // unreachable when counts are consistent
}

double Histogram::percentile(double p) const {
  const long long n = count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  std::array<long long, kBucketCount> counts;
  for (int i = 0; i < kBucketCount; ++i)
    counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  return percentile_from_counts(counts.data(), n, p,
                                min_.load(std::memory_order_relaxed),
                                max_.load(std::memory_order_relaxed));
}

std::vector<long long> Histogram::bucket_counts() const {
  std::vector<long long> out(kBucketCount);
  for (int i = 0; i < kBucketCount; ++i)
    out[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  generation_.fetch_add(1, std::memory_order_release);
}

namespace {

// One consistent snapshot of a histogram (count, range and buckets read
// once), exported as a JSON entry.
struct HistSnapshot {
  long long count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<long long, Histogram::kBucketCount> buckets{};

  util::Json to_entry() const {
    const bool empty = count == 0;
    util::Json::Object entry;
    entry.emplace("count", util::Json(static_cast<double>(count)));
    entry.emplace("sum", util::Json(sum));
    entry.emplace("min", util::Json(empty ? 0.0 : min));
    entry.emplace("max", util::Json(empty ? 0.0 : max));
    entry.emplace("p50", util::Json(empty ? 0.0 : Histogram::percentile_from_counts(
                                                      buckets.data(), count, 50.0, min, max)));
    entry.emplace("p95", util::Json(empty ? 0.0 : Histogram::percentile_from_counts(
                                                      buckets.data(), count, 95.0, min, max)));
    entry.emplace("p99", util::Json(empty ? 0.0 : Histogram::percentile_from_counts(
                                                      buckets.data(), count, 99.0, min, max)));
    util::Json::Array out_buckets;
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      if (buckets[static_cast<std::size_t>(i)] == 0) continue;
      util::Json::Object b;
      b.emplace("lo", util::Json(Histogram::bucket_lower(i)));
      b.emplace("count", util::Json(static_cast<double>(
                             buckets[static_cast<std::size_t>(i)])));
      out_buckets.emplace_back(std::move(b));
    }
    entry.emplace("buckets", util::Json(std::move(out_buckets)));
    return util::Json(std::move(entry));
  }
};

HistSnapshot snapshot_histogram(const Histogram& h) {
  HistSnapshot s;
  s.count = h.count();
  if (s.count > 0) {
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
  }
  const auto counts = h.bucket_counts();
  for (int i = 0; i < Histogram::kBucketCount; ++i)
    s.buckets[static_cast<std::size_t>(i)] =
        counts[static_cast<std::size_t>(i)];
  return s;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  util::Json::Object counters;
  for (const auto& [name, c] : counters_)
    counters.emplace(name, util::Json(static_cast<double>(c->value())));
  util::Json::Object gauges;
  for (const auto& [name, g] : gauges_)
    gauges.emplace(name, util::Json(g->value()));
  util::Json::Object hists;
  for (const auto& [name, h] : histograms_)
    hists.emplace(name, snapshot_histogram(*h).to_entry());

  util::Json::Object root;
  root.emplace("counters", util::Json(std::move(counters)));
  root.emplace("gauges", util::Json(std::move(gauges)));
  root.emplace("histograms", util::Json(std::move(hists)));
  return util::Json(std::move(root)).dump();
}

std::string MetricsRegistry::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, c] : counters_) os << "c " << name << ' ' << c->value() << '\n';
  for (const auto& [name, g] : gauges_) os << "g " << name << ' ' << g->value() << '\n';
  for (const auto& [name, h] : histograms_) {
    os << "h " << name << " n=" << h->count();
    const bool wall = name.size() >= 8 && name.compare(name.size() - 8, 8, "_wall_ms") == 0;
    if (!wall && h->count() > 0) {
      os << " min=" << h->min() << " max=" << h->max() << " b=[";
      for (long long b : h->bucket_counts()) os << b << ',';
      os << ']';
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace mvs::obs
