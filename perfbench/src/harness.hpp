#pragma once
// Shared vocabulary of the mvsched benchmark (perfbench): run options, the
// result every workload hands back, and the small timing / memory helpers the
// workloads share. Nothing here reaches into src/ internals; workloads only
// call the public entry points of each module.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed-loop budget (warm-up and set-up excluded)
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  int threads = 4;        ///< worker threads: min(nproc, 4)
};

/// One reported number. `value` is printed with all its digits.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back: the correctness ledger plus its metrics.
/// `metrics` holds the declared end-to-end (or per-layer) metrics; `detail`
/// holds the workload-specific figures that are printed but not declared.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for stderr
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> detail;

  /// Count one checked operation; record it as failed unless `ok`. The
  /// message is only converted to a string on failure, so checks inside a
  /// timed tick do not allocate.
  template <typename Message>
  void check(bool ok, const Message& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.emplace_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit) {
    detail.emplace_back(name, Metric{value, unit});
  }
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated percentile (p in [0, 100]) of a sample.
inline double percentile(const std::vector<double>& xs, double p) {
  mvs::util::SampleSet set;
  for (double x : xs) set.add(x);
  return set.percentile(p);
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 50.0);
}

inline double sum(const std::vector<double>& xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc;
}

inline double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

/// A /proc/self/status field in kB (VmHWM = peak RSS, VmRSS = current).
inline double proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    return std::stod(line.substr(field.size() + 1));
  }
  return 0.0;
}

/// Timed-loop policy shared by every workload: call `step` until `seconds`
/// have passed AND at least `min_steps` calls were made. Steps time
/// themselves, so warm-up and measured steps share one code path.
template <typename Step>
void run_for(double seconds, long min_steps, Step&& step) {
  const auto start = Clock::now();
  for (long n = 0; n < min_steps || ms_since(start) < 1000.0 * seconds; ++n)
    step();
}

/// FNV-1a digest of a sequence of numbers: fingerprints a workload's
/// generated inputs so seed handling can be checked from the output.
class Digest {
 public:
  void add(double v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ULL;
  }
  /// Low 48 bits, exactly representable as a double for the report.
  double value() const { return static_cast<double>(h_ & 0xffffffffffffULL); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Timed steps grouped into rounds of a fixed number of segments. Each
/// end-to-end statistic is computed per round and reported as the median
/// over the complete rounds, so host noise that spoils a few rounds does not
/// move the result; an unfinished last round is dropped. Only the open
/// round's samples are kept, so memory does not grow with run length.
class Rounds {
 public:
  explicit Rounds(int segments_per_round) : per_round_(segments_per_round) {}

  /// One timed step (ms) that served `frames` frames and `streams`
  /// stream-frames (camera-frames or session-frames).
  void add(double ms, double frames, double streams) {
    open_.push_back(ms);
    frames_ += frames;
    streams_ += streams;
    total_ms_ += ms;
    total_streams_ += streams;
  }

  /// Marks a segment boundary; closes the round every segments_per_round.
  void end_segment() {
    if (++segments_ % per_round_ != 0 || open_.empty()) return;
    const double secs = sum(open_) / 1000.0;
    p50_.push_back(percentile(open_, 50.0));
    p95_.push_back(percentile(open_, 95.0));
    frames_per_s_.push_back(frames_ / secs);
    streams_per_s_.push_back(streams_ / secs);
    samples_ += open_.size();
    open_.clear();
    frames_ = streams_ = 0.0;
  }

  double p50() const { return median(p50_); }
  double p95() const { return median(p95_); }
  double frames_per_s() const { return median(frames_per_s_); }
  double streams_per_s() const { return median(streams_per_s_); }
  std::size_t rounds() const { return p50_.size(); }
  std::size_t samples() const { return samples_; }  ///< in complete rounds
  /// Totals over every step, complete rounds or not (per-layer rows).
  double total_ms() const { return total_ms_; }
  double total_streams() const { return total_streams_; }

 private:
  int per_round_;
  int segments_ = 0;
  std::vector<double> open_;
  double frames_ = 0.0, streams_ = 0.0;
  double total_ms_ = 0.0, total_streams_ = 0.0;
  std::size_t samples_ = 0;
  std::vector<double> p50_, p95_, frames_per_s_, streams_per_s_;
};

/// Reports the four timing rows of the end-to-end table from `rounds`.
inline void set_timings(Result& res, const Rounds& rounds) {
  res.set("frames_per_s", rounds.frames_per_s(), "1/s");
  res.set("session_ticks_per_s", rounds.streams_per_s(), "1/s");
  res.set("frame_wall_ms_p50", rounds.p50(), "ms");
  res.set("frame_wall_ms_p95", rounds.p95(), "ms");
  res.note("rounds", static_cast<double>(rounds.rounds()), "count");
  res.note("timed_samples", static_cast<double>(rounds.samples()), "count");
}

// Workload entry points (one per named workload).
Result run_s1_closed(const Options& opt);
Result run_city_paced(const Options& opt);
Result run_plane_steady(const Options& opt);
Result run_plane_churn(const Options& opt);

}  // namespace perfbench
