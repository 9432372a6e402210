#pragma once
// Critical-path latency attribution (mvs::obs v2, DESIGN.md §14).
//
// Every processed frame carries a causal id and a decomposition of its
// end-to-end latency into named segments (capture-wait, net, sched-queue,
// batch-wait, gpu, tracking, emit). The CriticalPath accumulator owns a
// FIXED array of per-segment Histograms plus per-segment dominant-frame
// counters — no registry lookups, no string building — so recording an
// attribution on the steady-state tick path performs zero heap allocations
// (guarded by test_alloc_guard).
//
// Conservation contract: a producer fills FrameAttribution::segment_ms so
// the segments sum to total_ms exactly (within FP re-association, << 1e-6
// ms). record() folds the worst observed |total - Σ segments| into
// max_conservation_error_ms(), which the conservation tests assert on.
//
// All inputs are simulated/deterministic quantities, so bucket counts,
// dominant counters and the fingerprint are bit-identical across thread
// counts (the ring of recent frames is interleaving-dependent and is
// excluded from the fingerprint).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mvs::util {
class Json;
}

namespace mvs::obs {

/// Where a frame's end-to-end latency was spent. Taxonomy is shared by the
/// paced runtime (rt::RtRunner) and the serving plane (fleet::Fleet):
///   kCaptureWait  capture -> arrival (sensor readout + transport pacing)
///   kNet          modeled transport comm + per-message queueing
///   kSchedQueue   arrival -> processing start (scheduler/processor queue)
///   kBatchWait    device-pool queueing behind other sessions' batches
///   kGpu          attributed inference busy (slowest camera / merged share)
///   kTracking     tracker update (structurally 0 on the virtual-clock
///                 paths: measured wall-clock never enters the schedule)
///   kEmit         fixed emission/decode overhead past inference
enum class Segment {
  kCaptureWait = 0,
  kNet,
  kSchedQueue,
  kBatchWait,
  kGpu,
  kTracking,
  kEmit,
};
inline constexpr int kSegmentCount = 7;

const char* to_string(Segment segment);

/// Causal frame id: a 32-bit stream (fleet session id + 1, 0 for a
/// standalone runner) in the high word, the frame index in the low word.
inline std::uint64_t causal_id(std::uint32_t stream, std::uint64_t frame) {
  return (static_cast<std::uint64_t>(stream) << 32) |
         (frame & 0xffffffffULL);
}
inline std::uint32_t causal_stream(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32);
}
inline std::uint32_t causal_frame(std::uint64_t id) {
  return static_cast<std::uint32_t>(id & 0xffffffffULL);
}

/// One frame's latency decomposition. POD: producers fill it on the stack.
struct FrameAttribution {
  std::uint64_t id = 0;  ///< causal_id()
  double total_ms = 0.0;
  std::array<double, kSegmentCount> segment_ms{};
  bool deadline_miss = false;

  double segment_sum_ms() const {
    double s = 0.0;
    for (double v : segment_ms) s += v;
    return s;
  }
  /// Largest segment (ties: first in enum order).
  Segment dominant() const;
};

/// Process-wide attribution accumulator (obs::critical_path()). record() is
/// thread-safe, lock-free and allocation-free.
class CriticalPath {
 public:
  void record(const FrameAttribution& frame);

  long long frames() const {
    return frames_.load(std::memory_order_relaxed);
  }
  long long misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  long long dominant_count(Segment segment) const {
    return dominant_[static_cast<std::size_t>(segment)].load(
        std::memory_order_relaxed);
  }
  const Histogram& segment_histogram(Segment segment) const {
    return segments_[static_cast<std::size_t>(segment)];
  }
  const Histogram& total_histogram() const { return total_; }

  /// Worst |total_ms - Σ segment_ms| seen so far (the conservation bound).
  double max_conservation_error_ms() const {
    return max_error_ms_.load(std::memory_order_relaxed);
  }

  /// The per-run attribution table exported inside the metrics JSON:
  /// {frames, misses, max_conservation_error_ms, dominant,
  ///  segments: {name: {count,sum_ms,p50,p95,p99,max,dominant_frames,
  ///                    dominant_frac}},
  ///  total: {count,sum_ms,p50,p95,p99,max}}
  util::Json attribution_json() const;

  /// Deterministic identity (histogram bucket counts + dominant counters);
  /// excludes the FP sums, like MetricsRegistry::fingerprint().
  std::string fingerprint() const;

  void reset();

 private:
  std::array<Histogram, kSegmentCount> segments_;
  Histogram total_;
  std::array<std::atomic<long long>, kSegmentCount> dominant_{};
  std::atomic<long long> frames_{0};
  std::atomic<long long> misses_{0};
  std::atomic<double> max_error_ms_{0.0};
};

}  // namespace mvs::obs
