#pragma once
// Deadline-miss flight recorder (mvs::obs v2, DESIGN.md §14).
//
// A fixed-size lock-free ring of recent frame attributions plus a smaller
// ring of noteworthy scheduler events. Producers (the paced runtime, the
// fleet rollup loop, sessions stepping concurrently) append with a ticket
// counter + per-slot sequence number — every slot field is a relaxed
// atomic bracketed by an odd/even seq, so appends never lock, never
// allocate, and concurrent dump snapshots simply skip slots caught
// mid-write.
//
// On a deadline-miss burst (>= miss_threshold misses inside the last
// miss_window frames), a session eviction, or an explicit request_dump(),
// the recorder freezes a self-contained postmortem JSON document
// ("mvs-postmortem-v1"): the recent frames with their segment
// decompositions, the recent events, the CriticalPath attribution table,
// and a full metrics snapshot. With a postmortem directory configured the
// document is also written to postmortem-<n>.json; the latest document is
// always retrievable in-process (last_dump()) so tests need no filesystem.
// Automatic triggers are rate-limited to one dump per ring generation.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/critical_path.hpp"

namespace mvs::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kFrameCapacity = 512;
  static constexpr std::size_t kEventCapacity = 256;
  static constexpr int kMissWindowMax = 128;

  struct Config {
    /// Postmortem output directory; empty = in-memory documents only.
    std::string dir;
    /// Deadline-miss burst trigger: >= miss_threshold misses within the
    /// last miss_window recorded frames auto-dump. threshold <= 0 disables
    /// automatic burst dumps.
    int miss_window = 32;
    int miss_threshold = 8;
  };

  /// Cold path; not safe concurrently with note_frame/note_event.
  void configure(const Config& config);
  const Config& config() const { return cfg_; }

  /// Append one frame attribution (lock-free, allocation-free) and run the
  /// miss-burst trigger.
  void note_frame(const FrameAttribution& frame);

  /// Append one scheduler event. `type` must be a static string (trace
  /// event names from runtime::to_string); the recorder stores the pointer.
  void note_event(long tick, const char* type, int session, double value);

  /// Build a postmortem document now and (when a directory is configured)
  /// write it to disk. Returns the document.
  std::string request_dump(const std::string& reason);

  long long frames_seen() const {
    return frame_head_.load(std::memory_order_relaxed);
  }
  long long dumps() const { return dumps_.load(std::memory_order_relaxed); }
  /// Most recent postmortem document ("" before the first dump).
  std::string last_dump() const;
  /// Path of the most recent on-disk postmortem ("" when none written).
  std::string last_dump_path() const;

  void reset();

 private:
  struct FrameSlot {
    std::atomic<std::uint32_t> seq{0};  ///< odd while a writer is inside
    std::atomic<std::uint64_t> id{0};
    std::atomic<double> total_ms{0.0};
    std::array<std::atomic<double>, kSegmentCount> segment_ms{};
    std::atomic<bool> miss{false};
  };
  struct EventSlot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<long> tick{0};
    std::atomic<const char*> type{nullptr};
    std::atomic<int> session{-1};
    std::atomic<double> value{0.0};
  };

  std::string build_document(const std::string& reason) const;
  void store_dump(const std::string& reason);

  Config cfg_;
  std::array<FrameSlot, kFrameCapacity> frames_;
  std::array<EventSlot, kEventCapacity> events_;
  std::atomic<long long> frame_head_{0};
  std::atomic<long long> event_head_{0};

  // Miss-burst window: ring of miss flags + running count.
  std::array<std::atomic<std::uint8_t>, kMissWindowMax> miss_ring_{};
  std::atomic<long long> miss_head_{0};
  std::atomic<int> miss_count_{0};
  /// Ticket of the last automatic dump (rate limit: one per ring
  /// generation); -kFrameCapacity so the first burst always fires.
  std::atomic<long long> last_auto_dump_{
      -static_cast<long long>(kFrameCapacity)};

  std::atomic<long long> dumps_{0};
  mutable std::mutex dump_mu_;  ///< guards the dump strings (cold path)
  std::string last_dump_;
  std::string last_dump_path_;
};

}  // namespace mvs::obs
