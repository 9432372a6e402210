#pragma once
// Structured event trace of scheduler activity, and the one event path.
//
// Every scheduler event goes through emit(), which feeds the attached
// TraceRecorder (thread-safe: camera steps run on a pool; exports JSON for
// offline inspection of *why* the schedule looked the way it did), the
// per-type `events.<type>` counters and the flight recorder's event ring.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mvs::runtime {

enum class TraceEventType {
  kKeyFrame,      ///< central stage ran; value = system latency estimate (ms)
  kAssignment,    ///< object assigned to camera at a key frame
  kAdoptNew,      ///< distributed stage adopted a new object
  kTakeover,      ///< camera took over an object that left its tracker's view
  kTrackDrop,     ///< track lost (missed too long or left the frame)
  kCameraDown,    ///< camera dropped out (netsim fault injection)
  kCameraRejoin,  ///< camera came back online and re-entered the schedule
  kNetRetry,      ///< key-frame message retransmitted; value = cycle time (ms)
  kNetDrop,       ///< key-frame message lost for good; value = cycle time (ms)
  // Fleet-level session lifecycle events (mvs::fleet). For these, `frame` is
  // the fleet tick, `camera` the session id, and `value` the projected or
  // attributed per-frame latency (ms) at the decision point.
  kSessionAdmit,   ///< session admitted (possibly degraded; see fleet stats)
  kSessionReject,  ///< admission refused: projected latency exceeds the SLO
  kSessionEvict,   ///< session evicted from the fleet
  kSessionPause,   ///< session paused (stops consuming ticks)
  kSessionResume,  ///< paused session resumed
  kSessionDefer,   ///< dispatch deferred the session's frame by one tick
  kSessionReadmit, ///< re-admission restored a degrade rung (rate or masks)
  kDeviceScale,    ///< device pool grown/shrunk; value = new device count
  kBatchSplit,     ///< arbiter split an over-full batch; value = deferred tasks
  kSessionRedegrade,  ///< sustained pressure re-applied a degrade rung
  kSessionMigrate,    ///< session moved between shards; value = target shard
  // Streaming-perception runtime events (mvs::rt). `frame` is the arrival's
  // evaluation-frame index and `value` the frame's age (ms past capture) at
  // the decision point.
  kRtDrop,          ///< paced runtime dropped a frame stale past its deadline
  kRtSupersede,     ///< a newer arrival displaced a still-queued stale frame
  kRtDeadlineMiss,  ///< a frame's result landed (or would land) past deadline
  // SLO burn-rate alerting (DESIGN.md §14). `value` = fast-window burn rate
  // at the edge; `camera` the session id (-1 for a shard-level alert).
  kSloAlertRaise,   ///< fast AND slow burn crossed the raise threshold
  kSloAlertClear,   ///< fast burn fell below the clear threshold
  kTraceEventTypeCount_,  ///< sentinel: number of event types (not an event)
};

const char* to_string(TraceEventType type);

struct TraceEvent {
  long frame = 0;
  int camera = -1;  ///< -1 = central scheduler
  TraceEventType type = TraceEventType::kKeyFrame;
  std::uint64_t object_key = 0;  ///< object/track identity where applicable
  double value = 0.0;            ///< type-specific payload
  int shard = -1;          ///< owning shard at the time of the event, -1 = n/a
  int migrated_from = -1;  ///< source shard for post-migration session events
};

class TraceRecorder {
 public:
  void record(const TraceEvent& event);

  /// Snapshot of all events so far (copy; safe while recording continues).
  std::vector<TraceEvent> events() const;

  std::size_t count(TraceEventType type) const;
  std::size_t total() const;
  void clear();

  /// JSON array of event objects.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// The one event path: appends `event` to `trace` (when non-null), bumps
/// `events.<type>` when obs::enabled(), and appends it to the flight ring as
/// tick = frame, session = camera when obs::attribution_enabled() — except
/// the per-object events, which would flood the ring. Lock- and
/// allocation-free once warm; three inlined loads with every sink off.
void emit_to_sinks(TraceRecorder* trace, const TraceEvent& event);
inline void emit(TraceRecorder* trace, const TraceEvent& event) {
  if (trace || obs::enabled() || obs::attribution_enabled())
    emit_to_sinks(trace, event);
}

}  // namespace mvs::runtime
