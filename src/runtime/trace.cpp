#include "runtime/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace mvs::runtime {

namespace {

constexpr std::size_t kTypeCount =
    static_cast<std::size_t>(TraceEventType::kTraceEventTypeCount_);

struct TypeInfo {
  const char* name;
  bool ring;  ///< reaches the flight recorder's event ring
};

// Indexed by TraceEventType, in declaration order.
constexpr TypeInfo kTypes[] = {
    {"key_frame", true},          {"assignment", false},
    {"adopt_new", false},         {"takeover", false},
    {"track_drop", false},        {"camera_down", true},
    {"camera_rejoin", true},      {"net_retry", true},
    {"net_drop", true},           {"session_admit", true},
    {"session_reject", true},     {"session_evict", true},
    {"session_pause", true},      {"session_resume", true},
    {"session_defer", true},      {"session_readmit", true},
    {"device_scale", true},       {"batch_split", true},
    {"session_redegrade", true},  {"rt_drop", true},
    {"rt_supersede", true},       {"rt_deadline_miss", true},
    {"slo_alert_raise", true},    {"slo_alert_clear", true},
};
static_assert(std::size(kTypes) == kTypeCount,
              "one kTypes entry per TraceEventType");

// `events.<type>` counters, resolved once per registry generation so a warm
// emit() bumps a cached counter: no lock, no name string.
struct CounterSlot {
  std::atomic<std::uint64_t> generation{0};
  std::atomic<obs::Counter*> counter{nullptr};
};
std::array<CounterSlot, kTypeCount> g_counters;

obs::Counter& event_counter(std::size_t type) {
  CounterSlot& slot = g_counters[type];
  const std::uint64_t gen = obs::metrics().generation();
  if (slot.generation.load(std::memory_order_acquire) != gen) {
    slot.counter.store(&obs::metrics().counter(std::string("events.") +
                                               kTypes[type].name),
                       std::memory_order_relaxed);
    slot.generation.store(gen, std::memory_order_release);
  }
  return *slot.counter.load(std::memory_order_relaxed);
}

util::Json event_json(const TraceEvent& e) {
  util::Json::Object obj;
  obj["frame"] = util::Json(static_cast<double>(e.frame));
  obj["camera"] = util::Json(e.camera);
  obj["type"] = util::Json(to_string(e.type));
  obj["object"] = util::Json(static_cast<double>(e.object_key));
  obj["value"] = util::Json(e.value);
  return util::Json(std::move(obj));
}

}  // namespace

const char* to_string(TraceEventType type) {
  const auto i = static_cast<std::size_t>(type);
  return i < kTypeCount ? kTypes[i].name : "?";
}

void emit_to_sinks(TraceRecorder* trace, const TraceEvent& event) {
  if (trace) trace->record(event);
  const auto i = static_cast<std::size_t>(event.type);
  if (obs::enabled()) event_counter(i).add(1);
  if (kTypes[i].ring && obs::attribution_enabled())
    obs::recorder().note_event(event.frame, kTypes[i].name, event.camera,
                               event.value);
}

void TraceRecorder::record(const TraceEvent& event) {
  std::scoped_lock lock(mutex_);
  events_.push_back(event);
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::scoped_lock lock(mutex_);
  return events_;
}

std::size_t TraceRecorder::count(TraceEventType type) const {
  std::scoped_lock lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [type](const TraceEvent& e) { return e.type == type; }));
}

std::size_t TraceRecorder::total() const {
  std::scoped_lock lock(mutex_);
  return events_.size();
}

void TraceRecorder::clear() {
  std::scoped_lock lock(mutex_);
  events_.clear();
}

std::string TraceRecorder::to_json() const {
  util::Json::Array array;
  for (const TraceEvent& e : events()) array.push_back(event_json(e));
  return util::Json(std::move(array)).dump();
}

}  // namespace mvs::runtime
