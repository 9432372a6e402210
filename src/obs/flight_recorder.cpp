#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "obs/obs.hpp"
#include "util/json.hpp"

namespace mvs::obs {

void FlightRecorder::configure(const Config& config) {
  cfg_ = config;
  cfg_.miss_window = std::clamp(cfg_.miss_window, 1, kMissWindowMax);
}

void FlightRecorder::note_frame(const FrameAttribution& frame) {
  const long long ticket =
      frame_head_.fetch_add(1, std::memory_order_relaxed);
  FrameSlot& slot =
      frames_[static_cast<std::size_t>(ticket) % kFrameCapacity];
  // Odd/even seq brackets the payload stores; readers that catch an odd or
  // changed seq drop the slot. The ticket spacing (kFrameCapacity appends
  // between same-slot writers) keeps writers from interleaving in practice;
  // the seq keeps concurrent snapshots safe regardless.
  slot.seq.fetch_add(1, std::memory_order_acq_rel);
  slot.id.store(frame.id, std::memory_order_relaxed);
  slot.total_ms.store(frame.total_ms, std::memory_order_relaxed);
  for (int i = 0; i < kSegmentCount; ++i)
    slot.segment_ms[static_cast<std::size_t>(i)].store(
        frame.segment_ms[static_cast<std::size_t>(i)],
        std::memory_order_relaxed);
  slot.miss.store(frame.deadline_miss, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);

  // Miss-burst window: O(1) ring update of the running miss count.
  const int window = cfg_.miss_window;
  const long long mh = miss_head_.fetch_add(1, std::memory_order_relaxed);
  const std::uint8_t now = frame.deadline_miss ? 1 : 0;
  const std::uint8_t was =
      miss_ring_[static_cast<std::size_t>(mh % window)].exchange(
          now, std::memory_order_relaxed);
  const int count =
      miss_count_.fetch_add(static_cast<int>(now) - static_cast<int>(was),
                            std::memory_order_relaxed) +
      static_cast<int>(now) - static_cast<int>(was);

  if (cfg_.miss_threshold > 0 && count >= cfg_.miss_threshold &&
      mh + 1 >= window) {
    // Rate limit: one automatic dump per ring generation; CAS elects a
    // single dumper when several threads cross the threshold together.
    long long last = last_auto_dump_.load(std::memory_order_relaxed);
    if (ticket - last >= static_cast<long long>(kFrameCapacity) &&
        last_auto_dump_.compare_exchange_strong(last, ticket,
                                                std::memory_order_relaxed))
      store_dump("miss-burst");
  }
}

void FlightRecorder::note_event(long tick, const char* type, int session,
                                double value) {
  const long long ticket =
      event_head_.fetch_add(1, std::memory_order_relaxed);
  EventSlot& slot =
      events_[static_cast<std::size_t>(ticket) % kEventCapacity];
  slot.seq.fetch_add(1, std::memory_order_acq_rel);
  slot.tick.store(tick, std::memory_order_relaxed);
  slot.type.store(type, std::memory_order_relaxed);
  slot.session.store(session, std::memory_order_relaxed);
  slot.value.store(value, std::memory_order_relaxed);
  slot.seq.fetch_add(1, std::memory_order_release);
}

std::string FlightRecorder::build_document(const std::string& reason) const {
  using util::Json;
  Json::Array frames;
  const long long fh = frame_head_.load(std::memory_order_acquire);
  const long long fcount =
      std::min<long long>(fh, static_cast<long long>(kFrameCapacity));
  for (long long t = fh - fcount; t < fh; ++t) {
    const FrameSlot& slot =
        frames_[static_cast<std::size_t>(t) % kFrameCapacity];
    const std::uint32_t a = slot.seq.load(std::memory_order_acquire);
    if (a & 1U) continue;  // writer inside; drop the slot
    FrameAttribution f;
    f.id = slot.id.load(std::memory_order_relaxed);
    f.total_ms = slot.total_ms.load(std::memory_order_relaxed);
    for (int i = 0; i < kSegmentCount; ++i)
      f.segment_ms[static_cast<std::size_t>(i)] =
          slot.segment_ms[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    f.deadline_miss = slot.miss.load(std::memory_order_relaxed);
    if (slot.seq.load(std::memory_order_acquire) != a) continue;  // torn
    Json::Object segs;
    for (int i = 0; i < kSegmentCount; ++i)
      segs.emplace(to_string(static_cast<Segment>(i)),
                   Json(f.segment_ms[static_cast<std::size_t>(i)]));
    Json::Object obj;
    obj.emplace("stream", Json(static_cast<double>(causal_stream(f.id))));
    obj.emplace("frame", Json(static_cast<double>(causal_frame(f.id))));
    obj.emplace("total_ms", Json(f.total_ms));
    obj.emplace("deadline_miss", Json(f.deadline_miss));
    obj.emplace("dominant", Json(to_string(f.dominant())));
    obj.emplace("segments", Json(std::move(segs)));
    frames.emplace_back(std::move(obj));
  }

  Json::Array events;
  const long long eh = event_head_.load(std::memory_order_acquire);
  const long long ecount =
      std::min<long long>(eh, static_cast<long long>(kEventCapacity));
  for (long long t = eh - ecount; t < eh; ++t) {
    const EventSlot& slot =
        events_[static_cast<std::size_t>(t) % kEventCapacity];
    const std::uint32_t a = slot.seq.load(std::memory_order_acquire);
    if (a & 1U) continue;
    const long tick = slot.tick.load(std::memory_order_relaxed);
    const char* type = slot.type.load(std::memory_order_relaxed);
    const int session = slot.session.load(std::memory_order_relaxed);
    const double value = slot.value.load(std::memory_order_relaxed);
    if (slot.seq.load(std::memory_order_acquire) != a) continue;
    Json::Object obj;
    obj.emplace("tick", Json(static_cast<double>(tick)));
    obj.emplace("type", Json(type ? type : "?"));
    obj.emplace("session", Json(session));
    obj.emplace("value", Json(value));
    events.emplace_back(std::move(obj));
  }

  Json::Object root;
  root.emplace("schema", Json("mvs-postmortem-v1"));
  root.emplace("reason", Json(reason));
  root.emplace("frames_seen", Json(static_cast<double>(fh)));
  root.emplace("frames", Json(std::move(frames)));
  root.emplace("events", Json(std::move(events)));
  root.emplace("attribution", critical_path().attribution_json());
  // Embed the full metrics snapshot so the postmortem is self-contained
  // (to_json() is authoritative; re-parsing keeps one serializer).
  if (auto metrics_doc = util::Json::parse(metrics().to_json()))
    root.emplace("metrics", std::move(*metrics_doc));
  return Json(std::move(root)).dump();
}

void FlightRecorder::store_dump(const std::string& reason) {
  const std::string doc = build_document(reason);
  const long long n = dumps_.fetch_add(1, std::memory_order_relaxed);
  std::string path;
  if (!cfg_.dir.empty()) {
    path = cfg_.dir + "/postmortem-" + std::to_string(n) + ".json";
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (out.is_open())
      out << doc << '\n';
    else
      path.clear();
  }
  std::scoped_lock lock(dump_mu_);
  last_dump_ = doc;
  last_dump_path_ = path;
}

std::string FlightRecorder::request_dump(const std::string& reason) {
  store_dump(reason);
  return last_dump();
}

std::string FlightRecorder::last_dump() const {
  std::scoped_lock lock(dump_mu_);
  return last_dump_;
}

std::string FlightRecorder::last_dump_path() const {
  std::scoped_lock lock(dump_mu_);
  return last_dump_path_;
}

void FlightRecorder::reset() {
  cfg_ = Config{};
  for (auto& slot : frames_) slot.seq.store(0, std::memory_order_relaxed);
  for (auto& slot : events_) slot.seq.store(0, std::memory_order_relaxed);
  frame_head_.store(0, std::memory_order_relaxed);
  event_head_.store(0, std::memory_order_relaxed);
  for (auto& m : miss_ring_) m.store(0, std::memory_order_relaxed);
  miss_head_.store(0, std::memory_order_relaxed);
  miss_count_.store(0, std::memory_order_relaxed);
  last_auto_dump_.store(-static_cast<long long>(kFrameCapacity),
                        std::memory_order_relaxed);
  dumps_.store(0, std::memory_order_relaxed);
  std::scoped_lock lock(dump_mu_);
  last_dump_.clear();
  last_dump_path_.clear();
}

}  // namespace mvs::obs
