#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "util/json.hpp"

namespace mvs::runtime {
namespace {

TEST(TraceRecorder, RecordsAndCounts) {
  TraceRecorder trace;
  trace.record({1, 0, TraceEventType::kAssignment, 7, 0.0});
  trace.record({1, 1, TraceEventType::kAssignment, 8, 0.0});
  trace.record({2, 0, TraceEventType::kAdoptNew, 9, 0.0});
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.count(TraceEventType::kAssignment), 2u);
  EXPECT_EQ(trace.count(TraceEventType::kAdoptNew), 1u);
  EXPECT_EQ(trace.count(TraceEventType::kTakeover), 0u);
}

TEST(TraceRecorder, ThreadSafeRecording) {
  TraceRecorder trace;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < 500; ++i)
        trace.record({i, t, TraceEventType::kAdoptNew, 0, 0.0});
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.events().size(), 2000u);
}

TEST(TraceRecorder, EveryEventTypeCountsUnderItsOwnName) {
  // emit() counts each type as events.<name>: every type must have a name
  // of its own, so one emit of each type yields one counter per type.
  obs::reset();
  obs::set_enabled(true);
  const int n = static_cast<int>(TraceEventType::kTraceEventTypeCount_);
  for (int t = 0; t < n; ++t)
    emit(nullptr, {0, -1, static_cast<TraceEventType>(t), 0, 0.0});
  const auto metrics = util::Json::parse(obs::metrics().to_json());
  obs::set_enabled(false);
  obs::reset();
  ASSERT_TRUE(metrics.has_value());
  const util::Json* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  std::set<std::string> names;
  for (const auto& [name, value] : counters->as_object()) {
    if (name.rfind("events.", 0) != 0) continue;
    EXPECT_DOUBLE_EQ(value.as_number(), 1.0) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(n));
  for (const char* name :
       {"events.key_frame", "events.track_drop", "events.session_admit",
        "events.session_reject", "events.session_evict",
        "events.session_defer", "events.session_readmit", "events.rt_drop",
        "events.rt_supersede", "events.rt_deadline_miss",
        "events.device_scale", "events.batch_split"})
    EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(PipelineTrace, BalbEmitsSchedulingEvents) {
  TraceRecorder trace;
  PipelineConfig cfg;
  cfg.policy = Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = 8;
  Pipeline pipeline("S3", cfg);  // busy scenario: churn guaranteed
  pipeline.attach_trace(&trace);
  pipeline.run(40);
  EXPECT_EQ(trace.count(TraceEventType::kKeyFrame), 4u);
  EXPECT_GT(trace.count(TraceEventType::kAssignment), 0u);
  EXPECT_GT(trace.count(TraceEventType::kAdoptNew), 0u);
  // Every event carries a valid frame index.
  for (const TraceEvent& e : trace.events()) {
    EXPECT_GE(e.frame, 0);
    EXPECT_GE(e.camera, -1);
  }
}

TEST(PipelineTrace, BalbCenNeverAdopts) {
  TraceRecorder trace;
  PipelineConfig cfg;
  cfg.policy = Policy::kBalbCen;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = 8;
  Pipeline pipeline("S3", cfg);
  pipeline.attach_trace(&trace);
  pipeline.run(40);
  EXPECT_EQ(trace.count(TraceEventType::kAdoptNew), 0u);
  EXPECT_EQ(trace.count(TraceEventType::kTakeover), 0u);
  EXPECT_GT(trace.count(TraceEventType::kAssignment), 0u);
}

TEST(PipelineTrace, NetworkEventsReachFlightRing) {
  // A lossy link plus a dropout window: the retries, losses and the camera
  // going down must show up in a postmortem next to the frames they slowed,
  // while the per-object events stay out of the ring (they only count).
  obs::reset();
  obs::set_enabled(true);
  obs::set_attribution_enabled(true);
  PipelineConfig cfg;
  cfg.policy = Policy::kBalb;
  cfg.horizon_frames = 5;
  cfg.training_frames = 120;
  cfg.seed = 8;
  cfg.transport = net::TransportKind::kLossy;
  cfg.faults.loss_rate = 0.5;
  cfg.faults.max_retries = 1;
  cfg.faults.dropouts.push_back({/*camera=*/1, /*from=*/12, /*to=*/-1});
  Pipeline pipeline("S3", cfg);
  pipeline.run(30);

  std::string err;
  const auto doc =
      util::Json::parse(obs::recorder().request_dump("unit-test"), &err);
  const auto metrics = util::Json::parse(obs::metrics().to_json(), &err);
  obs::set_attribution_enabled(false);
  obs::set_enabled(false);
  obs::reset();
  ASSERT_TRUE(doc.has_value() && metrics.has_value()) << err;

  std::map<std::string, int> ring;
  for (const util::Json& e : doc->find("events")->as_array())
    ++ring[e.string_or("type", "?")];
  EXPECT_GT(ring["key_frame"], 0);
  EXPECT_GT(ring["net_retry"], 0);
  EXPECT_GT(ring["net_drop"], 0);
  EXPECT_EQ(ring["camera_down"], 1);
  for (const char* per_object :
       {"assignment", "adopt_new", "takeover", "track_drop"})
    EXPECT_EQ(ring.count(per_object), 0u) << per_object;

  const util::Json* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->number_or("events.track_drop", 0.0), 0.0);
  EXPECT_GT(counters->number_or("events.adopt_new", 0.0), 0.0);
  EXPECT_EQ(counters->number_or("events.net_drop", 0.0),
            static_cast<double>(ring["net_drop"]));
}

}  // namespace
}  // namespace mvs::runtime
