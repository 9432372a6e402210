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
  EXPECT_EQ(trace.total(), 3u);
  EXPECT_EQ(trace.count(TraceEventType::kAssignment), 2u);
  EXPECT_EQ(trace.count(TraceEventType::kAdoptNew), 1u);
  EXPECT_EQ(trace.count(TraceEventType::kTakeover), 0u);
  trace.clear();
  EXPECT_EQ(trace.total(), 0u);
}

TEST(TraceRecorder, JsonIsParseable) {
  TraceRecorder trace;
  trace.record({5, 2, TraceEventType::kTakeover, 42, 1.5});
  const auto doc = util::Json::parse(trace.to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->as_array().size(), 1u);
  const util::Json& e = doc->as_array()[0];
  EXPECT_DOUBLE_EQ(e.number_or("frame", 0), 5.0);
  EXPECT_DOUBLE_EQ(e.number_or("camera", 0), 2.0);
  EXPECT_EQ(e.string_or("type", ""), "takeover");
  EXPECT_DOUBLE_EQ(e.number_or("object", 0), 42.0);
  EXPECT_DOUBLE_EQ(e.number_or("value", 0), 1.5);
}

TEST(TraceRecorder, JsonEventCountsMatchRecorder) {
  // Mixed-type event stream (including the netsim event types): the JSON
  // export must contain exactly the recorded events, with per-type tallies
  // matching count().
  const TraceEventType types[] = {
      TraceEventType::kKeyFrame,    TraceEventType::kAssignment,
      TraceEventType::kAdoptNew,    TraceEventType::kTakeover,
      TraceEventType::kTrackDrop,   TraceEventType::kCameraDown,
      TraceEventType::kCameraRejoin, TraceEventType::kNetRetry,
      TraceEventType::kNetDrop,     TraceEventType::kSessionAdmit,
      TraceEventType::kSessionReject, TraceEventType::kSessionEvict,
      TraceEventType::kSessionPause, TraceEventType::kSessionResume,
      TraceEventType::kSessionDefer, TraceEventType::kSessionReadmit,
      TraceEventType::kDeviceScale,  TraceEventType::kBatchSplit,
  };
  TraceRecorder trace;
  long frame = 0;
  for (int round = 0; round < 4; ++round)
    for (const TraceEventType type : types)
      for (int n = 0; n <= round; ++n)  // uneven per-type multiplicities
        trace.record(
            {frame++, round, type, static_cast<std::uint64_t>(n), 0.25 * n});

  const auto doc = util::Json::parse(trace.to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->as_array().size(), trace.total());

  std::map<std::string, std::size_t> json_counts;
  for (const util::Json& e : doc->as_array())
    ++json_counts[e.string_or("type", "?")];
  EXPECT_EQ(json_counts.size(), std::size(types));
  for (const TraceEventType type : types)
    EXPECT_EQ(json_counts[to_string(type)], trace.count(type))
        << to_string(type);
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
  EXPECT_EQ(trace.total(), 2000u);
}

TEST(TraceRecorder, EventTypeNames) {
  EXPECT_STREQ(to_string(TraceEventType::kKeyFrame), "key_frame");
  EXPECT_STREQ(to_string(TraceEventType::kTrackDrop), "track_drop");
  EXPECT_STREQ(to_string(TraceEventType::kSessionAdmit), "session_admit");
  EXPECT_STREQ(to_string(TraceEventType::kSessionReject), "session_reject");
  EXPECT_STREQ(to_string(TraceEventType::kSessionEvict), "session_evict");
  EXPECT_STREQ(to_string(TraceEventType::kSessionDefer), "session_defer");
  EXPECT_STREQ(to_string(TraceEventType::kSessionReadmit), "session_readmit");
  EXPECT_STREQ(to_string(TraceEventType::kRtDrop), "rt_drop");
  EXPECT_STREQ(to_string(TraceEventType::kRtSupersede), "rt_supersede");
  EXPECT_STREQ(to_string(TraceEventType::kRtDeadlineMiss), "rt_deadline_miss");
  EXPECT_STREQ(to_string(TraceEventType::kDeviceScale), "device_scale");
  EXPECT_STREQ(to_string(TraceEventType::kBatchSplit), "batch_split");
}

TEST(TraceRecorder, EveryEventTypeHasAUniqueName) {
  std::set<std::string> names;
  const int n = static_cast<int>(TraceEventType::kTraceEventTypeCount_);
  for (int t = 0; t < n; ++t) {
    const std::string name = to_string(static_cast<TraceEventType>(t));
    EXPECT_NE(name, "?") << "type " << t << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(to_string(TraceEventType::kTraceEventTypeCount_), "?");
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
