// mvs::obs v2 tests (DESIGN.md §14): critical-path latency attribution,
// the SLO burn-rate monitor and the deadline-miss flight recorder.
//
// The attribution conservation contract — segments sum to the end-to-end
// latency within 1e-6 ms — is asserted both on synthetic records and
// end-to-end through the paced runtime, whose decomposition is built from
// the exact addends of its virtual-clock age. Fingerprints must be
// bit-identical across thread counts (attribution inputs are simulated
// quantities only).

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "fleet/burn.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/config.hpp"
#include "util/json.hpp"

namespace mvs {
namespace {

obs::FrameAttribution make_attr(std::uint64_t frame, double gpu, double queue,
                                bool miss) {
  obs::FrameAttribution fa;
  fa.id = obs::causal_id(7, frame);
  fa.segment_ms[static_cast<std::size_t>(obs::Segment::kGpu)] = gpu;
  fa.segment_ms[static_cast<std::size_t>(obs::Segment::kSchedQueue)] = queue;
  fa.total_ms = gpu + queue;
  fa.deadline_miss = miss;
  return fa;
}

class CriticalPathTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override {
    obs::set_attribution_enabled(false);
    obs::set_enabled(false);
    obs::reset();
  }
};

TEST_F(CriticalPathTest, RecordAccumulatesDominantAndConservation) {
  obs::CriticalPath& cp = obs::critical_path();
  cp.record(make_attr(0, 10.0, 2.0, false));   // gpu dominant
  cp.record(make_attr(1, 1.0, 30.0, true));    // sched_queue dominant
  cp.record(make_attr(2, 5.0, 5.0, false));    // tie -> first in enum order
  EXPECT_EQ(cp.frames(), 3);
  EXPECT_EQ(cp.misses(), 1);
  EXPECT_EQ(cp.dominant_count(obs::Segment::kGpu), 1);
  // The 5/5 tie resolves to the first segment in enum order with the max
  // value — sched_queue (index 2) precedes gpu (index 4).
  EXPECT_EQ(cp.dominant_count(obs::Segment::kSchedQueue), 2);
  EXPECT_EQ(cp.max_conservation_error_ms(), 0.0);

  // A deliberately broken attribution folds into the conservation bound.
  obs::FrameAttribution bad = make_attr(3, 10.0, 0.0, false);
  bad.total_ms = 11.5;
  cp.record(bad);
  EXPECT_NEAR(cp.max_conservation_error_ms(), 1.5, 1e-12);

  // Segment histograms carry every frame; causal ids round-trip.
  EXPECT_EQ(cp.segment_histogram(obs::Segment::kGpu).count(), 4);
  EXPECT_EQ(cp.total_histogram().count(), 4);
  EXPECT_EQ(obs::causal_stream(make_attr(9, 1, 1, false).id), 7u);
  EXPECT_EQ(obs::causal_frame(make_attr(9, 1, 1, false).id), 9u);
}

TEST_F(CriticalPathTest, AttributionJsonTableShape) {
  obs::critical_path().record(make_attr(0, 40.0, 2.0, true));
  const util::Json doc = obs::critical_path().attribution_json();
  EXPECT_EQ(doc.number_or("frames", 0.0), 1.0);
  EXPECT_EQ(doc.number_or("deadline_misses", 0.0), 1.0);
  EXPECT_EQ(doc.string_or("dominant", ""), "gpu");
  const util::Json* segs = doc.find("segments");
  ASSERT_NE(segs, nullptr);
  ASSERT_TRUE(segs->is_object());
  EXPECT_EQ(segs->as_object().size(),
            static_cast<std::size_t>(obs::kSegmentCount));
  const util::Json* gpu = segs->find("gpu");
  ASSERT_NE(gpu, nullptr);
  EXPECT_EQ(gpu->number_or("count", 0.0), 1.0);
  EXPECT_EQ(gpu->number_or("dominant_frames", 0.0), 1.0);
  EXPECT_EQ(gpu->number_or("dominant_frac", 0.0), 1.0);
  ASSERT_NE(doc.find("total"), nullptr);
}

TEST_F(CriticalPathTest, ExportJsonCarriesAttributionOnlyWhenEnabled) {
  obs::critical_path().record(make_attr(0, 4.0, 1.0, false));
  std::string err;
  const std::optional<util::Json> off =
      util::Json::parse(obs::export_json(), &err);
  ASSERT_TRUE(off.has_value()) << err;
  EXPECT_EQ(off->find("attribution"), nullptr);

  obs::set_attribution_enabled(true);
  const std::optional<util::Json> on =
      util::Json::parse(obs::export_json(), &err);
  ASSERT_TRUE(on.has_value()) << err;
  const util::Json* attr = on->find("attribution");
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(attr->number_or("frames", 0.0), 1.0);
}

// ------------------------------------------------- paced-runtime producer --

runtime::PipelineConfig fast_pipeline(int threads) {
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = 21;
  cfg.threads = threads;
  return cfg;
}

TEST_F(CriticalPathTest, PacedRunnerAttributionSumsToEndToEndLatency) {
  obs::set_attribution_enabled(true);
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 60.0;
  rtc.late_policy = runtime::LatePolicy::kDrop;
  rtc.arrival_jitter_ms = 4.0;
  rt::RtRunner runner("S2", fast_pipeline(2), rtc);
  const rt::RtResult r = runner.run(60);

  const obs::CriticalPath& cp = obs::critical_path();
  // Processed and dropped frames each record one attribution; superseded
  // frames resolve as skips and record none (the drop policy has none).
  EXPECT_EQ(cp.frames(), r.counters.processed + r.counters.dropped);
  EXPECT_EQ(cp.misses(), r.counters.deadline_miss);
  EXPECT_GT(cp.frames(), 0);
  // The acceptance bound: segments sum to the end-to-end latency exactly
  // (the decomposition is built from the exact addends of the age).
  EXPECT_LT(cp.max_conservation_error_ms(), 1e-6);
  // Tracking/batch-wait are structurally zero on the virtual-clock path.
  EXPECT_EQ(cp.dominant_count(obs::Segment::kTracking), 0);
  EXPECT_EQ(cp.dominant_count(obs::Segment::kBatchWait), 0);
}

TEST_F(CriticalPathTest, FingerprintDeterministicAcrossThreadCounts) {
  const auto run_fp = [this](int threads) {
    obs::reset();
    obs::set_attribution_enabled(true);
    runtime::RtConfig rtc;
    rtc.paced = true;
    rtc.deadline_ms = 60.0;
    rtc.arrival_jitter_ms = 4.0;
    rt::RtRunner runner("S2", fast_pipeline(threads), rtc);
    (void)runner.run(40);
    std::string fp = obs::critical_path().fingerprint();
    obs::set_attribution_enabled(false);
    return fp;
  };
  const std::string narrow = run_fp(1);
  const std::string wide = run_fp(8);
  EXPECT_FALSE(narrow.empty());
  EXPECT_EQ(narrow, wide);
}

// ------------------------------------------------------- burn-rate monitor --

TEST(BurnMonitor, RaiseNeedsFullFastWindowAndBothBurns) {
  fleet::BurnConfig bc;
  bc.error_budget = 0.1;
  bc.fast_window = 8;
  bc.slow_window = 16;
  bc.raise_mult = 2.0;
  bc.clear_mult = 1.0;
  fleet::BurnMonitor m(bc);

  // Seven straight misses: burns are sky-high but the fast window is not
  // full yet — no alert off a partial first window.
  for (int i = 0; i < 7; ++i) EXPECT_EQ(m.push(true), 0) << i;
  EXPECT_FALSE(m.alerting());
  // The eighth fills the window: raise edge, exactly once.
  EXPECT_EQ(m.push(true), +1);
  EXPECT_TRUE(m.alerting());
  EXPECT_EQ(m.push(true), 0);  // still alerting, no duplicate edge
  EXPECT_GE(m.fast_burn(), bc.raise_mult);

  // Hysteresis: the clear threshold is lower than the raise threshold, so
  // the alert holds until the fast burn drops below clear_mult (ratio
  // < 0.1 over 8 ticks means zero misses in the window).
  int edge = 0;
  int goods = 0;
  while (edge == 0 && goods < 32) {
    edge = m.push(false);
    ++goods;
  }
  EXPECT_EQ(edge, -1);
  EXPECT_FALSE(m.alerting());
  EXPECT_EQ(goods, 8) << "clear must land exactly when the last miss "
                         "leaves the fast window";
}

TEST(BurnMonitor, ZeroBudgetDisablesAlerting) {
  fleet::BurnMonitor m;  // default config: error_budget = 0
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.push(true), 0);
  EXPECT_FALSE(m.alerting());
  EXPECT_EQ(m.fast_burn(), 0.0);
}

TEST(BurnMonitor, ReRaisesAfterClear) {
  fleet::BurnConfig bc;
  bc.error_budget = 0.25;
  bc.fast_window = 4;
  bc.slow_window = 4;
  fleet::BurnMonitor m(bc);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(m.push(true), 0);
  EXPECT_EQ(m.push(true), +1);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(m.push(false), 0);
  EXPECT_EQ(m.push(false), -1);
  // The windows keep their history across the clear, so the re-raise fires
  // as soon as both burns cross the threshold again — no full fresh window
  // required.
  int edge = 0;
  for (int i = 0; edge == 0 && i < 8; ++i) edge = m.push(true);
  EXPECT_EQ(edge, +1);
  EXPECT_TRUE(m.alerting());
}

// -------------------------------------------------------- flight recorder --

TEST_F(CriticalPathTest, RecorderRingWrapsAndDumpValidates) {
  obs::FlightRecorder& rec = obs::recorder();
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;  // no automatic dumps in this test
  rec.configure(rc);

  const long long total = 600;  // > kFrameCapacity: the ring must wrap
  for (long long i = 0; i < total; ++i)
    rec.note_frame(make_attr(static_cast<std::uint64_t>(i), 5.0, 1.0,
                             /*miss=*/i % 3 == 0));
  EXPECT_EQ(rec.frames_seen(), total);
  EXPECT_EQ(rec.dumps(), 0);

  const std::string doc_text = rec.request_dump("unit-test");
  EXPECT_EQ(rec.dumps(), 1);
  EXPECT_EQ(rec.last_dump(), doc_text);
  EXPECT_TRUE(rec.last_dump_path().empty());  // no directory configured

  std::string err;
  const std::optional<util::Json> doc = util::Json::parse(doc_text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->string_or("schema", ""), "mvs-postmortem-v1");
  EXPECT_EQ(doc->string_or("reason", ""), "unit-test");
  EXPECT_EQ(doc->number_or("frames_seen", 0.0), static_cast<double>(total));
  const util::Json* frames = doc->find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_TRUE(frames->is_array());
  EXPECT_EQ(frames->as_array().size(), obs::FlightRecorder::kFrameCapacity);
  // The ring keeps the newest kFrameCapacity frames: the oldest surviving
  // entry is frame total - capacity.
  const util::Json& oldest = frames->as_array().front();
  EXPECT_EQ(oldest.number_or("frame", -1.0),
            static_cast<double>(total -
                                static_cast<long long>(
                                    obs::FlightRecorder::kFrameCapacity)));
  EXPECT_EQ(oldest.number_or("stream", -1.0), 7.0);
  ASSERT_NE(oldest.find("segments"), nullptr);
  ASSERT_NE(doc->find("events"), nullptr);
  ASSERT_NE(doc->find("attribution"), nullptr);
  ASSERT_NE(doc->find("metrics"), nullptr);
}

TEST_F(CriticalPathTest, RecorderMissBurstAutoDumpIsRateLimited) {
  obs::FlightRecorder& rec = obs::recorder();
  obs::FlightRecorder::Config rc;
  rc.miss_window = 16;
  rc.miss_threshold = 4;
  rec.configure(rc);

  // Below threshold: 3 misses scattered in the window never trigger.
  for (int i = 0; i < 16; ++i)
    rec.note_frame(make_attr(static_cast<std::uint64_t>(i), 5.0, 1.0,
                             /*miss=*/i < 3));
  EXPECT_EQ(rec.dumps(), 0);

  // A burst crosses the threshold exactly once per ring generation.
  for (int i = 0; i < 64; ++i)
    rec.note_frame(make_attr(static_cast<std::uint64_t>(100 + i), 5.0, 1.0,
                             /*miss=*/true));
  EXPECT_EQ(rec.dumps(), 1);
  std::string err;
  const std::optional<util::Json> doc =
      util::Json::parse(rec.last_dump(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->string_or("reason", ""), "miss-burst");

  // Still inside the same ring generation: no second dump.
  for (int i = 0; i < 100; ++i)
    rec.note_frame(make_attr(static_cast<std::uint64_t>(200 + i), 5.0, 1.0,
                             /*miss=*/true));
  EXPECT_EQ(rec.dumps(), 1);
}

TEST_F(CriticalPathTest, RecorderEventTailSurvivesDump) {
  obs::FlightRecorder& rec = obs::recorder();
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;
  rec.configure(rc);
  rec.note_event(42, "rt_drop", -1, 123.5);
  rec.note_event(43, "session_evict", 3, 7.0);
  std::string err;
  const std::optional<util::Json> doc =
      util::Json::parse(rec.request_dump("events"), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const util::Json* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  EXPECT_EQ(events->as_array()[0].string_or("type", ""), "rt_drop");
  EXPECT_EQ(events->as_array()[0].number_or("tick", 0.0), 42.0);
  EXPECT_EQ(events->as_array()[1].number_or("session", -1.0), 3.0);
}

}  // namespace
}  // namespace mvs
