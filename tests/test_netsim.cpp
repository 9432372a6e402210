// mvs::netsim: discrete-event transport — queueing order, loss/retry
// accounting, dropout/rejoin through the pipeline, and determinism.

#include <gtest/gtest.h>

#include <vector>

#include "net/transport.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/fault.hpp"
#include "netsim/sim_transport.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"

namespace mvs {
namespace {

// ---------------------------------------------------------------------------
// EventQueue

TEST(EventQueue, DispatchesInTimeOrderWithFifoTieBreak) {
  netsim::EventQueue q;
  std::vector<int> order;
  q.schedule(5.0, [&](double) { order.push_back(3); });
  q.schedule(1.0, [&](double) { order.push_back(0); });
  q.schedule(2.0, [&](double) { order.push_back(1); });
  q.schedule(2.0, [&](double) { order.push_back(2); });  // same time: FIFO
  q.run_until_empty();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now_ms(), 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HandlersCanScheduleAndPastTimesClampToNow) {
  netsim::EventQueue q;
  double fired_at = -1.0;
  q.schedule(10.0, [&](double now) {
    // Scheduling into the past must clamp to "now", not rewind the clock.
    q.schedule(now - 5.0, [&](double t) { fired_at = t; });
  });
  q.run_until_empty();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
  EXPECT_DOUBLE_EQ(q.now_ms(), 10.0);
}

TEST(EventQueue, ResetDropsPendingEventsAndClock) {
  netsim::EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&](double) { ++fired; });
  q.schedule(2.0, [&](double) { ++fired; });
  ASSERT_TRUE(q.run_one());
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now_ms(), 0.0);
  q.run_until_empty();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// SimTransport — single-cycle protocol semantics

netsim::SimTransport::Config fault_free_config() {
  netsim::SimTransport::Config cfg;
  cfg.link.uplink_mbps = 20.0;
  cfg.link.downlink_mbps = 100.0;
  cfg.link.base_latency_ms = 1.0;
  return cfg;
}

TEST(SimTransport, FaultFreeUplinksQueueInFifoOrder) {
  const auto cfg = fault_free_config();
  netsim::SimTransport t(cfg, 3, /*seed=*/1);
  // 2500 B at 20 Mbps = exactly 1 ms of serialization each; all three
  // arrive simultaneously (same base latency), so they serialize in send
  // order: waits are 0, 1 and 2 ms.
  t.send_uplink(0, 0, 2500);
  t.send_uplink(0, 1, 2500);
  t.send_uplink(0, 2, 2500);
  const net::UplinkReport up = t.run_uplinks(0);
  ASSERT_EQ(up.delivered.size(), 3u);
  EXPECT_TRUE(up.delivered[0] && up.delivered[1] && up.delivered[2]);
  // Last message finishes at base + 3 serializations.
  EXPECT_NEAR(up.elapsed_ms, 1.0 + 3.0, 1e-9);

  const net::CycleReport report = t.finish_cycle(0);
  EXPECT_NEAR(report.queue_ms, 0.0 + 1.0 + 2.0, 1e-9);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.dropped_msgs, 0);
  EXPECT_TRUE(report.events.empty());
}

TEST(SimTransport, FaultFreeCycleMatchesIdealLinkModel) {
  const auto cfg = fault_free_config();
  netsim::SimTransport t(cfg, 4, /*seed=*/9);
  const std::vector<std::size_t> up_bytes = {900, 1400, 2100, 600};
  std::size_t up_sum = 0, down_sum = 0;
  for (int cam = 0; cam < 4; ++cam) {
    t.send_uplink(0, cam, up_bytes[static_cast<std::size_t>(cam)]);
    up_sum += up_bytes[static_cast<std::size_t>(cam)];
  }
  (void)t.run_uplinks(0);
  for (int cam = 0; cam < 4; ++cam) {
    t.send_downlink(0, cam, 500);
    down_sum += 500;
  }
  const net::CycleReport report = t.finish_cycle(0);
  // Simultaneous arrivals serialize back-to-back, so the cycle's end-to-end
  // time collapses to the closed-form expression (modulo float summation
  // order): base + sum(serialize) per direction.
  const net::LinkModel link(cfg.link);
  EXPECT_NEAR(report.comm_ms, link.upload_ms(up_sum) + link.download_ms(down_sum),
              1e-9);
  ASSERT_EQ(report.downlink_delivered.size(), 4u);
  for (int cam = 0; cam < 4; ++cam)
    EXPECT_TRUE(report.downlink_delivered[static_cast<std::size_t>(cam)]);
}

TEST(SimTransport, TotalLossExhaustsRetryBudgetAndDrops) {
  auto cfg = fault_free_config();
  cfg.faults.loss_rate = 1.0 - 1e-12;  // effectively certain loss
  cfg.faults.retry_timeout_ms = 4.0;
  cfg.faults.max_retries = 3;
  netsim::SimTransport t(cfg, 2, /*seed=*/3);
  t.send_uplink(0, 0, 1000);
  t.send_uplink(0, 1, 1000);
  const net::UplinkReport up = t.run_uplinks(0);
  EXPECT_FALSE(up.delivered[0]);
  EXPECT_FALSE(up.delivered[1]);
  // Every attempt lost: the sender gives up after the final attempt's
  // timeout, (max_retries + 1) * retry_timeout after the first send.
  EXPECT_NEAR(up.elapsed_ms, 4.0 * 4.0, 1e-9);

  const net::CycleReport report = t.finish_cycle(0);
  EXPECT_EQ(report.retries, 2 * 3);
  EXPECT_EQ(report.dropped_msgs, 2);
  int retry_events = 0, drop_events = 0;
  for (const net::MessageEvent& e : report.events) {
    retry_events += (e.kind == net::MessageEvent::Kind::kRetry);
    drop_events += (e.kind == net::MessageEvent::Kind::kDrop);
    EXPECT_TRUE(e.uplink);
  }
  EXPECT_EQ(retry_events, 6);
  EXPECT_EQ(drop_events, 2);
}

TEST(SimTransport, CycleStateResetsBetweenKeyFrames) {
  auto cfg = fault_free_config();
  cfg.faults.loss_rate = 1.0 - 1e-12;
  cfg.faults.max_retries = 0;
  netsim::SimTransport t(cfg, 1, /*seed=*/5);
  t.send_uplink(0, 0, 1000);
  net::CycleReport first = t.finish_cycle(0);
  EXPECT_EQ(first.dropped_msgs, 1);
  // A fresh cycle must not inherit the previous cycle's pending messages.
  net::CycleReport second = t.finish_cycle(1);
  EXPECT_EQ(second.dropped_msgs, 0);
  EXPECT_DOUBLE_EQ(second.comm_ms, 0.0);
}

TEST(SimTransport, DropoutWindowsControlCameraOnline) {
  auto cfg = fault_free_config();
  cfg.faults.dropouts.push_back({/*camera=*/1, /*from=*/10, /*to=*/20});
  cfg.faults.dropouts.push_back({/*camera=*/2, /*from=*/5, /*to=*/-1});
  netsim::SimTransport t(cfg, 3, /*seed=*/1);
  EXPECT_TRUE(t.camera_online(0, 15));
  EXPECT_TRUE(t.camera_online(1, 9));
  EXPECT_FALSE(t.camera_online(1, 10));
  EXPECT_FALSE(t.camera_online(1, 19));
  EXPECT_TRUE(t.camera_online(1, 20));  // window end is exclusive
  EXPECT_FALSE(t.camera_online(2, 500));  // to = -1: never rejoins
}

TEST(SimTransport, SameSeedSameConfigIsBitIdentical) {
  auto cfg = fault_free_config();
  cfg.faults.loss_rate = 0.3;
  cfg.faults.jitter_ms = 2.0;
  cfg.faults.retry_timeout_ms = 5.0;
  auto run_cycle = [&cfg]() {
    netsim::SimTransport t(cfg, 4, /*seed=*/77);
    for (int cam = 0; cam < 4; ++cam) t.send_uplink(0, cam, 1500);
    (void)t.run_uplinks(0);
    for (int cam = 0; cam < 4; ++cam) t.send_downlink(0, cam, 700);
    return t.finish_cycle(0);
  };
  const net::CycleReport a = run_cycle();
  const net::CycleReport b = run_cycle();
  EXPECT_EQ(a.comm_ms, b.comm_ms);
  EXPECT_EQ(a.queue_ms, b.queue_ms);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped_msgs, b.dropped_msgs);
  EXPECT_EQ(a.downlink_delivered, b.downlink_delivered);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].camera, b.events[i].camera);
    EXPECT_EQ(a.events[i].time_ms, b.events[i].time_ms);
  }
}

// ---------------------------------------------------------------------------
// IdealTransport — bit-exact closed-form equivalence

TEST(IdealTransport, ReproducesLinkModelArithmeticExactly) {
  net::LinkModel link;
  net::IdealTransport t(3, link);
  t.send_uplink(0, 0, 1234);
  t.send_uplink(0, 2, 4321);
  const net::UplinkReport up = t.run_uplinks(0);
  EXPECT_TRUE(up.delivered[0]);
  EXPECT_FALSE(up.delivered[1]);  // camera 1 never sent
  EXPECT_TRUE(up.delivered[2]);
  t.send_downlink(0, 0, 800);
  t.send_downlink(0, 1, 800);
  const net::CycleReport report = t.finish_cycle(0);
  // Bit-exact: the same expression the pre-netsim pipeline evaluated.
  EXPECT_EQ(report.comm_ms, link.upload_ms(1234 + 4321) + link.download_ms(1600));
  EXPECT_EQ(report.queue_ms, 0.0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.dropped_msgs, 0);
  EXPECT_TRUE(report.downlink_delivered[1]);
  EXPECT_FALSE(report.downlink_delivered[2]);
}

TEST(IdealTransport, EveryCameraIsAlwaysOnline) {
  net::IdealTransport t(2);
  EXPECT_TRUE(t.camera_online(0, 0));
  EXPECT_TRUE(t.camera_online(1, 100000));
}

// ---------------------------------------------------------------------------
// Pipeline integration — dropout/rejoin and run-level determinism

runtime::PipelineConfig lossy_pipeline_config() {
  runtime::PipelineConfig cfg;
  cfg.policy = runtime::Policy::kBalb;
  cfg.horizon_frames = 10;
  cfg.training_frames = 60;
  cfg.seed = 7;
  cfg.transport = net::TransportKind::kLossy;
  return cfg;
}

TEST(PipelineNetsim, CameraDropoutAndRejoinCompleteGracefully) {
  auto cfg = lossy_pipeline_config();
  cfg.faults.dropouts.push_back({/*camera=*/1, /*from=*/10, /*to=*/25});
  runtime::Pipeline pipeline("S1", cfg);  // S1 deploys five cameras
  runtime::TraceRecorder trace;
  pipeline.attach_trace(&trace);
  const auto result = pipeline.run(50);
  ASSERT_EQ(result.frames.size(), 50u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kCameraDown), 1u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kCameraRejoin), 1u);
  // The run must stay sane: recall degrades but the pipeline keeps tracking
  // with the survivors and folds the camera back in at the next key frame.
  EXPECT_GT(result.object_recall, 0.3);
  for (std::size_t i = 0; i < result.frames.size(); ++i) {
    if (i >= 10 && i < 25) {
      EXPECT_EQ(result.frames[i].cameras_online, 4) << "frame index " << i;
    } else if (i < 10 || i >= 30) {
      // Rejoin waits for the first key frame at/after the window end
      // (horizon 10 -> frame 30), so 25..29 are allowed either way.
      EXPECT_EQ(result.frames[i].cameras_online, 5) << "frame index " << i;
    }
  }
}

TEST(PipelineNetsim, PermanentDropoutNeverRejoins) {
  auto cfg = lossy_pipeline_config();
  cfg.faults.dropouts.push_back({/*camera=*/0, /*from=*/5, /*to=*/-1});
  runtime::Pipeline pipeline("S1", cfg);
  runtime::TraceRecorder trace;
  pipeline.attach_trace(&trace);
  const auto result = pipeline.run(30);
  ASSERT_EQ(result.frames.size(), 30u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kCameraDown), 1u);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kCameraRejoin), 0u);
  EXPECT_EQ(result.frames.back().cameras_online, 4);
}

TEST(PipelineNetsim, LossyRunRecordsNetworkEventsInTrace) {
  auto cfg = lossy_pipeline_config();
  cfg.faults.loss_rate = 0.5;
  cfg.faults.retry_timeout_ms = 4.0;
  runtime::Pipeline pipeline("S2", cfg);
  runtime::TraceRecorder trace;
  pipeline.attach_trace(&trace);
  const auto result = pipeline.run(40);
  const long retries = result.total_retries();
  EXPECT_GT(retries, 0);
  EXPECT_EQ(trace.count(runtime::TraceEventType::kNetRetry),
            static_cast<std::size_t>(retries));
  EXPECT_EQ(trace.count(runtime::TraceEventType::kNetDrop),
            static_cast<std::size_t>(result.total_dropped_msgs()));
}

TEST(PipelineNetsim, SameSeedLossyRunsAreIdentical) {
  auto cfg = lossy_pipeline_config();
  cfg.faults.loss_rate = 0.2;
  cfg.faults.jitter_ms = 1.5;
  auto run = [&cfg]() {
    runtime::Pipeline pipeline("S2", cfg);
    return pipeline.run(30);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.frames.size(), b.frames.size());
  EXPECT_EQ(a.object_recall, b.object_recall);
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const runtime::FrameStats& fa = a.frames[i];
    const runtime::FrameStats& fb = b.frames[i];
    EXPECT_EQ(fa.frame, fb.frame);
    EXPECT_EQ(fa.key_frame, fb.key_frame);
    EXPECT_EQ(fa.slowest_infer_ms, fb.slowest_infer_ms);
    EXPECT_EQ(fa.frame_recall, fb.frame_recall);
    EXPECT_EQ(fa.gt_objects, fb.gt_objects);
    EXPECT_EQ(fa.tracked_objects, fb.tracked_objects);
    EXPECT_EQ(fa.comm_ms, fb.comm_ms);
    EXPECT_EQ(fa.queue_ms, fb.queue_ms);
    EXPECT_EQ(fa.retries, fb.retries);
    EXPECT_EQ(fa.dropped_msgs, fb.dropped_msgs);
    EXPECT_EQ(fa.cameras_online, fb.cameras_online);
    EXPECT_EQ(fa.camera_infer_ms, fb.camera_infer_ms);
  }
}

TEST(PipelineNetsim, ZeroFaultLossyMatchesIdealRecall) {
  auto ideal_cfg = lossy_pipeline_config();
  ideal_cfg.transport = net::TransportKind::kIdeal;
  auto lossy_cfg = lossy_pipeline_config();  // fault-free lossy
  runtime::Pipeline ideal("S2", ideal_cfg);
  runtime::Pipeline lossy("S2", lossy_cfg);
  const auto a = ideal.run(30);
  const auto b = lossy.run(30);
  // With no faults every message is delivered, so scheduling decisions —
  // and therefore recall and simulated inference — are identical; only the
  // comm accounting differs (queueing vs closed form).
  EXPECT_EQ(a.object_recall, b.object_recall);
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].slowest_infer_ms, b.frames[i].slowest_infer_ms);
    EXPECT_EQ(a.frames[i].frame_recall, b.frames[i].frame_recall);
  }
}

}  // namespace
}  // namespace mvs
