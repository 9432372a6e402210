#include "layers.hpp"

#include <algorithm>
#include <vector>

#include "assoc/association.hpp"
#include "detect/simulated_detector.hpp"
#include "geometry/bbox.hpp"
#include "gpu/batch_planner.hpp"
#include "net/messages.hpp"
#include "policy/correlation.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"
#include "track/flow_tracker.hpp"
#include "util/rng.hpp"
#include "vision/optical_flow.hpp"
#include "vision/renderer.hpp"

namespace perfbench {
namespace {

/// Accumulates the wall time (µs) of timed calls, one call per unit of
/// work (a frame, a camera-frame or a key frame).
struct Cost {
  double us = 0.0;
  double calls = 0.0;
  double per_call() const { return calls > 0.0 ? us / calls : 0.0; }
};

template <typename F>
void timed(Cost& cost, F&& f) {
  const auto t0 = Clock::now();
  f();
  cost.us += 1000.0 * ms_since(t0);
  cost.calls += 1.0;
}

double per(double total, double n) { return n > 0.0 ? total / n : 0.0; }

/// The probe's copy of one camera's imaging and tracking state, built like
/// the pipeline's camera node.
struct Camera {
  double w = 0.0, h = 0.0, scale = 4.0;
  mvs::vision::Renderer renderer;
  mvs::vision::OpticalFlow flow_engine;
  mvs::vision::FlowScratch scratch;
  mvs::vision::FlowField flow;
  mvs::track::FlowTracker tracker;
  mvs::util::Rng rng;
  std::vector<mvs::vision::RenderObject> objs;
  std::vector<mvs::detect::Detection> tracks;  ///< last reported boxes
};

bool same_frame(const mvs::sim::MultiFrame& a, const mvs::sim::MultiFrame& b) {
  if (a.frame_index != b.frame_index ||
      a.per_camera.size() != b.per_camera.size())
    return false;
  for (std::size_t i = 0; i < a.per_camera.size(); ++i) {
    if (a.per_camera[i].size() != b.per_camera[i].size()) return false;
    for (std::size_t j = 0; j < a.per_camera[i].size(); ++j)
      if (a.per_camera[i][j].id != b.per_camera[i][j].id) return false;
  }
  return true;
}

}  // namespace

struct LayerProbe::State {
  State(const std::string& scenario, const mvs::runtime::PipelineConfig& cfg)
      : config(cfg),
        player(mvs::sim::make_scenario(scenario, cfg.seed),
               /*warmup_s=*/45.0) {}

  mvs::runtime::PipelineConfig config;
  mvs::sim::ScenarioPlayer player;
  mvs::geom::SizeClassSet sizes;
  mvs::detect::SimulatedDetector day, night;
  std::vector<Camera> cams;
  std::unique_ptr<mvs::assoc::CrossCameraAssociator> associator;
  std::unique_ptr<mvs::policy::CorrelationGate> gate;
  std::vector<int> activity;
  mvs::sim::MultiFrame mf;
  long frames = 0;         ///< evaluation frames advanced
  bool after_key = false;  ///< the last observed frame was a key frame

  double train_ms = 0.0;
  Cost sim_c, render_c, flow_c, predict_c, detect_c, assoc_c, decide_c;
  double key_frames = 0.0, boxes = 0.0, objects = 0.0, uplink_bytes = 0.0;
  double gated = 0.0, cold = 0.0;  ///< camera-frames refreshed / kept cold

  // GPU ledger: the planner on the pipeline's per-camera partial tasks.
  double plan_us = 0.0, tasks = 0.0, slots = 0.0, gpu_frames = 0.0;
  std::vector<int> counts;
  mvs::gpu::BatchPlan plan;
};

LayerProbe::LayerProbe(const std::string& scenario,
                       const mvs::runtime::PipelineConfig& config)
    : s_(std::make_unique<State>(scenario, config)) {
  using namespace mvs;
  State& s = *s_;
  const sim::Scenario& sc = s.player.scenario();
  const std::size_t m = sc.cameras.size();
  if (sc.quality.enabled) {
    detect::SimulatedDetector::Config nc = s.day.config();
    nc.base_miss_rate =
        std::min(0.95, nc.base_miss_rate + sc.quality.night_miss_boost);
    nc.score_mean = std::max(0.05, nc.score_mean - sc.quality.night_score_drop);
    s.night = detect::SimulatedDetector(nc);
  }

  std::vector<std::pair<double, double>> frame_sizes;
  util::Rng root(config.seed ^ 0xABCDEF12ULL);
  s.cams.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    Camera& c = s.cams[i];
    c.w = sc.cameras[i].model.width();
    c.h = sc.cameras[i].model.height();
    c.scale = sc.render_scale;
    vision::Renderer::Config rc;
    rc.width = static_cast<int>(c.w / c.scale);
    rc.height = static_cast<int>(c.h / c.scale);
    c.renderer = vision::Renderer(rc);
    c.tracker = track::FlowTracker(track::FlowTracker::Config{}, s.sizes);
    c.rng = root.fork();
    frame_sizes.emplace_back(c.w, c.h);
  }

  const std::vector<sim::MultiFrame> training =
      s.player.take(config.training_frames);
  s.associator = std::make_unique<assoc::CrossCameraAssociator>(frame_sizes);
  const auto t0 = Clock::now();
  s.associator->train(training);
  s.train_ms = ms_since(t0);

  if (config.frame_policy.correlation_gate) {
    policy::CorrelationGateConfig gc;
    gc.enabled = true;
    gc.threshold = config.frame_policy.gate_threshold;
    gc.window = config.frame_policy.gate_window;
    gc.hold = config.frame_policy.gate_hold;
    s.gate = std::make_unique<policy::CorrelationGate>(gc, m);
    std::vector<policy::CameraSightings> sightings;
    for (const sim::MultiFrame& tf : training) {
      policy::CameraSightings frame(m);
      for (std::size_t i = 0; i < m && i < tf.per_camera.size(); ++i)
        for (const detect::GroundTruthObject& o : tf.per_camera[i])
          frame[i].push_back(o.id);
      sightings.push_back(std::move(frame));
    }
    s.gate->fit(sightings);
    s.activity.assign(m, 0);
  }
}

LayerProbe::~LayerProbe() = default;

bool LayerProbe::observe(const mvs::runtime::Pipeline& pipeline,
                         bool contiguous) {
  using namespace mvs;
  State& s = *s_;
  const sim::MultiFrame& served = pipeline.current_frame();
  // sim: play every frame the pipeline advanced, skipped ones included.
  bool key = false;
  do {
    key = s.frames++ % s.config.horizon_frames == 0;
    timed(s.sim_c, [&] { s.player.next_into(s.mf); });
  } while (s.mf.frame_index < served.frame_index);
  const bool same = same_frame(s.mf, served);
  const std::size_t m = s.cams.size();

  // policy: refresh the gate on the activity the pipeline reported for the
  // previous frame (its tracks; after a key frame, every detection).
  if (s.gate) {
    timed(s.decide_c, [&] { s.gate->refresh(s.activity); });
    for (std::size_t i = 0; i < m; ++i)
      s.cold += s.gate->hot(static_cast<int>(i)) ? 0.0 : 1.0;
    s.gated += static_cast<double>(m);
  }

  // vision: render the served frame for every camera.
  for (std::size_t i = 0; i < m; ++i) {
    Camera& c = s.cams[i];
    c.objs.clear();
    for (const detect::GroundTruthObject& o : served.per_camera[i])
      c.objs.push_back({o.id, geom::BBox{o.box.x / c.scale,
                                         o.box.y / c.scale, o.box.w / c.scale,
                                         o.box.h / c.scale}});
    timed(s.render_c, [&] {
      c.renderer.render_into(c.objs, served.frame_index,
                             0x5EED0000ULL + static_cast<std::uint64_t>(i),
                             c.scratch.cur_frame());
    });
  }

  const std::vector<runtime::CameraGpuWork>& work = pipeline.last_gpu_work();
  if (key) {
    // detect / net / assoc: full inspection of the cameras the pipeline
    // inspected (online and not gated cold), then association.
    s.key_frames += 1.0;
    const sim::QualitySchedule& quality = s.player.scenario().quality;
    const detect::SimulatedDetector& detector =
        quality.enabled && quality.is_night(served.time_s) ? s.night : s.day;
    std::vector<std::vector<detect::Detection>> dets(m);
    for (std::size_t i = 0; i < m && i < work.size(); ++i) {
      if (!work[i].full_frame) continue;
      Camera& c = s.cams[i];
      timed(s.detect_c, [&] {
        dets[i] = detector.detect_full(served.per_camera[i], c.w, c.h, c.rng);
      });
      s.boxes += static_cast<double>(dets[i].size());
      const net::DetectionListMsg msg{
          static_cast<std::uint32_t>(i),
          static_cast<std::uint64_t>(served.frame_index), dets[i]};
      s.uplink_bytes += static_cast<double>(msg.encode().size());
    }
    std::vector<assoc::AssociatedObject> objects;
    timed(s.assoc_c, [&] { objects = s.associator->associate(dets); });
    s.objects += static_cast<double>(objects.size());
    for (Camera& c : s.cams) c.flow_engine.rebase(c.scratch);
  } else {
    // vision / track: flow against the previous frame, then predict the
    // tracks the pipeline held. After a key frame those are the assigned
    // subset of the detections, which the pipeline does not report, so
    // prediction is timed only on frames that follow a regular frame.
    const bool tracks_known = contiguous && !s.after_key;
    for (Camera& c : s.cams) {
      timed(s.flow_c,
            [&] { c.flow_engine.compute(c.scratch, c.flow, nullptr); });
      c.scratch.advance();
      if (!tracks_known) continue;
      c.tracker.reset_from_detections(c.tracks);
      timed(s.predict_c, [&] { c.tracker.predict(c.flow, c.scale); });
    }
  }
  s.after_key = key;

  // What the pipeline reported for this frame: next frame's tracks and
  // gate activity.
  const auto& reported = pipeline.last_reported();
  for (std::size_t i = 0; i < m && i < reported.size(); ++i) {
    s.cams[i].tracks.clear();
    for (const geom::BBox& box : reported[i]) {
      detect::Detection d;
      d.box = box;
      d.score = 1.0;
      s.cams[i].tracks.push_back(d);
    }
    if (s.gate) s.activity[i] = static_cast<int>(reported[i].size());
  }

  // gpu: plan this frame's per-camera partial tasks with the module's
  // planner and tally the batch fill.
  const std::vector<gpu::DeviceProfile> devices = pipeline.devices();
  s.gpu_frames += 1.0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (work[i].tasks.empty()) continue;
    const auto t0 = Clock::now();
    gpu::plan_batches_into(work[i].tasks, devices[i], s.counts, s.plan);
    s.plan_us += 1000.0 * ms_since(t0);
    for (const gpu::Batch& b : s.plan.batches) {
      s.tasks += b.count;
      s.slots += devices[i].batch_limit(b.size_class);
    }
  }
  return same;
}

std::map<std::string, Metric> LayerProbe::metrics() const {
  const State& s = *s_;
  std::map<std::string, Metric> out;
  out["sim.frame_us"] = {s.sim_c.per_call(), "us"};
  out["vision.render_us"] = {s.render_c.per_call(), "us"};
  out["vision.flow_us"] = {s.flow_c.per_call(), "us"};
  out["track.predict_us"] = {s.predict_c.per_call(), "us"};
  out["detect.full_us"] = {s.detect_c.per_call(), "us"};
  out["detect.boxes_per_key_frame"] = {per(s.boxes, s.key_frames), "count"};
  out["assoc.associate_us"] = {s.assoc_c.per_call(), "us"};
  out["assoc.train_ms"] = {s.train_ms, "ms"};
  out["core.problem_objects"] = {per(s.objects, s.key_frames), "count"};
  out["net.uplink_bytes_per_key_frame"] = {per(s.uplink_bytes, s.key_frames),
                                           "bytes"};
  out["gpu.plan_ns_per_task"] = {per(1000.0 * s.plan_us, s.tasks), "ns"};
  out["gpu.tasks_per_frame"] = {per(s.tasks, s.gpu_frames), "count"};
  out["gpu.batch_fill"] = {per(s.tasks, s.slots), "ratio"};
  if (s.gate) out["policy.decide_us"] = {s.decide_c.per_call(), "us"};
  return out;
}

double LayerProbe::gate_cold_ratio() const { return per(s_->cold, s_->gated); }

}  // namespace perfbench
