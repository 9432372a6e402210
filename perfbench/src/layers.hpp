#pragma once
// Per-layer probe for the pipeline workloads.
//
// A LayerProbe rides along a real Pipeline. After each frame the pipeline
// serves, the probe repeats the module calls that can be timed from outside
// on that very frame and on the state the pipeline reported: scenario
// playback, render, optical flow and track prediction for every camera; on
// key frames, full detection of the cameras the pipeline inspected, the
// uplink encoding and cross-camera association; the correlation gate's
// refresh; and the GPU batch planner on the pipeline's own per-camera tasks.
// The stages the pipeline times itself (FrameStats.central_ms and
// distributed_ms) and the obs signals it already emits are read by the
// workloads, not repeated here. No tracing is added inside the program.

#include <map>
#include <memory>
#include <string>

#include "harness.hpp"
#include "runtime/pipeline.hpp"

namespace perfbench {

class LayerProbe {
 public:
  /// Builds the probe's own copy of the deployment's models for `scenario`
  /// under `config` (the pipeline's seed, training split and gate settings):
  /// the association models (training timed) and the correlation gate.
  LayerProbe(const std::string& scenario,
             const mvs::runtime::PipelineConfig& config);
  ~LayerProbe();

  /// Call right after `pipeline` processed a frame, with that frame as its
  /// current frame. `contiguous` is false when the pipeline processed other
  /// frames since the last observed one (the probe's copy of the tracks is
  /// then stale and prediction is not timed). Returns false when the probe's
  /// scenario playback does not reproduce the frame the pipeline served.
  bool observe(const mvs::runtime::Pipeline& pipeline, bool contiguous);

  /// sim.*, vision.*, track.*, detect.*, assoc.*, core.problem_objects,
  /// gpu.*, net.* and, with a correlation gate, policy.decide_us.
  std::map<std::string, Metric> metrics() const;

  /// Cold-camera share of the probe's own gate: a cross-check of
  /// policy.gate_cold_ratio, which the workloads read from the pipeline.
  double gate_cold_ratio() const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
