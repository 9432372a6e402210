#pragma once
// Deterministic synthetic session load (mvs::fleet).
//
// A SyntheticSource stands in for a runtime::Pipeline when a hosted
// session only needs to EXERCISE the serving plane, not the vision stack:
// it emits seeded per-camera partial-frame task multisets (plus periodic
// full-frame inspections on the pipeline's key-frame cadence) against the
// scenario's real device profiles, while skipping scenario playback,
// association training, and per-frame imaging entirely. This is what makes
// 1k-16k-session fleets constructible in milliseconds — dispatch,
// cross-session batching and attribution all behave exactly as they do for
// real sessions, because the arbiter only ever sees CameraGpuWork.
//
// Determinism: the work for (seed, camera, frame) is a pure function, and
// the only mutable state is the frame counter.

#include <cstdint>
#include <vector>

#include "gpu/device_profile.hpp"
#include "runtime/pipeline.hpp"

namespace mvs::fleet {

class SyntheticSource {
 public:
  /// `devices` must outlive the source (it borrows the profiles only to
  /// size each camera's task classes). `tasks_per_camera` is the mean
  /// per-frame partial-task count (the admission estimator's constant);
  /// `horizon` the key-frame period in frames (full inspection on frame 0,
  /// horizon, 2*horizon, ... per camera, like the paper's pipelines).
  SyntheticSource(const std::vector<gpu::DeviceProfile>& devices,
                  std::uint64_t seed, double tasks_per_camera, int horizon);

  /// Generate the next frame's work (advances the frame counter).
  /// Allocation-free once warm: task vectors keep their capacity.
  void run_frame();

  const std::vector<runtime::CameraGpuWork>& last_gpu_work() const {
    return work_;
  }

  long frames() const { return frames_; }

 private:
  const std::vector<gpu::DeviceProfile>* devices_;
  std::uint64_t seed_;
  int base_tasks_;  ///< floor(tasks_per_camera), jittered +/-1 per frame
  int horizon_;
  long frames_ = 0;
  std::vector<runtime::CameraGpuWork> work_;
};

}  // namespace mvs::fleet
