#include "fleet/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::fleet {

namespace {

/// splitmix64: the standard stateless 64-bit mixer — every (seed, camera,
/// frame, draw) tuple maps to an independent uniform word, which is what
/// keeps synthetic work a pure function of position.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

SyntheticSource::SyntheticSource(
    const std::vector<gpu::DeviceProfile>& devices, std::uint64_t seed,
    double tasks_per_camera, int horizon)
    : devices_(&devices),
      seed_(seed),
      base_tasks_(std::max(0, static_cast<int>(std::floor(tasks_per_camera)))),
      horizon_(std::max(1, horizon)),
      work_(devices.size()) {}

void SyntheticSource::run_frame() {
  const long f = frames_++;
  for (std::size_t cam = 0; cam < devices_->size(); ++cam) {
    const gpu::DeviceProfile& dev = (*devices_)[cam];
    runtime::CameraGpuWork& w = work_[cam];
    w.full_frame = (f % horizon_) == 0;
    w.tasks.clear();
    const int classes = static_cast<int>(dev.size_class_count());
    if (classes == 0) continue;
    const std::uint64_t frame_word =
        mix(seed_ ^ mix(static_cast<std::uint64_t>(cam + 1)) ^
            static_cast<std::uint64_t>(f));
    // Mean-preserving jitter of +/-1 task around the configured rate.
    const int n = std::max(
        0, base_tasks_ + static_cast<int>(frame_word % 3ULL) - 1);
    for (int t = 0; t < n; ++t) {
      const std::uint64_t task_word =
          mix(frame_word ^ static_cast<std::uint64_t>(0x51ed2701ULL + t));
      // Skew towards the small size classes (min of two draws), matching
      // the far-field boxes that dominate real pole-camera traffic.
      const int a = static_cast<int>(task_word % static_cast<std::uint64_t>(classes));
      const int b = static_cast<int>((task_word >> 32) %
                                     static_cast<std::uint64_t>(classes));
      w.tasks.push_back(static_cast<geom::SizeClassId>(std::min(a, b)));
    }
  }
}

}  // namespace mvs::fleet
