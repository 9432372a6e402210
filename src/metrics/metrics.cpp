#include "metrics/metrics.hpp"

#include <algorithm>

namespace mvs::metrics {

void BinaryMetrics::add(bool predicted, bool actual) {
  if (predicted && actual) ++tp;
  else if (predicted && !actual) ++fp;
  else if (!predicted && actual) ++fn;
  else ++tn;
}

double BinaryMetrics::precision() const {
  return (tp + fp) ? static_cast<double>(tp) / static_cast<double>(tp + fp)
                   : 0.0;
}

double BinaryMetrics::recall() const {
  return (tp + fn) ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                   : 0.0;
}

double BinaryMetrics::f1() const {
  const double p = precision(), r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double ObjectRecall::add_frame(
    const std::vector<std::vector<detect::GroundTruthObject>>& gt_per_camera,
    const std::vector<std::vector<geom::BBox>>& reported_per_camera) {
  // Ground-truth identities visible anywhere this timestamp. Sorted +
  // deduplicated scratch vector: same ascending iteration order a std::set
  // would give, without the per-node allocations.
  std::vector<std::uint64_t>& gt_ids = ids_scratch_;
  gt_ids.clear();
  for (const auto& cam : gt_per_camera)
    for (const detect::GroundTruthObject& obj : cam) gt_ids.push_back(obj.id);
  std::sort(gt_ids.begin(), gt_ids.end());
  gt_ids.erase(std::unique(gt_ids.begin(), gt_ids.end()), gt_ids.end());

  std::size_t frame_tp = 0;
  for (std::uint64_t id : gt_ids) {
    bool found = false;
    for (std::size_t c = 0; c < gt_per_camera.size() && !found; ++c) {
      const detect::GroundTruthObject* gt = nullptr;
      for (const detect::GroundTruthObject& obj : gt_per_camera[c]) {
        if (obj.id == id) {
          gt = &obj;
          break;
        }
      }
      if (!gt) continue;
      for (const geom::BBox& box : reported_per_camera[c]) {
        if (geom::iou(box, gt->box) >= iou_threshold_) {
          found = true;
          break;
        }
      }
    }
    if (found) ++frame_tp;
  }
  tp_ += frame_tp;
  fn_ += gt_ids.size() - frame_tp;
  return gt_ids.empty()
             ? 1.0
             : static_cast<double>(frame_tp) / static_cast<double>(gt_ids.size());
}

double ObjectRecall::recall() const {
  const std::size_t total = tp_ + fn_;
  return total ? static_cast<double>(tp_) / static_cast<double>(total) : 1.0;
}

}  // namespace mvs::metrics
