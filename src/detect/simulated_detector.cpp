#include "detect/simulated_detector.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::detect {

double SimulatedDetector::detection_probability(const GroundTruthObject& obj,
                                                double downsample) const {
  double miss = cfg_.base_miss_rate;
  // Effective on-sensor size after downsampling.
  const double side = std::min(obj.box.w, obj.box.h) / downsample;
  if (side < cfg_.small_object_px && side > 0.0) {
    // Linear recall decay toward 0 as the object shrinks below the floor.
    miss += (1.0 - miss) * (1.0 - side / cfg_.small_object_px);
  }
  if (downsample > 1.0) {
    miss += cfg_.downsample_miss_gain * std::log2(downsample);
  }
  return std::clamp(1.0 - miss, 0.0, 1.0);
}

Detection SimulatedDetector::make_detection(const GroundTruthObject& obj,
                                            util::Rng& rng) const {
  Detection det;
  const double sx = cfg_.box_noise_frac * obj.box.w;
  const double sy = cfg_.box_noise_frac * obj.box.h;
  det.box = geom::BBox{obj.box.x + rng.gaussian(0.0, sx),
                       obj.box.y + rng.gaussian(0.0, sy),
                       std::max(2.0, obj.box.w + rng.gaussian(0.0, sx)),
                       std::max(2.0, obj.box.h + rng.gaussian(0.0, sy))};
  det.cls = obj.cls;
  det.score = std::clamp(rng.gaussian(cfg_.score_mean, 0.08), 0.05, 1.0);
  det.truth_id = obj.id;
  return det;
}

std::vector<Detection> SimulatedDetector::detect_full(
    const std::vector<GroundTruthObject>& visible, double frame_w,
    double frame_h, util::Rng& rng) const {
  std::vector<Detection> out;
  out.reserve(visible.size());
  // Full frames run at the network's native input resolution; treat as no
  // additional downsampling (the profile's full-frame latency accounts for
  // the resolution).
  for (const GroundTruthObject& obj : visible) {
    if (rng.bernoulli(detection_probability(obj, 1.0)))
      out.push_back(make_detection(obj, rng));
  }
  if (rng.bernoulli(cfg_.false_positive_rate)) {
    Detection fp;
    const double w = rng.uniform(12.0, 60.0);
    const double h = rng.uniform(12.0, 60.0);
    fp.box = geom::BBox{rng.uniform(0.0, std::max(1.0, frame_w - w)),
                        rng.uniform(0.0, std::max(1.0, frame_h - h)), w, h};
    fp.cls = ObjectClass::kCar;
    fp.score = rng.uniform(0.3, 0.6);
    out.push_back(fp);
  }
  return out;
}

void SimulatedDetector::detect_roi_append(
    const std::vector<GroundTruthObject>& visible, const geom::BBox& roi,
    int input_side, util::Rng& rng, std::vector<Detection>& out) const {
  const double downsample =
      std::max(1.0, std::max(roi.w, roi.h) / static_cast<double>(input_side));
  for (const GroundTruthObject& obj : visible) {
    const double cov = geom::coverage(obj.box, roi);
    if (cov < cfg_.truncation_min_coverage) continue;
    double p = detection_probability(obj, downsample);
    // Truncated objects are harder: scale by how completely the ROI sees
    // them above the threshold.
    p *= (cov - cfg_.truncation_min_coverage) /
             (1.0 - cfg_.truncation_min_coverage) * 0.3 +
         0.7;
    if (rng.bernoulli(p)) out.push_back(make_detection(obj, rng));
  }
  if (rng.bernoulli(cfg_.false_positive_rate)) {
    Detection fp;
    const double w = rng.uniform(8.0, roi.w / 2.0 + 8.0);
    const double h = rng.uniform(8.0, roi.h / 2.0 + 8.0);
    fp.box = geom::BBox{roi.x + rng.uniform(0.0, std::max(1.0, roi.w - w)),
                        roi.y + rng.uniform(0.0, std::max(1.0, roi.h - h)), w,
                        h};
    fp.cls = ObjectClass::kCar;
    fp.score = rng.uniform(0.3, 0.6);
    out.push_back(fp);
  }
}

}  // namespace mvs::detect
