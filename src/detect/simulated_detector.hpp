#pragma once
// Simulated object detector standing in for YOLOv5 (see DESIGN.md).
//
// Detection *quality* is modelled here; detection *time* is charged by the
// gpu::BatchPlanner from profiled latency tables, mirroring how the paper
// drives its scheduler from offline YOLO profiles. The model captures the
// error sources that matter to the scheduling problem:
//   - small / distant objects are missed more often;
//   - objects truncated by the ROI border are missed more often;
//   - large regions downsampled into a small input resolution lose recall;
//   - localization noise grows with object size;
//   - occasional false positives per inspected region.

#include "detect/detection.hpp"
#include "geometry/size_class.hpp"
#include "util/rng.hpp"

namespace mvs::detect {

class SimulatedDetector {
 public:
  struct Config {
    double base_miss_rate = 0.02;       ///< per-object miss floor
    double small_object_px = 24.0;      ///< below this side length, recall decays
    double truncation_min_coverage = 0.5;  ///< ROI must cover this much of a box
    double box_noise_frac = 0.03;       ///< stddev of coordinate noise vs size
    double false_positive_rate = 0.01;  ///< FPs per inspected region
    double downsample_miss_gain = 0.15; ///< extra miss per unit log2 downsample
    double score_mean = 0.85;
  };

  SimulatedDetector() = default;
  explicit SimulatedDetector(Config cfg) : cfg_(cfg) {}

  /// Full-frame inspection: every visible ground-truth object is a candidate.
  std::vector<Detection> detect_full(
      const std::vector<GroundTruthObject>& visible, double frame_w,
      double frame_h, util::Rng& rng) const;

  /// Partial-frame inspection inside `roi`, which is executed at the square
  /// input resolution of `size_class` side `input_side` (so a larger ROI is
  /// downsampled). Candidates are visible objects sufficiently covered by
  /// the ROI. Detections are APPENDED to `out` (not cleared): callers
  /// accumulating detections over many slices reuse one buffer instead of
  /// splicing a fresh vector per slice.
  void detect_roi_append(const std::vector<GroundTruthObject>& visible,
                         const geom::BBox& roi, int input_side, util::Rng& rng,
                         std::vector<Detection>& out) const;

  const Config& config() const { return cfg_; }

 private:
  /// Probability that `obj` is detected when inspected at `downsample` (>=1).
  double detection_probability(const GroundTruthObject& obj,
                               double downsample) const;

  Detection make_detection(const GroundTruthObject& obj, util::Rng& rng) const;

  Config cfg_{};
};

}  // namespace mvs::detect
