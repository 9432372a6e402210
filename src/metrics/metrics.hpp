#pragma once
// Evaluation metrics matching the paper's definitions.

#include <cstdint>
#include <vector>

#include "detect/detection.hpp"
#include "geometry/bbox.hpp"

namespace mvs::metrics {

/// Binary-classification confusion counts with derived metrics (Fig. 10).
struct BinaryMetrics {
  std::size_t tp = 0, fp = 0, fn = 0, tn = 0;

  void add(bool predicted, bool actual);
  double precision() const;
  double recall() const;
  double f1() const;
  std::size_t total() const { return tp + fp + fn + tn; }
};

/// Object recall per the paper (Sec. IV-C): at every timestamp, a
/// ground-truth object counts as a true positive if at least one camera
/// localizes it (reported box overlapping the ground-truth box with
/// IoU >= `iou_threshold`), otherwise a false negative. An object counts as
/// ground truth only while at least one camera can see it.
class ObjectRecall {
 public:
  explicit ObjectRecall(double iou_threshold = 0.5)
      : iou_threshold_(iou_threshold) {}

  /// One timestamp: `gt_per_camera[c]` is camera c's visible ground truth;
  /// `reported_per_camera[c]` the boxes camera c currently localizes
  /// (tracks or detections). Returns this frame's recall.
  double add_frame(
      const std::vector<std::vector<detect::GroundTruthObject>>& gt_per_camera,
      const std::vector<std::vector<geom::BBox>>& reported_per_camera);

  double recall() const;
  std::size_t true_positives() const { return tp_; }
  std::size_t ground_truth_total() const { return tp_ + fn_; }

 private:
  double iou_threshold_;
  std::size_t tp_ = 0;
  std::size_t fn_ = 0;
  /// Per-frame unique-id scratch (sorted + deduplicated in place each
  /// frame); reused so warm add_frame calls allocate nothing.
  std::vector<std::uint64_t> ids_scratch_;
};

}  // namespace mvs::metrics
