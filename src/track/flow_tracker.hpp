#pragma once
// Optical-flow-based tracking-by-detection (paper Sec. II-B).
//
// Each tracked object carries a predicted box that is projected forward by
// the median optical flow inside it; partial-frame detections are then
// associated back to the predictions with Hungarian matching on IoU. The
// target size class of a track is fixed for a scheduling horizon (with
// downsizing if the object outgrows it), which is what makes GPU batching
// effective.

#include <cstdint>
#include <optional>
#include <vector>

#include "detect/detection.hpp"
#include "geometry/size_class.hpp"
#include "matching/bbox_matcher.hpp"
#include "vision/optical_flow.hpp"

namespace mvs::track {

struct Track {
  long id = -1;                 ///< per-camera track identity
  std::uint64_t global_id = 0;  ///< cross-camera object id (set by scheduler)
  geom::BBox box;               ///< current best box estimate
  geom::SizeClassId size_class = 0;  ///< fixed within a scheduling horizon
  int age = 0;                  ///< frames since creation
  int missed = 0;               ///< consecutive frames without a match
  std::uint64_t last_truth_id = detect::Detection::kFalsePositive;
  // Constant-velocity bookkeeping for the velocity-fallback coast (see
  // FlowTracker::predict). Block-median optical flow cannot see an object
  // smaller than a flow block (the static background dominates its block),
  // so the detection-corrected position history supplies a velocity
  // estimate instead. Written unconditionally; READ only when predict() is
  // called with use_velocity=true, so the default flow-only path stays
  // bit-identical.
  geom::Vec2 velocity{0.0, 0.0};          ///< logical px per frame
  geom::Vec2 corrected_center{0.0, 0.0};  ///< center at last detection match
  int frames_since_correct = 0;           ///< predict() calls since a match
  bool has_velocity = false;              ///< velocity has been observed
};

class FlowTracker {
 public:
  struct Config {
    double match_min_iou = 0.15;
    int max_missed = 2;  ///< drop a track after this many missed frames
  };

  FlowTracker() = default;
  FlowTracker(Config cfg, geom::SizeClassSet sizes)
      : cfg_(cfg), sizes_(std::move(sizes)) {}

  const std::vector<Track>& tracks() const { return tracks_; }
  std::vector<Track>& tracks() { return tracks_; }
  bool has_track(long id) const;
  const Track* find(long id) const;

  /// Replace all tracks from a key-frame detection list (full inspection).
  void reset_from_detections(const std::vector<detect::Detection>& dets);

  /// Shift every track box by the median flow inside it. `scale` maps
  /// logical-frame pixels to flow-field pixels (flow is computed on a
  /// downscaled render; see vision::Renderer). With `use_velocity`, a track
  /// whose measured flow is below the sub-block noise floor coasts on its
  /// detection-derived constant-velocity estimate instead — block flow is
  /// blind to objects smaller than a flow block, and without the fallback
  /// their coasted ROI parts from the object within a few frames (the
  /// detect-or-track policy layer enables this; the fixed pipeline never
  /// does, preserving bit-identity).
  void predict(const vision::FlowField& flow, double scale,
               bool use_velocity = false);

  struct UpdateResult {
    std::vector<long> matched_track_ids;
    std::vector<std::size_t> unmatched_detections;  ///< indices into `dets`
    std::vector<long> removed_track_ids;            ///< dropped as lost
  };

  /// Associate detections with predicted tracks; matched tracks adopt the
  /// detection box (with size-class downsizing per the paper), unmatched
  /// tracks accrue a miss and are dropped past the limit. Unmatched
  /// detections are reported, NOT auto-added: whether to start tracking them
  /// is a scheduling decision (distributed BALB stage).
  ///
  /// `miss_scope`, when non-null, lists the track ids whose ROIs were
  /// actually inspected this frame: only those can accrue a miss (and be
  /// dropped). The detect-or-track policy layer inspects per-track subsets
  /// on its detect frames; a track whose slice was skipped saw no detector
  /// and must not be punished for the absent evidence. All tracks still
  /// participate in matching — a detection from a neighboring ROI that
  /// lands on a skipped track corrects it for free.
  UpdateResult update(const std::vector<detect::Detection>& dets,
                      const std::vector<long>* miss_scope = nullptr);

  /// update() with a caller-owned result object. Bit-identical outcome; the
  /// result's vectors and the tracker's internal matching scratch keep their
  /// capacity, so a warmed-up per-frame update allocates nothing
  /// (DESIGN.md §11).
  void update_into(const std::vector<detect::Detection>& dets,
                   const std::vector<long>* miss_scope, UpdateResult& out);

  /// Start tracking a detection; returns the new track id.
  long add_track(const detect::Detection& det);

  void remove_track(long id);

  /// (track id, predicted box) pairs for ROI slicing.
  std::vector<std::pair<long, geom::BBox>> predicted_boxes() const;

  /// predicted_boxes() into a caller-owned vector (cleared first).
  void predicted_boxes_into(
      std::vector<std::pair<long, geom::BBox>>& out) const;

  const geom::SizeClassSet& sizes() const { return sizes_; }

 private:
  Config cfg_{};
  geom::SizeClassSet sizes_{};
  std::vector<Track> tracks_;
  long next_id_ = 0;
  // update_into working memory, reused across frames (DESIGN.md §11).
  std::vector<geom::BBox> track_boxes_scratch_, det_boxes_scratch_;
  std::vector<char> matched_scratch_;
  std::vector<Track> survivors_scratch_;
  matching::BoxMatchResult match_scratch_;
  matching::BoxMatchScratch match_work_;
};

}  // namespace mvs::track
