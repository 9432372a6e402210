#pragma once
// Online per-camera policy features (mvs::policy).
//
// The detect-or-track decision (policy.hpp) is made per camera per regular
// frame from cheap signals that are already lying around after the tracking
// stage: optical-flow drift, matching residual, detection-confidence decay,
// track churn and the camera's share of the deployment's GPU demand. All of
// them are O(tracks + flow blocks) to compute — the whole point is that the
// decision costs microseconds while the detector costs milliseconds.
//
// Feature vector layout is FROZEN (kFeatureNames order): learned models are
// serialized against these names and the loader rejects any mismatch.

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "geometry/bbox.hpp"
#include "vision/optical_flow.hpp"

namespace mvs::policy {

/// Number of online features the policy sees.
inline constexpr std::size_t kFeatureCount = 9;

/// Canonical feature names, in vector order. Serialized into learned-model
/// JSON so a model trained against one layout can never be evaluated
/// against another.
extern const std::array<const char*, kFeatureCount> kFeatureNames;

/// Detection-confidence decay per regular frame without inspection
/// (feature 3 = confidence_at_last_detect * kConfidenceDecay^frames_since).
inline constexpr double kConfidenceDecay = 0.94;

/// One camera's online features for the current regular frame.
struct CameraFeatures {
  double frames_since_detect = 0.0;  ///< regular frames since last inspection
  double drift_px = 0.0;        ///< accumulated mean track motion since detect
  double residual = 0.0;        ///< normalized mean flow SAD residual [0, 1]
  double confidence = 1.0;      ///< decayed mean detection score at last detect
  double churn = 0.0;           ///< track adds+drops at last detect / tracks
  double track_count = 0.0;     ///< active tracks this frame
  double demand_share = 0.0;    ///< camera's share of fleet GPU ms (lag 1)
  double unexplained_motion = 0.0;  ///< moving blocks outside any known box
  /// Fraction of the camera's planned responsibility that went missing
  /// mid-horizon: max(0, baseline - live tracks) / max(1, baseline), where
  /// baseline is the track count installed by the last key-frame plan
  /// (raised when later inspections adopt more, lowered when tracks
  /// legitimately depart the view). A positive deficit means an object the
  /// central plan expects this camera to report is currently untracked —
  /// coasting cannot re-acquire it, only detection can.
  double track_deficit = 0.0;

  /// Flatten into kFeatureNames order (model/trace input).
  std::vector<double> to_vector() const;
};

/// Per-camera accumulator the pipeline carries between frames to derive
/// CameraFeatures. Reset by note_detect() whenever the camera was inspected
/// (key frame or policy-selected detect frame).
struct CameraFeatureState {
  int frames_since_detect = 0;
  double accum_drift_px = 0.0;
  double confidence_at_detect = 1.0;  ///< mean det score at last inspection
  int churn_at_detect = 0;            ///< adds + drops at last inspection
  int tracks_at_detect = 0;
  double demand_share = 0.0;  ///< updated sequentially after each frame
  /// Planned responsibility: tracks installed by the last key-frame plan,
  /// raised when a later inspection leaves MORE tracks alive (adoption /
  /// takeover), lowered only by note_departure(). Live tracks below this
  /// baseline = a mid-horizon loss (see CameraFeatures::track_deficit).
  int track_baseline = 0;

  /// Record an inspection outcome: mean detection score, adds + drops, and
  /// the surviving track count. Resets staleness and drift; ratchets the
  /// baseline up to `tracks`.
  void note_detect(double mean_score, int churn_events, int tracks);

  /// Key-frame plan installed `tracks` tracks: the baseline resets to it
  /// (a full inspection is the one moment responsibility may shrink).
  void reset_baseline(int tracks) { track_baseline = std::max(0, tracks); }

  /// A track left the camera's view (culled as departed, not lost): the
  /// camera is no longer responsible for it.
  void note_departure() { track_baseline = std::max(0, track_baseline - 1); }

  /// Accumulate one track-only (or pre-decision) frame's drift.
  void add_drift(double mean_track_motion_px) {
    accum_drift_px += mean_track_motion_px;
  }

  /// Assemble the feature vector for the current frame.
  CameraFeatures features(std::size_t track_count, double residual,
                          double unexplained_motion) const;
};

/// Mean per-frame motion (logical pixels) of the blocks under the given
/// track boxes: mean over boxes of |median flow inside the box| * scale.
/// Returns 0 when there are no boxes. `scale` maps flow-field (rendered)
/// pixels to logical pixels.
double mean_track_motion_px(const vision::FlowField& field,
                            const std::vector<geom::BBox>& boxes,
                            double scale);

/// Mean SAD residual over all flow blocks, normalized by the worst-case
/// block SAD (block_size^2 * 255) into [0, 1].
double normalized_residual(const vision::FlowField& field);

/// Fraction of flow blocks with |flow| >= motion_threshold (flow pixels)
/// whose centers are NOT inside any `explained` box (track or ghost boxes,
/// in flow-field coordinates). This is the cheapest possible "something new
/// is moving" signal: the same quantity vision::extract_new_regions_into
/// clusters, without the clustering.
double unexplained_motion_fraction(const vision::FlowField& field,
                                   const std::vector<geom::BBox>& explained,
                                   double motion_threshold = 1.5);

}  // namespace mvs::policy
