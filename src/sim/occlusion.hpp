#pragma once
// Dynamic inter-object occlusion (paper Sec. V, "Dynamic occlusion").
//
// An object can be hidden from a camera by a closer object whose projected
// box covers most of it. Occlusion is per-camera: an object occluded on its
// assigned camera may remain visible elsewhere — the failure mode that
// motivates redundant (K-coverage) assignment in core/redundancy.hpp.

#include <vector>

#include "detect/detection.hpp"

namespace mvs::sim {

struct OcclusionConfig {
  /// Fraction of an object's box that must be covered by a strictly closer
  /// object for it to count as occluded.
  double cover_threshold = 0.6;
  bool enabled = true;
};

/// Filter a camera's ground-truth list in place: drop objects whose box is
/// covered by a closer (smaller distance_m) object's box beyond the
/// threshold. Preserves the relative order of the survivors. A disabled
/// config is a strict no-op, which keeps the default pipeline path
/// allocation-free (DESIGN.md §11).
void apply_occlusion_inplace(std::vector<detect::GroundTruthObject>& objects,
                             const OcclusionConfig& cfg = {});

/// Occlusion report for diagnostics / metrics: ids dropped per camera.
struct OcclusionEvent {
  std::uint64_t occluded_id = 0;
  std::uint64_t occluder_id = 0;
  double covered_fraction = 0.0;
};

std::vector<OcclusionEvent> occlusion_events(
    const std::vector<detect::GroundTruthObject>& objects,
    const OcclusionConfig& cfg = {});

}  // namespace mvs::sim
