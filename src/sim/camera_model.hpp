#pragma once
// Full-perspective pinhole camera projecting world objects into per-camera
// pixel bounding boxes.
//
// Because objects have 3-D extent (length/width/height) and cameras have
// arbitrary yaw/pitch, the induced mapping between two cameras' 2-D boxes is
// NOT a plane homography — exactly the property the paper exploits to show
// KNN beating homography on cross-camera box regression (Fig. 11).

#include <optional>

#include "detect/detection.hpp"
#include "geometry/bbox.hpp"
#include "sim/world.hpp"

namespace mvs::sim {

class CameraModel {
 public:
  struct Config {
    Vec3 position{0.0, 0.0, 6.0};  ///< meters; z is mounting height
    double yaw_deg = 0.0;    ///< 0 = +x, counter-clockwise about z
    double pitch_deg = -20.0;  ///< negative looks down
    double focal_px = 1000.0;
    int width = 1280;
    int height = 704;
    double min_depth_m = 2.0;
    double max_depth_m = 120.0;
    /// Minimum projected box area (px^2) for the object to count as visible.
    double min_box_area_px = 80.0;
    /// Fraction of the projected box that must lie inside the frame.
    double min_frame_coverage = 0.35;
  };

  CameraModel() = default;
  explicit CameraModel(Config cfg);

  const Config& config() const { return cfg_; }
  int width() const { return cfg_.width; }
  int height() const { return cfg_.height; }

  /// Project a world point; nullopt when behind the camera or outside the
  /// depth range.
  std::optional<geom::Vec2> project(const Vec3& world) const;

  /// Project a world object's 3-D box (8 corners) into the clamped 2-D pixel
  /// AABB; nullopt when the object is not visible from this camera under the
  /// config thresholds.
  std::optional<detect::GroundTruthObject> observe(const WorldObject& obj) const;

 private:
  Config cfg_{};
  Vec3 forward_, right_, up_;
};

}  // namespace mvs::sim
