#include "sim/camera_model.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::sim {

namespace {
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
}

CameraModel::CameraModel(Config cfg) : cfg_(cfg) {
  const double yaw = cfg_.yaw_deg * kDegToRad;
  const double pitch = cfg_.pitch_deg * kDegToRad;
  forward_ = {std::cos(yaw) * std::cos(pitch), std::sin(yaw) * std::cos(pitch),
              std::sin(pitch)};
  right_ = {std::sin(yaw), -std::cos(yaw), 0.0};
  // up = right x forward (right-handed, z-up world).
  up_ = {right_.y * forward_.z - right_.z * forward_.y,
         right_.z * forward_.x - right_.x * forward_.z,
         right_.x * forward_.y - right_.y * forward_.x};
}

std::optional<geom::Vec2> CameraModel::project(const Vec3& world) const {
  const Vec3 rel = world - cfg_.position;
  const double depth = rel.dot(forward_);
  if (depth < cfg_.min_depth_m || depth > cfg_.max_depth_m)
    return std::nullopt;
  const double px = cfg_.width / 2.0 + cfg_.focal_px * rel.dot(right_) / depth;
  const double py = cfg_.height / 2.0 - cfg_.focal_px * rel.dot(up_) / depth;
  return geom::Vec2{px, py};
}

std::optional<detect::GroundTruthObject> CameraModel::observe(
    const WorldObject& obj) const {
  // 3-D box corners from footprint center, heading and dims.
  const geom::Vec2 fwd = obj.heading;
  const geom::Vec2 side{-fwd.y, fwd.x};
  const double hl = obj.dims.length / 2.0;
  const double hw = obj.dims.width / 2.0;

  double min_x = 1e18, min_y = 1e18, max_x = -1e18, max_y = -1e18;
  int projected = 0;
  for (int dz = 0; dz <= 1; ++dz) {
    for (int i = 0; i < 4; ++i) {
      const double sl = (i & 1) ? hl : -hl;
      const double sw = (i & 2) ? hw : -hw;
      const Vec3 corner{obj.position.x + fwd.x * sl + side.x * sw,
                        obj.position.y + fwd.y * sl + side.y * sw,
                        dz ? obj.dims.height : 0.0};
      const auto px = project(corner);
      if (!px) continue;
      ++projected;
      min_x = std::min(min_x, px->x);
      min_y = std::min(min_y, px->y);
      max_x = std::max(max_x, px->x);
      max_y = std::max(max_y, px->y);
    }
  }
  if (projected < 8) return std::nullopt;  // partially behind the camera

  const geom::BBox raw = geom::BBox::from_corners(min_x, min_y, max_x, max_y);
  const geom::BBox clipped = raw.clamped(static_cast<double>(cfg_.width),
                                         static_cast<double>(cfg_.height));
  if (clipped.area() < cfg_.min_box_area_px) return std::nullopt;
  if (raw.area() > 0.0 && clipped.area() / raw.area() < cfg_.min_frame_coverage)
    return std::nullopt;

  detect::GroundTruthObject gt;
  gt.id = obj.id;
  gt.box = clipped;
  gt.cls = obj.cls;
  gt.distance_m =
      (Vec3{obj.position.x, obj.position.y, 0.0} - cfg_.position).norm();
  return gt;
}

}  // namespace mvs::sim
