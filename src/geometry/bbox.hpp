#pragma once
// 2-D geometric primitives: points and axis-aligned bounding boxes in image
// pixel coordinates. Everything downstream (detections, tracks, association,
// scheduling target sizes) is built on BBox.

#include <algorithm>
#include <cmath>

namespace mvs::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  Vec2 operator*(double k) const { return {x * k, y * k}; }
  double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  double norm() const { return std::hypot(x, y); }
};

/// Axis-aligned bounding box. (x, y) is the top-left corner; w/h >= 0 for a
/// valid box. Degenerate (empty) boxes have area 0 and IoU 0 with everything.
struct BBox {
  double x = 0.0;
  double y = 0.0;
  double w = 0.0;
  double h = 0.0;

  static BBox from_corners(double x0, double y0, double x1, double y1) {
    return {std::min(x0, x1), std::min(y0, y1), std::abs(x1 - x0),
            std::abs(y1 - y0)};
  }
  static BBox from_center(Vec2 c, double w, double h) {
    return {c.x - w / 2.0, c.y - h / 2.0, w, h};
  }

  double x2() const { return x + w; }
  double y2() const { return y + h; }
  Vec2 center() const { return {x + w / 2.0, y + h / 2.0}; }
  double area() const { return (w > 0 && h > 0) ? w * h : 0.0; }
  bool empty() const { return w <= 0.0 || h <= 0.0; }

  bool contains(Vec2 p) const {
    return p.x >= x && p.x <= x2() && p.y >= y && p.y <= y2();
  }

  /// Translate by a motion vector (optical-flow prediction).
  BBox shifted(Vec2 d) const { return {x + d.x, y + d.y, w, h}; }

  /// Grow by `margin` pixels on every side (tracking search region).
  BBox expanded(double margin) const {
    return {x - margin, y - margin, w + 2 * margin, h + 2 * margin};
  }

  /// Scale about the center.
  BBox scaled(double k) const {
    return from_center(center(), w * k, h * k);
  }

  /// Clamp to the image rectangle [0,W)x[0,H); may become empty.
  BBox clamped(double width, double height) const;
};

/// Intersection box (possibly empty).
BBox intersect(const BBox& a, const BBox& b);

/// Intersection-over-union in [0, 1].
double iou(const BBox& a, const BBox& b);

/// Intersection area divided by area of `a` ("how much of a is inside b").
double coverage(const BBox& a, const BBox& b);

}  // namespace mvs::geom
