#include "geometry/bbox.hpp"

namespace mvs::geom {

BBox BBox::clamped(double width, double height) const {
  const double nx0 = std::clamp(x, 0.0, width);
  const double ny0 = std::clamp(y, 0.0, height);
  const double nx1 = std::clamp(x2(), 0.0, width);
  const double ny1 = std::clamp(y2(), 0.0, height);
  return {nx0, ny0, std::max(0.0, nx1 - nx0), std::max(0.0, ny1 - ny0)};
}

BBox intersect(const BBox& a, const BBox& b) {
  const double x0 = std::max(a.x, b.x);
  const double y0 = std::max(a.y, b.y);
  const double x1 = std::min(a.x2(), b.x2());
  const double y1 = std::min(a.y2(), b.y2());
  if (x1 <= x0 || y1 <= y0) return {};
  return {x0, y0, x1 - x0, y1 - y0};
}

double iou(const BBox& a, const BBox& b) {
  const double inter = intersect(a, b).area();
  if (inter <= 0.0) return 0.0;
  const double uni = a.area() + b.area() - inter;
  return uni > 0.0 ? inter / uni : 0.0;
}

double coverage(const BBox& a, const BBox& b) {
  const double area = a.area();
  if (area <= 0.0) return 0.0;
  return intersect(a, b).area() / area;
}

}  // namespace mvs::geom
