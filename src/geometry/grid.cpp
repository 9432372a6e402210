#include "geometry/grid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mvs::geom {

Grid::Grid(int width, int height, int cell_size)
    : width_(width), height_(height), cell_(cell_size) {
  assert(width > 0 && height > 0 && cell_size > 0);
  cols_ = (width + cell_size - 1) / cell_size;
  rows_ = (height + cell_size - 1) / cell_size;
}

CellIndex Grid::cell_at(Vec2 p) const {
  const double cx = std::clamp(p.x, 0.0, static_cast<double>(width_ - 1));
  const double cy = std::clamp(p.y, 0.0, static_cast<double>(height_ - 1));
  return {static_cast<int>(cx) / cell_, static_cast<int>(cy) / cell_};
}

BBox Grid::cell_box(CellIndex c) const {
  const double x0 = static_cast<double>(c.col * cell_);
  const double y0 = static_cast<double>(c.row * cell_);
  const double x1 = std::min(static_cast<double>((c.col + 1) * cell_),
                             static_cast<double>(width_));
  const double y1 = std::min(static_cast<double>((c.row + 1) * cell_),
                             static_cast<double>(height_));
  return BBox::from_corners(x0, y0, x1, y1);
}

}  // namespace mvs::geom
