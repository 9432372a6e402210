#pragma once
// Pixel-cell grid used by the BALB distributed stage (paper Fig. 8).
//
// Each camera frame is divided into a grid of cells; per-cell coverage sets
// (which cameras can observe the world region behind the cell) are computed
// once per deployment, and the distributed stage assigns each cell to the
// highest-priority camera that covers it ("camera masks").

#include <cstddef>
#include <vector>

#include "geometry/bbox.hpp"

namespace mvs::geom {

struct CellIndex {
  int col = 0;
  int row = 0;
  bool operator==(const CellIndex&) const = default;
};

/// A uniform grid over a W x H pixel frame.
class Grid {
 public:
  /// cell_size: side of each square cell in pixels (last row/col may be
  /// truncated). width/height/cell_size must be > 0.
  Grid(int width, int height, int cell_size);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int cell_size() const { return cell_; }
  std::size_t cell_count() const {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  /// Cell containing a pixel point (clamped into range).
  CellIndex cell_at(Vec2 p) const;

  /// Flat index of a cell, row-major.
  std::size_t flat(CellIndex c) const {
    return static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c.col);
  }

  /// Pixel rectangle of a cell (clipped to the frame).
  BBox cell_box(CellIndex c) const;

 private:
  int width_, height_, cell_;
  int cols_, rows_;
};

}  // namespace mvs::geom
