#include "matching/bbox_matcher.hpp"

namespace mvs::matching {

void match_boxes_into(const std::vector<geom::BBox>& a,
                      const std::vector<geom::BBox>& b, double min_iou,
                      BoxMatchScratch& scratch, BoxMatchResult& out) {
  out.matches.clear();
  out.unmatched_a.clear();
  out.unmatched_b.clear();
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  scratch.cost.assign(rows * cols, kForbiddenCost);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = geom::iou(a[r], b[c]);
      if (v >= min_iou) scratch.cost[r * cols + c] = 1.0 - v;  // maximize IoU
    }
  }
  solve_assignment_into(scratch.cost, rows, cols, scratch.solver,
                        scratch.assign);
  const AssignmentResult& res = scratch.assign;
  for (std::size_t r = 0; r < rows; ++r) {
    if (res.row_to_col[r] >= 0) {
      const int c = res.row_to_col[r];
      out.matches.push_back(
          {static_cast<int>(r), c, geom::iou(a[r], b[static_cast<std::size_t>(c)])});
    } else {
      out.unmatched_a.push_back(static_cast<int>(r));
    }
  }
  for (std::size_t c = 0; c < cols; ++c)
    if (res.col_to_row[c] < 0) out.unmatched_b.push_back(static_cast<int>(c));
}

}  // namespace mvs::matching
