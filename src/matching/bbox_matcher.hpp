#pragma once
// IoU-based bipartite box matching built on the Hungarian solver.
// Maximizes total IoU subject to a minimum-IoU threshold per pair.

#include <vector>

#include "geometry/bbox.hpp"
#include "matching/hungarian.hpp"

namespace mvs::matching {

struct BoxMatch {
  int a = -1;        ///< index into the first box list
  int b = -1;        ///< index into the second box list
  double iou = 0.0;  ///< IoU of the matched pair
};

struct BoxMatchResult {
  std::vector<BoxMatch> matches;
  std::vector<int> unmatched_a;
  std::vector<int> unmatched_b;
};

/// Reusable working memory for match_boxes_into: the cost matrix, the raw
/// assignment output, and the Hungarian solver's internals. One per caller
/// makes repeated matching allocation-free once warm (DESIGN.md §11).
struct BoxMatchScratch {
  std::vector<double> cost;
  AssignmentResult assign;
  AssignScratch solver;
};

/// Optimal (max total IoU) matching; pairs with IoU < min_iou are forbidden.
/// Caller-owned scratch and output (cleared first): allocation-free once
/// warm.
void match_boxes_into(const std::vector<geom::BBox>& a,
                      const std::vector<geom::BBox>& b, double min_iou,
                      BoxMatchScratch& scratch, BoxMatchResult& out);

}  // namespace mvs::matching
