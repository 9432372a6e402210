#include "vision/regions.hpp"

#include <algorithm>

namespace mvs::vision {

void extract_new_regions_into(const FlowField& field,
                              const std::vector<geom::BBox>& predicted,
                              double scale, const NewRegionConfig& cfg,
                              RegionScratch& scratch,
                              std::vector<geom::BBox>& out) {
  out.clear();
  const int cols = field.cols, rows = field.rows;
  scratch.moving.assign(static_cast<std::size_t>(cols) *
                            static_cast<std::size_t>(rows),
                        0);
  std::vector<char>& moving = scratch.moving;
  auto idx = [cols](int c, int r) {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c);
  };

  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (field.at(c, r).norm() < cfg.motion_threshold) continue;
      const geom::Vec2 center{(c + 0.5) * field.block_size,
                              (r + 0.5) * field.block_size};
      bool explained = false;
      for (const geom::BBox& box : predicted) {
        // Predicted boxes are in logical-frame pixels; compare in flow space.
        const geom::BBox flow_box{box.x / scale, box.y / scale, box.w / scale,
                                  box.h / scale};
        if (flow_box.expanded(field.block_size).contains(center)) {
          explained = true;
          break;
        }
      }
      if (!explained) moving[idx(c, r)] = 1;
    }
  }

  // 4-connected components over moving blocks -> merged boxes. The frontier
  // is a LIFO stack; traversal order differs from a BFS queue but the
  // component membership (and therefore every output box) is identical, and
  // regions are still emitted in first-seen scan order.
  scratch.seen.assign(moving.size(), 0);
  std::vector<char>& seen = scratch.seen;
  std::vector<std::pair<int, int>>& frontier = scratch.frontier;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (!moving[idx(c, r)] || seen[idx(c, r)]) continue;
      int min_c = c, max_c = c, min_r = r, max_r = r;
      frontier.clear();
      frontier.push_back({c, r});
      seen[idx(c, r)] = 1;
      while (!frontier.empty()) {
        const auto [cc, cr] = frontier.back();
        frontier.pop_back();
        min_c = std::min(min_c, cc);
        max_c = std::max(max_c, cc);
        min_r = std::min(min_r, cr);
        max_r = std::max(max_r, cr);
        const int d4[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
        for (const auto& d : d4) {
          const int nc = cc + d[0], nr = cr + d[1];
          if (nc < 0 || nr < 0 || nc >= cols || nr >= rows) continue;
          if (!moving[idx(nc, nr)] || seen[idx(nc, nr)]) continue;
          seen[idx(nc, nr)] = 1;
          frontier.push_back({nc, nr});
        }
      }
      const double bs = field.block_size;
      geom::BBox box = geom::BBox::from_corners(
          min_c * bs, min_r * bs, (max_c + 1) * bs, (max_r + 1) * bs);
      box = box.expanded(cfg.merge_margin);
      // Map from flow space back to logical-frame pixels.
      box = geom::BBox{box.x * scale, box.y * scale, box.w * scale,
                       box.h * scale};
      if (box.area() >= cfg.min_area) out.push_back(box);
    }
  }
}

void slice_regions_into(
    const std::vector<std::pair<long, geom::BBox>>& predicted,
    const geom::SizeClassSet& sizes, double frame_w, double frame_h,
    double margin, std::vector<SliceRegion>& out) {
  out.clear();
  out.reserve(predicted.size());
  for (const auto& [track_id, box] : predicted) {
    SliceRegion region;
    region.track_id = track_id;
    region.size_class = sizes.quantize(box, margin);
    region.roi =
        sizes.expand_to_class(box, region.size_class).clamped(frame_w, frame_h);
    out.push_back(region);
  }
}

}  // namespace mvs::vision
