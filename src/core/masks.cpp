#include "core/masks.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "core/baselines.hpp"

namespace mvs::core {

CameraMasks::CameraMasks(std::vector<geom::Grid> grids,
                         std::vector<std::vector<char>> owner)
    : grids_(std::move(grids)), owner_(std::move(owner)) {
  assert(grids_.size() == owner_.size());
}

bool CameraMasks::owns(int cam, geom::Vec2 point) const {
  const geom::Grid& grid = grids_[static_cast<std::size_t>(cam)];
  const std::size_t flat = grid.flat(grid.cell_at(point));
  return owner_[static_cast<std::size_t>(cam)][flat] != 0;
}

namespace {

template <typename OwnerRule>
CameraMasks build_masks(const std::vector<std::pair<int, int>>& frame_dims,
                        int cell_size, const CellCoverageFn& coverage,
                        OwnerRule&& rule) {
  std::vector<geom::Grid> grids;
  std::vector<std::vector<char>> owner;
  grids.reserve(frame_dims.size());
  for (std::size_t cam = 0; cam < frame_dims.size(); ++cam) {
    grids.emplace_back(frame_dims[cam].first, frame_dims[cam].second,
                       cell_size);
    const geom::Grid& grid = grids.back();
    std::vector<char> cells(grid.cell_count(), 0);
    for (int r = 0; r < grid.rows(); ++r) {
      for (int c = 0; c < grid.cols(); ++c) {
        const geom::CellIndex cell{c, r};
        const geom::Vec2 center = grid.cell_box(cell).center();
        std::vector<int> cover = coverage(static_cast<int>(cam), center);
        if (std::find(cover.begin(), cover.end(), static_cast<int>(cam)) ==
            cover.end())
          cover.push_back(static_cast<int>(cam));
        cells[grid.flat(cell)] =
            rule(static_cast<int>(cam), center, cover) ? 1 : 0;
      }
    }
    owner.push_back(std::move(cells));
  }
  return CameraMasks(std::move(grids), std::move(owner));
}

}  // namespace

CameraMasks build_priority_masks(
    const std::vector<std::pair<int, int>>& frame_dims, int cell_size,
    const CellCoverageFn& coverage, const std::vector<int>& priority_order) {
  // Cameras missing from the order (e.g. dropped out of the deployment for
  // this horizon) rank last, so every contested cell falls to a listed
  // camera; a cell covered by no listed camera keeps its first coverer as
  // owner, which is inert — an unlisted camera never inspects.
  constexpr int kUnlisted = std::numeric_limits<int>::max();
  std::vector<int> rank(frame_dims.size(), kUnlisted);
  for (std::size_t pos = 0; pos < priority_order.size(); ++pos)
    rank[static_cast<std::size_t>(priority_order[pos])] =
        static_cast<int>(pos);

  return build_masks(
      frame_dims, cell_size, coverage,
      [&rank](int cam, geom::Vec2 /*center*/, const std::vector<int>& cover) {
        int best = cover.front();
        for (int c : cover)
          if (rank[static_cast<std::size_t>(c)] <
              rank[static_cast<std::size_t>(best)])
            best = c;
        return best == cam;
      });
}

CameraMasks build_power_weighted_masks(
    const std::vector<std::pair<int, int>>& frame_dims, int cell_size,
    const CellCoverageFn& coverage, const RegionKeyFn& region_key,
    const std::vector<gpu::DeviceProfile>& cameras) {
  return build_masks(frame_dims, cell_size, coverage,
                     [&](int cam, geom::Vec2 center,
                         const std::vector<int>& cover) {
                       std::vector<int> sorted = cover;
                       std::sort(sorted.begin(), sorted.end());
                       const int owner = power_weighted_owner(
                           sorted, cameras, region_key(cam, center));
                       return owner == cam;
                     });
}

}  // namespace mvs::core
