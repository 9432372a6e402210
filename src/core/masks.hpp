#pragma once
// Camera masks for communication-free distributed scheduling
// (paper Sec. III-C2, Fig. 8).
//
// Each camera's frame is divided into grid cells; each cell has a coverage
// set (which cameras can observe the world region behind it, computed from
// the data-driven cross-camera models) and exactly one owner. Two ownership
// rules are provided:
//   - priority masks (BALB distributed stage): the cell goes to the
//     highest-priority camera in its coverage set, priority = ascending
//     central-stage latency;
//   - power-weighted masks (Static Partitioning baseline): overlap cells
//     are split offline in proportion to camera processing power, using a
//     deterministic region key so all cameras agree.

#include <functional>
#include <vector>

#include "geometry/grid.hpp"
#include "gpu/device_profile.hpp"

namespace mvs::core {

/// Coverage oracle: cameras (including `cam` itself) able to observe the
/// world region behind pixel `center` of camera `cam`'s frame.
using CellCoverageFn =
    std::function<std::vector<int>(int cam, geom::Vec2 center)>;

/// Region key oracle: a deterministic identifier of the *world* region
/// behind pixel `center` of camera `cam`, consistent across cameras (e.g. a
/// quantized position predicted on a canonical reference camera).
using RegionKeyFn = std::function<std::uint64_t(int cam, geom::Vec2 center)>;

class CameraMasks {
 public:
  CameraMasks() = default;
  CameraMasks(std::vector<geom::Grid> grids,
              std::vector<std::vector<char>> owner);

  /// Does camera `cam` own the cell containing `point` in its own frame?
  bool owns(int cam, geom::Vec2 point) const;

  const geom::Grid& grid(int cam) const {
    return grids_[static_cast<std::size_t>(cam)];
  }

  std::size_t camera_count() const { return grids_.size(); }

 private:
  std::vector<geom::Grid> grids_;
  std::vector<std::vector<char>> owner_;  ///< [cam][flat cell] in {0,1}
};

/// BALB distributed-stage masks: cell owner = highest-priority covering
/// camera. `priority_order` lists camera indices from highest priority
/// (lowest central-stage latency) to lowest.
CameraMasks build_priority_masks(
    const std::vector<std::pair<int, int>>& frame_dims, int cell_size,
    const CellCoverageFn& coverage, const std::vector<int>& priority_order);

/// Static Partitioning masks: overlap cells split in proportion to device
/// processing power using the deterministic region key.
CameraMasks build_power_weighted_masks(
    const std::vector<std::pair<int, int>>& frame_dims, int cell_size,
    const CellCoverageFn& coverage, const RegionKeyFn& region_key,
    const std::vector<gpu::DeviceProfile>& cameras);

}  // namespace mvs::core
