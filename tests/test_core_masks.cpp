#include <gtest/gtest.h>

#include "core/distributed.hpp"
#include "core/masks.hpp"

namespace mvs::core {
namespace {

/// Synthetic deployment: two 200x100 cameras; the right half of camera 0 and
/// the left half of camera 1 observe the same world region (an "overlap").
std::vector<std::pair<int, int>> dims() { return {{200, 100}, {200, 100}}; }

CellCoverageFn half_overlap_coverage() {
  return [](int cam, geom::Vec2 center) -> std::vector<int> {
    const bool overlap = (cam == 0) ? center.x >= 100.0 : center.x < 100.0;
    if (overlap) return {0, 1};
    return {cam};
  };
}

RegionKeyFn mirror_region_key() {
  // Consistent world key: overlap cells map to a shared coordinate frame.
  return [](int cam, geom::Vec2 center) -> std::uint64_t {
    double wx = (cam == 0) ? center.x : center.x + 100.0;
    return static_cast<std::uint64_t>(wx / 20.0) * 131 +
           static_cast<std::uint64_t>(center.y / 20.0);
  };
}

TEST(PriorityMasks, ExclusiveCellsAlwaysOwned) {
  const CameraMasks masks =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {1, 0});
  // Camera 0's left half is exclusive: owned regardless of priority.
  EXPECT_TRUE(masks.owns(0, {10, 10}));
  EXPECT_TRUE(masks.owns(1, {150, 50}));
}

TEST(PriorityMasks, OverlapGoesToHigherPriority) {
  // Priority: camera 1 first.
  const CameraMasks masks =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {1, 0});
  EXPECT_FALSE(masks.owns(0, {150, 50}));  // overlap cell on cam 0
  EXPECT_TRUE(masks.owns(1, {50, 50}));    // overlap cell on cam 1

  // Flip priority.
  const CameraMasks flipped =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {0, 1});
  EXPECT_TRUE(flipped.owns(0, {150, 50}));
  EXPECT_FALSE(flipped.owns(1, {50, 50}));
}

TEST(PowerWeightedMasks, ProportionalSplit) {
  const std::vector<gpu::DeviceProfile> cams = {gpu::jetson_xavier(),
                                                gpu::jetson_nano()};
  const CameraMasks masks = build_power_weighted_masks(
      dims(), 10, half_overlap_coverage(), mirror_region_key(), cams);
  // Xavier's power share is ~86%: it must own most of the 100 overlap
  // cells, and Nano a minority of them (plus all of its exclusive half).
  int xavier_cells = 0, nano_cells = 0;
  for (double x = 105.0; x < 200.0; x += 10.0) {
    for (double y = 5.0; y < 100.0; y += 10.0) {
      xavier_cells += masks.owns(0, {x, y});        // overlap on cam 0
      nano_cells += masks.owns(1, {x - 100.0, y});  // same cell on cam 1
    }
  }
  EXPECT_GT(xavier_cells, 70);
  EXPECT_LT(nano_cells, 50);
  EXPECT_GT(nano_cells, 0);
  EXPECT_TRUE(masks.owns(1, {150, 50}));  // exclusive half
}

TEST(PowerWeightedMasks, ConsistentAcrossCameras) {
  // For the same world region (shared key), exactly one camera owns it.
  const std::vector<gpu::DeviceProfile> cams = {gpu::jetson_xavier(),
                                                gpu::jetson_nano()};
  const CameraMasks masks = build_power_weighted_masks(
      dims(), 20, half_overlap_coverage(), mirror_region_key(), cams);
  // Overlap point: world x in [100, 200) maps to cam0 x-100+100 and cam1 x.
  for (double wx = 105.0; wx < 195.0; wx += 20.0) {
    for (double y = 10.0; y < 100.0; y += 20.0) {
      const bool own0 = masks.owns(0, {wx, y});        // cam0 pixel = world
      const bool own1 = masks.owns(1, {wx - 100.0, y});  // cam1 pixel
      EXPECT_NE(own0, own1) << "world x=" << wx << " y=" << y;
    }
  }
}

TEST(DistributedStage, AdoptFollowsMask) {
  const CameraMasks masks =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {1, 0});
  DistributedStage stage(masks, {1, 0});
  ASSERT_TRUE(stage.valid());
  // New object in cam 0's exclusive half: adopt.
  EXPECT_TRUE(stage.should_adopt_new(0, geom::BBox{5, 5, 10, 10}));
  // New object in the overlap: cam 1 has priority.
  EXPECT_FALSE(stage.should_adopt_new(0, geom::BBox{150, 40, 10, 10}));
  EXPECT_TRUE(stage.should_adopt_new(1, geom::BBox{50, 40, 10, 10}));
}

TEST(DistributedStage, TakeoverPicksHighestPriority) {
  const CameraMasks masks =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {1, 0});
  DistributedStage stage(masks, {1, 0});
  EXPECT_EQ(stage.takeover_camera({0, 1}), 1);
  EXPECT_EQ(stage.takeover_camera({0}), 0);
  EXPECT_EQ(stage.takeover_camera({}), -1);
}

TEST(DistributedStage, PriorityRank) {
  const CameraMasks masks =
      build_priority_masks(dims(), 20, half_overlap_coverage(), {1, 0});
  DistributedStage stage(masks, {1, 0});
  EXPECT_EQ(stage.priority_rank(1), 0);
  EXPECT_EQ(stage.priority_rank(0), 1);
}

TEST(DistributedStage, DefaultInvalid) {
  DistributedStage stage;
  EXPECT_FALSE(stage.valid());
}

}  // namespace
}  // namespace mvs::core
