#include <gtest/gtest.h>

#include "gpu/batch_planner.hpp"
#include "gpu/device_profile.hpp"

namespace mvs::gpu {
namespace {

TEST(DeviceProfile, JetsonProfilesValid) {
  for (const DeviceProfile& d : {jetson_xavier(), jetson_tx2(), jetson_nano()}) {
    EXPECT_GT(d.full_frame_ms(), 0.0);
    EXPECT_EQ(d.size_class_count(), 4u);
    for (geom::SizeClassId s = 0; s < 4; ++s) {
      EXPECT_GE(d.batch_limit(s), 1);
      EXPECT_GT(d.batch_latency_ms(s), 0.0);
    }
  }
}

TEST(DeviceProfile, HeterogeneityOrdering) {
  // Xavier is strictly faster than TX2, which is faster than Nano.
  const DeviceProfile xavier = jetson_xavier(), tx2 = jetson_tx2(),
                      nano = jetson_nano();
  EXPECT_LT(xavier.full_frame_ms(), tx2.full_frame_ms());
  EXPECT_LT(tx2.full_frame_ms(), nano.full_frame_ms());
  for (geom::SizeClassId s = 0; s < 4; ++s) {
    EXPECT_LE(xavier.batch_latency_ms(s), tx2.batch_latency_ms(s));
    EXPECT_GE(xavier.batch_limit(s), tx2.batch_limit(s));
  }
  EXPECT_GT(xavier.relative_power(), nano.relative_power());
}

TEST(DeviceProfile, LargerSizesSlower) {
  const DeviceProfile d = jetson_tx2();
  for (geom::SizeClassId s = 0; s + 1 < 4; ++s) {
    EXPECT_LT(d.batch_latency_ms(s), d.batch_latency_ms(s + 1));
    EXPECT_GE(d.batch_limit(s), d.batch_limit(s + 1));
  }
}

TEST(DeviceProfile, ActualLatencySubLinearInFill) {
  const DeviceProfile d = jetson_xavier();
  const geom::SizeClassId s = 1;
  const int limit = d.batch_limit(s);
  // Full batch costs exactly t_i^s; partial batches cost less but more than
  // the 60% floor.
  EXPECT_DOUBLE_EQ(d.actual_batch_latency_ms(s, limit), d.batch_latency_ms(s));
  EXPECT_LT(d.actual_batch_latency_ms(s, 1), d.batch_latency_ms(s));
  EXPECT_GT(d.actual_batch_latency_ms(s, 1), 0.5 * d.batch_latency_ms(s));
  // Monotone in count.
  for (int b = 1; b < limit; ++b)
    EXPECT_LT(d.actual_batch_latency_ms(s, b),
              d.actual_batch_latency_ms(s, b + 1));
}

TEST(BatchPlanner, EmptyTasks) {
  const BatchPlan plan = plan_batches({}, jetson_nano());
  EXPECT_TRUE(plan.batches.empty());
  EXPECT_DOUBLE_EQ(plan.planned_latency_ms, 0.0);
}

TEST(BatchPlanner, SingleTask) {
  const DeviceProfile d = jetson_tx2();
  const BatchPlan plan = plan_batches({2}, d);
  ASSERT_EQ(plan.batches.size(), 1u);
  EXPECT_EQ(plan.batches[0].count, 1);
  EXPECT_DOUBLE_EQ(plan.planned_latency_ms, d.batch_latency_ms(2));
}

TEST(BatchPlanner, FillsBatchBeforeOpeningNew) {
  const DeviceProfile d = jetson_tx2();  // limit(size 0) == 16
  std::vector<geom::SizeClassId> tasks(16, 0);
  const BatchPlan one = plan_batches(tasks, d);
  EXPECT_EQ(one.batches.size(), 1u);
  tasks.push_back(0);
  const BatchPlan two = plan_batches(tasks, d);
  EXPECT_EQ(two.batches.size(), 2u);
  EXPECT_DOUBLE_EQ(two.planned_latency_ms, 2 * d.batch_latency_ms(0));
}

TEST(BatchPlanner, MixedSizesBatchedSeparately) {
  const DeviceProfile d = jetson_xavier();
  const BatchPlan plan = plan_batches({0, 1, 0, 1, 2}, d);
  // 2x size0 (one batch), 2x size1 (one batch), 1x size2 (one batch).
  EXPECT_EQ(plan.batches.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.planned_latency_ms,
                   d.batch_latency_ms(0) + d.batch_latency_ms(1) +
                       d.batch_latency_ms(2));
}

TEST(BatchPlanner, ActualNeverExceedsPlanned) {
  const DeviceProfile d = jetson_nano();
  const BatchPlan plan = plan_batches({0, 0, 0, 1, 2, 3, 3}, d);
  EXPECT_LE(plan.actual_latency_ms, plan.planned_latency_ms + 1e-9);
  EXPECT_GT(plan.actual_latency_ms, 0.0);
}

/// Parameterized sweep: batch count is always ceil(n / limit).
class BatchCount : public ::testing::TestWithParam<int> {};

TEST_P(BatchCount, CeilDivision) {
  const int n = GetParam();
  const DeviceProfile d = jetson_tx2();
  for (geom::SizeClassId s = 0; s < 4; ++s) {
    const std::vector<geom::SizeClassId> tasks(static_cast<std::size_t>(n), s);
    const BatchPlan plan = plan_batches(tasks, d);
    const int limit = d.batch_limit(s);
    const int expected = (n + limit - 1) / limit;
    EXPECT_EQ(static_cast<int>(plan.batches.size()), expected);
    // Every batch within the limit, total count preserved.
    int total = 0;
    for (const Batch& b : plan.batches) {
      EXPECT_LE(b.count, limit);
      EXPECT_GE(b.count, 1);
      total += b.count;
    }
    EXPECT_EQ(total, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, BatchCount,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 17, 31,
                                           32, 33, 100));

}  // namespace
}  // namespace mvs::gpu
