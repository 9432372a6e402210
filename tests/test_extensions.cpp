#include <gtest/gtest.h>

#include "core/central_balb.hpp"
#include "core/extensions.hpp"
#include "core/offload.hpp"
#include "sim/occlusion.hpp"
#include "util/rng.hpp"

namespace mvs {
namespace {

core::ObjectSpec object(std::uint64_t key, std::vector<int> coverage,
                        geom::SizeClassId size, std::size_t cameras) {
  core::ObjectSpec obj;
  obj.key = key;
  obj.coverage = std::move(coverage);
  obj.size_class.assign(cameras, size);
  return obj;
}

core::MvsProblem random_problem(util::Rng& rng, int n) {
  core::MvsProblem p;
  p.cameras = {gpu::jetson_xavier(), gpu::jetson_tx2(), gpu::jetson_nano()};
  for (int j = 0; j < n; ++j) {
    std::vector<int> coverage;
    for (int c = 0; c < 3; ++c)
      if (rng.bernoulli(0.6)) coverage.push_back(c);
    if (coverage.empty()) coverage.push_back(rng.uniform_int(0, 2));
    p.objects.push_back(object(static_cast<std::uint64_t>(j),
                               std::move(coverage), rng.uniform_int(0, 3), 3));
  }
  return p;
}

TEST(RedundantBalb, KOneMatchesSinglePassSemantics) {
  util::Rng rng(1);
  const core::MvsProblem p = random_problem(rng, 15);
  const core::Assignment single = core::redundant_balb(p, {1});
  EXPECT_TRUE(core::is_feasible(p, single));
  for (std::size_t j = 0; j < p.object_count(); ++j) {
    int trackers = 0;
    for (std::size_t i = 0; i < 3; ++i) trackers += single.x[i][j];
    EXPECT_EQ(trackers, 1);
  }
}

TEST(RedundantBalb, KTwoDoublesCoverageWherePossible) {
  util::Rng rng(2);
  const core::MvsProblem p = random_problem(rng, 20);
  const core::Assignment redundant = core::redundant_balb(p, {2});
  EXPECT_TRUE(core::is_feasible(p, redundant));
  for (std::size_t j = 0; j < p.object_count(); ++j) {
    int trackers = 0;
    for (std::size_t i = 0; i < 3; ++i) trackers += redundant.x[i][j];
    const int expected = std::min<int>(2, static_cast<int>(p.objects[j].coverage.size()));
    EXPECT_EQ(trackers, expected) << "object " << j;
  }
}

TEST(RedundantBalb, MoreRedundancyCostsMoreLatency) {
  util::Rng rng(3);
  const core::MvsProblem p = random_problem(rng, 25);
  const double l1 = core::redundant_balb(p, {1}).system_latency();
  const double l2 = core::redundant_balb(p, {2}).system_latency();
  const double l3 = core::redundant_balb(p, {3}).system_latency();
  EXPECT_LE(l1, l2 + 1e-9);
  EXPECT_LE(l2, l3 + 1e-9);
}

TEST(RedundantBalb, NeverAssignsOutsideCoverage) {
  util::Rng rng(4);
  const core::MvsProblem p = random_problem(rng, 30);
  const core::Assignment a = core::redundant_balb(p, {3});
  EXPECT_TRUE(core::is_feasible(p, a));  // feasibility checks condition (2)
}

TEST(QualityAwareBalb, PrefersHighQualityWithinSlack) {
  core::MvsProblem p;
  // Two identical cameras: pure latency balancing would pick either; the
  // quality matrix must break the tie toward camera 1.
  const gpu::DeviceProfile dev("a", 50.0, {{8, 10.0}});
  const gpu::DeviceProfile dev2("b", 50.0, {{8, 10.0}});
  p.cameras = {dev, dev2};
  p.objects = {object(0, {0, 1}, 0, 2)};
  const std::vector<std::vector<double>> quality = {{0.2, 0.9}};
  const core::Assignment a =
      core::quality_aware_balb(p, quality, {0.15});
  EXPECT_TRUE(a.x[1][0]);
}

TEST(QualityAwareBalb, SlackBoundsLatencyRegression) {
  util::Rng rng(5);
  const core::MvsProblem p = random_problem(rng, 25);
  // Quality = inverse camera index (prefers xavier) — but any matrix works.
  std::vector<std::vector<double>> quality(p.object_count(),
                                           std::vector<double>(3));
  for (auto& row : quality)
    for (std::size_t i = 0; i < 3; ++i) row[i] = rng.uniform(0, 1);

  const double base = core::central_balb(p).system_latency();
  const core::Assignment q = core::quality_aware_balb(p, quality, {0.15});
  EXPECT_TRUE(core::is_feasible(p, q));
  // Quality choice is slack-bounded per step; system latency stays within a
  // reasonable multiple of the latency-only schedule.
  EXPECT_LE(q.system_latency(), 1.8 * base);
}

TEST(QualityAwareBalb, ZeroSlackMatchesLatencyGreedy) {
  util::Rng rng(6);
  const core::MvsProblem p = random_problem(rng, 20);
  std::vector<std::vector<double>> quality(p.object_count(),
                                           std::vector<double>(3, 1.0));
  const core::Assignment q = core::quality_aware_balb(p, quality, {0.0});
  EXPECT_TRUE(core::is_feasible(p, q));
}

TEST(QualityAwareBalb, MeanQualityImprovesOnAverage) {
  // Quality awareness is greedy per decision, so a single instance can lose
  // to the latency-only schedule through batching side effects; averaged
  // over instances it must win clearly.
  util::Rng rng(7);
  double aware_total = 0.0, blind_total = 0.0;
  for (int trial = 0; trial < 25; ++trial) {
    const core::MvsProblem p = random_problem(rng, 30);
    std::vector<std::vector<double>> quality(p.object_count(),
                                             std::vector<double>(3));
    for (auto& row : quality)
      for (std::size_t i = 0; i < 3; ++i) row[i] = rng.uniform(0, 1);
    const core::Assignment latency_only = core::central_balb(p);
    const core::Assignment quality_aware =
        core::quality_aware_balb(p, quality, {0.3});
    aware_total += core::mean_assignment_quality(p, quality_aware, quality);
    blind_total += core::mean_assignment_quality(p, latency_only, quality);
  }
  EXPECT_GT(aware_total, blind_total);
}

detect::GroundTruthObject gt(std::uint64_t id, geom::BBox box, double dist) {
  detect::GroundTruthObject obj;
  obj.id = id;
  obj.box = box;
  obj.distance_m = dist;
  return obj;
}

TEST(Occlusion, CloserObjectHides) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0),   // closer, big
      gt(2, {110, 110, 30, 30}, 30.0),   // fully inside 1's box, farther
  };
  std::vector<detect::GroundTruthObject> visible = objs;
  sim::apply_occlusion_inplace(visible, {0.6, true});
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0].id, 1u);
  const auto events = sim::occlusion_events(objs, {0.6, true});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].occluded_id, 2u);
  EXPECT_EQ(events[0].occluder_id, 1u);
  EXPECT_GT(events[0].covered_fraction, 0.99);
}

TEST(Occlusion, FartherObjectCannotOcclude) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 40.0),
      gt(2, {110, 110, 30, 30}, 10.0),  // closer small object, not hidden
  };
  std::vector<detect::GroundTruthObject> visible = objs;
  sim::apply_occlusion_inplace(visible, {0.6, true});
  EXPECT_EQ(visible.size(), 2u);
}

TEST(Occlusion, PartialOverlapBelowThresholdKept) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0),
      gt(2, {140, 140, 50, 50}, 30.0),  // ~4% covered
  };
  std::vector<detect::GroundTruthObject> visible = objs;
  sim::apply_occlusion_inplace(visible, {0.6, true});
  EXPECT_EQ(visible.size(), 2u);
}

TEST(Occlusion, DisabledIsIdentity) {
  const std::vector<detect::GroundTruthObject> objs = {
      gt(1, {100, 100, 50, 50}, 10.0), gt(2, {110, 110, 30, 30}, 30.0)};
  std::vector<detect::GroundTruthObject> visible = objs;
  sim::apply_occlusion_inplace(visible, {0.6, false});
  EXPECT_EQ(visible.size(), 2u);
}

TEST(ViewSelection, SingleCameraCoversAll) {
  core::ViewSelectionProblem p;
  p.objects_per_camera = {{1, 2, 3}, {1, 2}};
  p.upload_cost = {10.0, 8.0};
  const auto sel = core::select_views_greedy(p);
  EXPECT_EQ(sel.cameras, (std::vector<int>{0}));
  EXPECT_DOUBLE_EQ(sel.total_cost, 10.0);
  EXPECT_EQ(sel.covered, 3u);
}

TEST(ViewSelection, PrefersCheapCoverage) {
  core::ViewSelectionProblem p;
  p.objects_per_camera = {{1, 2}, {3, 4}, {1, 2, 3, 4}};
  p.upload_cost = {1.0, 1.0, 10.0};
  const auto sel = core::select_views_greedy(p);
  EXPECT_EQ(sel.cameras, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(sel.total_cost, 2.0);
}

TEST(ViewSelection, EmptyProblem) {
  core::ViewSelectionProblem p;
  const auto sel = core::select_views_greedy(p);
  EXPECT_TRUE(sel.cameras.empty());
  EXPECT_EQ(sel.total_objects, 0u);
}

TEST(ViewSelection, OptimalMatchesSmallCase) {
  core::ViewSelectionProblem p;
  p.objects_per_camera = {{1, 2}, {2, 3}, {1, 3}};
  p.upload_cost = {3.0, 3.0, 3.0};
  const auto best = core::select_views_optimal(p);
  EXPECT_EQ(best.cameras.size(), 2u);
  EXPECT_DOUBLE_EQ(best.total_cost, 6.0);
}

/// Greedy set cover never exceeds the H(n)-approximation bound (and on our
/// random instances is usually much closer).
class GreedyCoverGap : public ::testing::TestWithParam<int> {};

TEST_P(GreedyCoverGap, WithinLogFactor) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 11 + 1);
  core::ViewSelectionProblem p;
  const std::size_t m = 6;
  const int objects = 12;
  p.objects_per_camera.resize(m);
  p.upload_cost.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    p.upload_cost[i] = rng.uniform(1.0, 10.0);
    for (int o = 0; o < objects; ++o)
      if (rng.bernoulli(0.4))
        p.objects_per_camera[i].push_back(static_cast<std::uint64_t>(o));
  }
  const auto greedy = core::select_views_greedy(p);
  const auto optimal = core::select_views_optimal(p);
  if (optimal.cameras.empty()) return;  // nothing coverable
  EXPECT_LE(greedy.total_cost, 3.2 * optimal.total_cost);  // ~H(12) bound
  EXPECT_EQ(greedy.covered, optimal.covered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyCoverGap, ::testing::Range(0, 12));

}  // namespace
}  // namespace mvs
