#include <gtest/gtest.h>

#include "metrics/metrics.hpp"

namespace mvs::metrics {
namespace {

detect::GroundTruthObject gt(std::uint64_t id, geom::BBox box) {
  detect::GroundTruthObject obj;
  obj.id = id;
  obj.box = box;
  return obj;
}

TEST(BinaryMetrics, CountsAndDerived) {
  BinaryMetrics m;
  m.add(true, true);    // tp
  m.add(true, true);    // tp
  m.add(true, false);   // fp
  m.add(false, true);   // fn
  m.add(false, false);  // tn
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.tn, 1u);
  EXPECT_NEAR(m.precision(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.recall(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.f1(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(m.total(), 5u);
}

TEST(BinaryMetrics, EmptyIsZero) {
  BinaryMetrics m;
  EXPECT_DOUBLE_EQ(m.precision(), 0.0);
  EXPECT_DOUBLE_EQ(m.recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(), 0.0);
}

TEST(ObjectRecall, PerfectTracking) {
  ObjectRecall recall(0.5);
  const std::vector<std::vector<detect::GroundTruthObject>> truth = {
      {gt(1, {0, 0, 20, 20})}, {gt(1, {100, 100, 30, 30})}};
  const std::vector<std::vector<geom::BBox>> reported = {
      {{1, 1, 20, 20}}, {}};
  EXPECT_DOUBLE_EQ(recall.add_frame(truth, reported), 1.0);
  EXPECT_DOUBLE_EQ(recall.recall(), 1.0);
}

TEST(ObjectRecall, AnyCameraSuffices) {
  // Object missed on camera 0 but localized on camera 1 -> still a TP.
  ObjectRecall recall(0.5);
  const std::vector<std::vector<detect::GroundTruthObject>> truth = {
      {gt(1, {0, 0, 20, 20})}, {gt(1, {100, 100, 30, 30})}};
  const std::vector<std::vector<geom::BBox>> reported = {
      {}, {{100, 100, 30, 30}}};
  EXPECT_DOUBLE_EQ(recall.add_frame(truth, reported), 1.0);
}

TEST(ObjectRecall, MissCounted) {
  ObjectRecall recall(0.5);
  const std::vector<std::vector<detect::GroundTruthObject>> truth = {
      {gt(1, {0, 0, 20, 20}), gt(2, {200, 200, 20, 20})}};
  const std::vector<std::vector<geom::BBox>> reported = {{{1, 1, 20, 20}}};
  EXPECT_DOUBLE_EQ(recall.add_frame(truth, reported), 0.5);
  EXPECT_EQ(recall.true_positives(), 1u);
  EXPECT_EQ(recall.ground_truth_total(), 2u);
}

TEST(ObjectRecall, IouThresholdEnforced) {
  ObjectRecall strict(0.9);
  const std::vector<std::vector<detect::GroundTruthObject>> truth = {
      {gt(1, {0, 0, 20, 20})}};
  // Offset box: IoU ~0.5, below the 0.9 bar.
  const std::vector<std::vector<geom::BBox>> reported = {{{5, 5, 20, 20}}};
  EXPECT_DOUBLE_EQ(strict.add_frame(truth, reported), 0.0);
}

TEST(ObjectRecall, EmptyFrameIsPerfect) {
  ObjectRecall recall(0.5);
  EXPECT_DOUBLE_EQ(recall.add_frame({{}, {}}, {{}, {}}), 1.0);
  EXPECT_DOUBLE_EQ(recall.recall(), 1.0);  // vacuous
}

TEST(ObjectRecall, AggregatesAcrossFrames) {
  ObjectRecall recall(0.5);
  const std::vector<std::vector<detect::GroundTruthObject>> truth = {
      {gt(1, {0, 0, 20, 20})}};
  recall.add_frame(truth, {{{0, 0, 20, 20}}});
  recall.add_frame(truth, {{}});
  EXPECT_DOUBLE_EQ(recall.recall(), 0.5);
}

}  // namespace
}  // namespace mvs::metrics
