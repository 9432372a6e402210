#include <gtest/gtest.h>

#include <algorithm>

#include "detect/simulated_detector.hpp"
#include "util/rng.hpp"

namespace mvs::detect {
namespace {

GroundTruthObject make_object(std::uint64_t id, geom::BBox box) {
  GroundTruthObject obj;
  obj.id = id;
  obj.box = box;
  return obj;
}

long count_truth(const std::vector<Detection>& dets, std::uint64_t truth) {
  return std::count_if(dets.begin(), dets.end(), [truth](const Detection& d) {
    return d.truth_id == truth;
  });
}

TEST(SimulatedDetector, DetectsLargeObjectsReliably) {
  SimulatedDetector detector;
  util::Rng rng(1);
  int hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto dets = detector.detect_full(
        {make_object(1, {100, 100, 80, 60})}, 1280, 704, rng);
    for (const Detection& d : dets)
      if (d.truth_id == 1) ++hits;
  }
  EXPECT_GE(hits, 190);
}

TEST(SimulatedDetector, MissesTinyObjectsOften) {
  SimulatedDetector detector;
  util::Rng rng(2);
  int hits = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto dets = detector.detect_full(
        {make_object(1, {100, 100, 5, 5})}, 1280, 704, rng);
    for (const Detection& d : dets)
      if (d.truth_id == 1) ++hits;
  }
  EXPECT_LE(hits, 120);  // clearly degraded vs large objects
}

TEST(SimulatedDetector, BoxNoiseBounded) {
  SimulatedDetector detector;
  util::Rng rng(3);
  const geom::BBox truth{200, 200, 60, 40};
  for (int trial = 0; trial < 100; ++trial) {
    const auto dets =
        detector.detect_full({make_object(1, truth)}, 1280, 704, rng);
    for (const Detection& d : dets) {
      if (d.truth_id != 1) continue;
      EXPECT_GT(geom::iou(d.box, truth), 0.6);
    }
  }
}

TEST(SimulatedDetector, RoiGatesByCoverage) {
  SimulatedDetector detector;
  util::Rng rng(4);
  const auto obj = make_object(1, {100, 100, 40, 40});
  // ROI far away: never detected.
  std::vector<Detection> far;
  for (int trial = 0; trial < 50; ++trial)
    detector.detect_roi_append({obj}, {500, 500, 128, 128}, 128, rng, far);
  EXPECT_EQ(count_truth(far, 1), 0);
  // ROI covering the object: detected almost always.
  std::vector<Detection> covering;
  for (int trial = 0; trial < 200; ++trial)
    detector.detect_roi_append({obj}, {80, 80, 128, 128}, 128, rng, covering);
  EXPECT_GE(count_truth(covering, 1), 180);
}

TEST(SimulatedDetector, DownsamplingHurtsRecall) {
  SimulatedDetector detector;
  util::Rng rng(5);
  const auto obj = make_object(1, {120, 120, 24, 24});
  const geom::BBox roi{64, 64, 512, 512};
  std::vector<Detection> native, downsampled;
  for (int trial = 0; trial < 300; ++trial) {
    detector.detect_roi_append({obj}, roi, 512, rng, native);
    detector.detect_roi_append({obj}, roi, 64, rng, downsampled);
  }
  EXPECT_GT(count_truth(native, 1), count_truth(downsampled, 1) + 30);
}

TEST(SimulatedDetector, DeterministicGivenSeed) {
  SimulatedDetector detector;
  const auto objs = std::vector<GroundTruthObject>{
      make_object(1, {10, 10, 50, 50}), make_object(2, {300, 200, 40, 30})};
  util::Rng a(42), b(42);
  const auto da = detector.detect_full(objs, 1280, 704, a);
  const auto db = detector.detect_full(objs, 1280, 704, b);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_DOUBLE_EQ(da[i].box.x, db[i].box.x);
    EXPECT_DOUBLE_EQ(da[i].score, db[i].score);
  }
}

TEST(SimulatedDetector, FalsePositivesAreMarked) {
  SimulatedDetector::Config cfg;
  cfg.false_positive_rate = 1.0;  // force an FP per region
  SimulatedDetector detector(cfg);
  util::Rng rng(6);
  const auto dets = detector.detect_full({}, 1280, 704, rng);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(dets[0].truth_id, Detection::kFalsePositive);
  EXPECT_LE(dets[0].box.x2(), 1280.0);
}

TEST(SimulatedDetector, TruncatedObjectsMissedMore) {
  SimulatedDetector detector;
  util::Rng rng(7);
  const auto obj = make_object(1, {100, 100, 40, 40});
  std::vector<Detection> full_cov, truncated;
  for (int trial = 0; trial < 300; ++trial) {
    // ROI fully covers the object.
    detector.detect_roi_append({obj}, {80, 80, 128, 128}, 128, rng, full_cov);
    // ROI covers ~55% of the object (just above the gate).
    detector.detect_roi_append({obj}, {118, 100, 128, 128}, 128, rng,
                               truncated);
  }
  EXPECT_GT(count_truth(full_cov, 1), count_truth(truncated, 1));
}

}  // namespace
}  // namespace mvs::detect
