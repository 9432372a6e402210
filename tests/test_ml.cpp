#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ml/decision_tree.hpp"
#include "ml/homography.hpp"
#include "ml/knn.hpp"
#include "ml/linear_model.hpp"
#include "ml/logistic.hpp"
#include "ml/ransac.hpp"
#include "ml/scaler.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace mvs::ml {
namespace {

/// Linearly separable 2-D blobs around (0,0) and (4,4).
void make_blobs(util::Rng& rng, int n, std::vector<Feature>& xs,
                std::vector<int>& ys) {
  for (int i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double cx = positive ? 4.0 : 0.0;
    xs.push_back({cx + rng.gaussian(0, 0.5), cx + rng.gaussian(0, 0.5)});
    ys.push_back(positive ? 1 : 0);
  }
}

double accuracy(const BinaryClassifier& model, const std::vector<Feature>& xs,
                const std::vector<int>& ys) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    correct += (model.predict(xs[i]) == (ys[i] == 1));
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  std::vector<Feature> xs = {{1, 10}, {2, 20}, {3, 30}};
  StandardScaler scaler;
  scaler.fit(xs);
  const auto t = scaler.transform_all(xs);
  double mean0 = 0, mean1 = 0;
  for (const Feature& x : t) {
    mean0 += x[0];
    mean1 += x[1];
  }
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(mean1, 0.0, 1e-12);
  EXPECT_NEAR(t[2][0], -t[0][0], 1e-12);
}

TEST(StandardScaler, ConstantDimensionSafe) {
  std::vector<Feature> xs = {{5, 1}, {5, 2}, {5, 3}};
  StandardScaler scaler;
  scaler.fit(xs);
  const Feature t = scaler.transform({5, 2});
  EXPECT_NEAR(t[0], 0.0, 1e-12);  // no division blow-up
}

TEST(KNearest, ReturnsClosest) {
  const std::vector<Feature> xs = {{0, 0}, {10, 10}, {1, 1}, {5, 5}};
  const auto nn = k_nearest(xs, {0.5, 0.5}, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_TRUE((nn[0] == 0 && nn[1] == 2) || (nn[0] == 2 && nn[1] == 0));
}

TEST(KNearest, KLargerThanDataset) {
  const std::vector<Feature> xs = {{0, 0}, {1, 1}};
  EXPECT_EQ(k_nearest(xs, {0, 0}, 10).size(), 2u);
}

/// All four classifiers must separate clean blobs.
template <typename Model>
void expect_separates_blobs(Model model) {
  util::Rng rng(99);
  std::vector<Feature> xs;
  std::vector<int> ys;
  make_blobs(rng, 200, xs, ys);
  model.fit(xs, ys);
  EXPECT_GE(accuracy(model, xs, ys), 0.97);
  // decision() sign must agree with predict().
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(model.predict(xs[static_cast<std::size_t>(i)]),
              model.decision(xs[static_cast<std::size_t>(i)]) > 0.0);
}

TEST(KnnClassifier, SeparatesBlobs) { expect_separates_blobs(KnnClassifier(5)); }
TEST(LogisticRegression, SeparatesBlobs) {
  expect_separates_blobs(LogisticRegression());
}
TEST(LinearSvm, SeparatesBlobs) { expect_separates_blobs(LinearSvm()); }
TEST(DecisionTree, SeparatesBlobs) { expect_separates_blobs(DecisionTree()); }

TEST(DecisionTree, XorNeedsDepth) {
  // XOR is not linearly separable; the tree must get it, linear models not.
  std::vector<Feature> xs;
  std::vector<int> ys;
  util::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    xs.push_back({a, b});
    ys.push_back((a > 0) != (b > 0) ? 1 : 0);
  }
  DecisionTree tree;
  tree.fit(xs, ys);
  EXPECT_GE(accuracy(tree, xs, ys), 0.95);  // needs depth >= 2

  LinearSvm svm;
  svm.fit(xs, ys);
  EXPECT_LE(accuracy(svm, xs, ys), 0.75);  // linear model cannot solve XOR
}

TEST(DecisionTree, RespectsMaxDepth) {
  DecisionTree::Config cfg;
  cfg.max_depth = 2;
  DecisionTree tree(cfg);
  util::Rng rng(4);
  std::vector<Feature> xs;
  std::vector<int> ys;
  for (int i = 0; i < 200; ++i) {
    xs.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    ys.push_back(rng.bernoulli(0.5) ? 1 : 0);
  }
  tree.fit(xs, ys);
  // Levels of the exported tree: children point strictly forward.
  const std::vector<DecisionTree::FlatNode> nodes = tree.flatten();
  std::vector<int> level(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].feature < 0) continue;
    level[static_cast<std::size_t>(nodes[i].left)] = level[i] + 1;
    level[static_cast<std::size_t>(nodes[i].right)] = level[i] + 1;
  }
  EXPECT_LE(*std::max_element(level.begin(), level.end()), 2);
}

TEST(LogisticRegression, ProbabilityCalibrated) {
  util::Rng rng(5);
  std::vector<Feature> xs;
  std::vector<int> ys;
  make_blobs(rng, 300, xs, ys);
  LogisticRegression model;
  model.fit(xs, ys);
  // decision() is the logit: P(label = 1) > 0.9 iff logit > log(9).
  EXPECT_GT(model.decision({4, 4}), std::log(9.0));
  EXPECT_LT(model.decision({0, 0}), -std::log(9.0));
}

TEST(KnnRegressor, InterpolatesLocally) {
  // y = x on a grid; KNN must interpolate in range.
  std::vector<Feature> xs, ys;
  for (int i = 0; i <= 10; ++i) {
    xs.push_back({static_cast<double>(i)});
    ys.push_back({static_cast<double>(i)});
  }
  KnnRegressor model(3);
  model.fit(xs, ys);
  EXPECT_NEAR(model.predict({5.0})[0], 5.0, 0.5);
  EXPECT_NEAR(model.predict({2.4})[0], 2.4, 0.7);
}

TEST(LinearRegression, RecoversAffineMap) {
  util::Rng rng(6);
  std::vector<Feature> xs, ys;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-3, 3), b = rng.uniform(-3, 3);
    xs.push_back({a, b});
    ys.push_back({2 * a - b + 1, a + 3 * b - 2});  // two outputs
  }
  LinearRegression model;
  model.fit(xs, ys);
  const Feature pred = model.predict({1.0, 1.0});
  EXPECT_NEAR(pred[0], 2.0, 1e-6);
  EXPECT_NEAR(pred[1], 2.0, 1e-6);
}

TEST(MeanAbsoluteError, ZeroOnPerfectModel) {
  std::vector<Feature> xs = {{0}, {1}, {2}};
  std::vector<Feature> ys = {{0}, {2}, {4}};
  LinearRegression model;
  model.fit(xs, ys);
  EXPECT_NEAR(mean_absolute_error(model, xs, ys), 0.0, 1e-6);
}

TEST(Ransac, IgnoresOutliers) {
  util::Rng rng(7);
  std::vector<Feature> xs, ys;
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-3, 3);
    xs.push_back({a});
    // 20% gross outliers.
    ys.push_back({i % 5 == 0 ? 100.0 : 2 * a + 1});
  }
  RansacRegressor::Config cfg;
  cfg.inlier_threshold = 0.1;
  cfg.sample_size = 4;
  RansacRegressor ransac(cfg);
  ransac.fit(xs, ys);
  EXPECT_NEAR(ransac.predict({2.0})[0], 5.0, 0.2);
  EXPECT_GE(ransac.inlier_count(), 70u);

  // Plain least squares is dragged off by the outliers.
  LinearRegression plain;
  plain.fit(xs, ys);
  EXPECT_GT(std::abs(plain.predict({2.0})[0] - 5.0), 2.0);
}

TEST(Homography, IdentityByDefault) {
  Homography h;
  const auto p = h.apply({3.0, 4.0});
  EXPECT_DOUBLE_EQ(p[0], 3.0);
  EXPECT_DOUBLE_EQ(p[1], 4.0);
}

TEST(Homography, RecoversSyntheticTransform) {
  // Ground-truth projective map; estimate from 12 exact correspondences.
  const std::array<double, 9> truth = {1.2, 0.1, 5.0, -0.2, 0.9,
                                       -3.0, 1e-4, -2e-4, 1.0};
  auto apply_truth = [&](double x, double y) {
    const double w = truth[6] * x + truth[7] * y + truth[8];
    return std::array<double, 2>{
        (truth[0] * x + truth[1] * y + truth[2]) / w,
        (truth[3] * x + truth[4] * y + truth[5]) / w};
  };
  std::vector<std::array<double, 2>> src, dst;
  util::Rng rng(8);
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform(0, 100), y = rng.uniform(0, 100);
    src.push_back({x, y});
    dst.push_back(apply_truth(x, y));
  }
  Homography h;
  ASSERT_TRUE(h.estimate(src, dst));
  for (int i = 0; i < 10; ++i) {
    const double x = rng.uniform(0, 100), y = rng.uniform(0, 100);
    const auto expect = apply_truth(x, y);
    const auto got = h.apply({x, y});
    EXPECT_NEAR(got[0], expect[0], 1e-4);
    EXPECT_NEAR(got[1], expect[1], 1e-4);
  }
}

TEST(Homography, RejectsTooFewPoints) {
  Homography h;
  EXPECT_FALSE(h.estimate({{0, 0}, {1, 1}, {2, 2}}, {{0, 0}, {1, 1}, {2, 2}}));
}

TEST(HomographyRegressor, MapsBoxesUnderTranslation) {
  // Pure translation: boxes map exactly, so the regressor must too.
  std::vector<Feature> xs, ys;
  util::Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const double cx = rng.uniform(10, 90), cy = rng.uniform(10, 90);
    const double w = rng.uniform(5, 15), h = rng.uniform(5, 15);
    xs.push_back({cx, cy, w, h});
    ys.push_back({cx + 20, cy - 10, w, h});
  }
  HomographyRegressor model;
  model.fit(xs, ys);
  const Feature pred = model.predict({50, 50, 10, 10});
  EXPECT_NEAR(pred[0], 70, 0.5);
  EXPECT_NEAR(pred[1], 40, 0.5);
  EXPECT_NEAR(pred[2], 10, 0.5);
}

/// KNN beats plain linear regression on a non-linear mapping — the core
/// claim behind the paper's choice of a data-driven lookup model (Fig. 11).
TEST(RegressorComparison, KnnWinsOnNonlinearMap) {
  util::Rng rng(10);
  std::vector<Feature> xs, ys;
  for (int i = 0; i < 400; ++i) {
    const double cx = rng.uniform(0, 1), cy = rng.uniform(0, 1);
    const double w = rng.uniform(0.02, 0.1), h = w * 1.5;
    // Non-linear (perspective-like) warp.
    const double denom = 0.4 + 0.6 * cy;
    xs.push_back({cx, cy, w, h});
    ys.push_back({cx / denom, cy * cy, w / denom, h / denom});
  }
  const std::size_t split = 300;
  const std::vector<Feature> train_x(xs.begin(), xs.begin() + split);
  const std::vector<Feature> train_y(ys.begin(), ys.begin() + split);
  const std::vector<Feature> test_x(xs.begin() + split, xs.end());
  const std::vector<Feature> test_y(ys.begin() + split, ys.end());

  KnnRegressor knn(5);
  knn.fit(train_x, train_y);
  LinearRegression linear;
  linear.fit(train_x, train_y);

  const double knn_mae = mean_absolute_error(knn, test_x, test_y);
  const double lin_mae = mean_absolute_error(linear, test_x, test_y);
  EXPECT_LT(knn_mae, lin_mae);
}

}  // namespace
}  // namespace mvs::ml
