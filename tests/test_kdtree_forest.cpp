#include <gtest/gtest.h>

#include <algorithm>

#include "ml/kdtree.hpp"
#include "ml/knn.hpp"
#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace mvs {
namespace {

using ml::Feature;

std::vector<Feature> random_points(util::Rng& rng, std::size_t n,
                                   std::size_t dim) {
  std::vector<Feature> points(n, Feature(dim));
  for (Feature& p : points)
    for (double& v : p) v = rng.uniform(-10, 10);
  return points;
}

TEST(KdTree, SinglePoint) {
  ml::KdTree tree({{1.0, 2.0}});
  const auto nn = tree.nearest({0.0, 0.0}, 3);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0], 0u);
}

TEST(KdTree, FindsExactPoint) {
  util::Rng rng(1);
  const auto points = random_points(rng, 100, 4);
  ml::KdTree tree(points);
  for (std::size_t probe = 0; probe < 100; probe += 7) {
    const auto nn = tree.nearest(points[probe], 1);
    ASSERT_EQ(nn.size(), 1u);
    // The exact point (or an identical duplicate) must be returned.
    EXPECT_EQ(points[nn[0]], points[probe]);
  }
}

/// Exactness: kd-tree results equal brute force for every query, all sizes.
class KdTreeVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeVsBruteForce, IdenticalNeighborSets) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const std::size_t n = 5 + rng.index(300);
  const std::size_t dim = 2 + rng.index(4);
  const auto points = random_points(rng, n, dim);
  ml::KdTree tree(points);
  for (int q = 0; q < 20; ++q) {
    Feature query(dim);
    for (double& v : query) v = rng.uniform(-12, 12);
    const int k = 1 + static_cast<int>(rng.index(8));
    auto from_tree = tree.nearest(query, k);
    auto brute = ml::k_nearest(points, query, k);
    ASSERT_EQ(from_tree.size(), brute.size());
    // Compare by distance (ties may order differently between methods).
    auto dist = [&](std::size_t i) {
      double s = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double delta = points[i][d] - query[d];
        s += delta * delta;
      }
      return s;
    };
    for (std::size_t r = 0; r < brute.size(); ++r)
      EXPECT_NEAR(dist(from_tree[r]), dist(brute[r]), 1e-9);
    // Nearest-first ordering.
    for (std::size_t r = 1; r < from_tree.size(); ++r)
      EXPECT_LE(dist(from_tree[r - 1]), dist(from_tree[r]) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreeVsBruteForce, ::testing::Range(0, 15));

TEST(KdTree, KCappedAtSize) {
  util::Rng rng(2);
  const auto points = random_points(rng, 6, 3);
  ml::KdTree tree(points);
  EXPECT_EQ(tree.nearest({0, 0, 0}, 100).size(), 6u);
}

TEST(RandomForest, SeparatesBlobs) {
  util::Rng rng(3);
  std::vector<Feature> xs;
  std::vector<int> ys;
  for (int i = 0; i < 300; ++i) {
    const bool positive = i % 2 == 0;
    const double c = positive ? 3.0 : 0.0;
    xs.push_back({c + rng.gaussian(0, 0.5), c + rng.gaussian(0, 0.5)});
    ys.push_back(positive ? 1 : 0);
  }
  ml::RandomForest forest;
  forest.fit(xs, ys);
  EXPECT_EQ(forest.tree_count(), 15u);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    correct += forest.predict(xs[i]) == (ys[i] == 1);
  EXPECT_GE(static_cast<double>(correct) / xs.size(), 0.97);
}

TEST(RandomForest, SolvesXor) {
  util::Rng rng(4);
  std::vector<Feature> xs;
  std::vector<int> ys;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    xs.push_back({a, b});
    ys.push_back((a > 0) != (b > 0) ? 1 : 0);
  }
  ml::RandomForest forest;
  forest.fit(xs, ys);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    correct += forest.predict(xs[i]) == (ys[i] == 1);
  EXPECT_GE(static_cast<double>(correct) / xs.size(), 0.9);
}

TEST(RandomForest, DecisionSignMatchesPredict) {
  util::Rng rng(5);
  std::vector<Feature> xs;
  std::vector<int> ys;
  for (int i = 0; i < 100; ++i) {
    xs.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    ys.push_back(xs.back()[0] > 0.5 ? 1 : 0);
  }
  ml::RandomForest forest;
  forest.fit(xs, ys);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(forest.predict(xs[static_cast<std::size_t>(i)]),
              forest.decision(xs[static_cast<std::size_t>(i)]) > 0.0);
}

}  // namespace
}  // namespace mvs
