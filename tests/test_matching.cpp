#include <gtest/gtest.h>

#include "matching/bbox_matcher.hpp"
#include "matching/hungarian.hpp"
#include "util/rng.hpp"

namespace mvs::matching {
namespace {

TEST(Hungarian, TrivialSingle) {
  const auto res = solve_assignment({3.0}, 1, 1);
  EXPECT_EQ(res.row_to_col[0], 0);
  EXPECT_DOUBLE_EQ(res.total_cost, 3.0);
}

TEST(Hungarian, TwoByTwoAntiDiagonal) {
  // [[10, 1], [1, 10]] -> optimal picks the two 1s.
  const auto res = solve_assignment({10, 1, 1, 10}, 2, 2);
  EXPECT_EQ(res.row_to_col[0], 1);
  EXPECT_EQ(res.row_to_col[1], 0);
  EXPECT_DOUBLE_EQ(res.total_cost, 2.0);
}

TEST(Hungarian, ClassicThreeByThree) {
  // Known instance with optimum 5 (1+3+1? verify): rows pick (0,1),(1,0),(2,2).
  const std::vector<double> cost = {4, 1, 3, 2, 0, 5, 3, 2, 2};
  const auto res = solve_assignment(cost, 3, 3);
  EXPECT_DOUBLE_EQ(res.total_cost, 5.0);  // 1 + 2 + 2
}

TEST(Hungarian, RectangularMoreRows) {
  // 3 rows, 2 cols: one row stays unmatched.
  const std::vector<double> cost = {1, 9, 9, 1, 5, 5};
  const auto res = solve_assignment(cost, 3, 2);
  int matched = 0;
  for (int c : res.row_to_col) matched += (c >= 0);
  EXPECT_EQ(matched, 2);
  EXPECT_DOUBLE_EQ(res.total_cost, 2.0);
}

TEST(Hungarian, RectangularMoreCols) {
  const std::vector<double> cost = {5, 1, 7};
  const auto res = solve_assignment(cost, 1, 3);
  EXPECT_EQ(res.row_to_col[0], 1);
  EXPECT_EQ(res.col_to_row[1], 0);
  EXPECT_EQ(res.col_to_row[0], -1);
}

TEST(Hungarian, ForbiddenPairsUnmatched) {
  const std::vector<double> cost = {kForbiddenCost, kForbiddenCost,
                                    kForbiddenCost, 1.0};
  const auto res = solve_assignment(cost, 2, 2);
  EXPECT_EQ(res.row_to_col[0], -1);
  EXPECT_EQ(res.row_to_col[1], 1);
  EXPECT_DOUBLE_EQ(res.total_cost, 1.0);
}

TEST(Hungarian, AllForbidden) {
  const std::vector<double> cost(4, kForbiddenCost);
  const auto res = solve_assignment(cost, 2, 2);
  EXPECT_EQ(res.row_to_col[0], -1);
  EXPECT_EQ(res.row_to_col[1], -1);
  EXPECT_DOUBLE_EQ(res.total_cost, 0.0);
}

TEST(Hungarian, EmptyInputs) {
  const auto res = solve_assignment({}, 0, 5);
  EXPECT_TRUE(res.row_to_col.empty());
  EXPECT_EQ(res.col_to_row.size(), 5u);
}

TEST(Hungarian, RowToColAndColToRowConsistent) {
  util::Rng rng(5);
  std::vector<double> cost(36);
  for (double& v : cost) v = rng.uniform(0, 10);
  const auto res = solve_assignment(cost, 6, 6);
  for (std::size_t r = 0; r < 6; ++r) {
    ASSERT_GE(res.row_to_col[r], 0);
    EXPECT_EQ(res.col_to_row[static_cast<std::size_t>(res.row_to_col[r])],
              static_cast<int>(r));
  }
}

/// Hungarian never costs more than greedy, and both produce valid matchings.
class HungarianVsGreedy : public ::testing::TestWithParam<int> {};

TEST_P(HungarianVsGreedy, OptimalityAndValidity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const std::size_t rows = 2 + rng.index(6);
  const std::size_t cols = 2 + rng.index(6);
  std::vector<double> cost(rows * cols);
  for (double& v : cost) v = rng.uniform(0, 100);

  const auto hung = solve_assignment(cost, rows, cols);
  const auto greedy = solve_assignment_greedy(cost, rows, cols);
  EXPECT_LE(hung.total_cost, greedy.total_cost + 1e-9);

  // Full square part matched: min(rows, cols) matches.
  std::size_t matched = 0;
  for (int c : hung.row_to_col) matched += (c >= 0);
  EXPECT_EQ(matched, std::min(rows, cols));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianVsGreedy, ::testing::Range(0, 20));

TEST(BoxMatcher, MatchesByIou) {
  const std::vector<geom::BBox> a = {{0, 0, 10, 10}, {100, 100, 10, 10}};
  const std::vector<geom::BBox> b = {{101, 101, 10, 10}, {1, 1, 10, 10}};
  const auto res = match_boxes(a, b, 0.1);
  ASSERT_EQ(res.matches.size(), 2u);
  // a0 matches b1, a1 matches b0.
  for (const BoxMatch& match : res.matches) {
    if (match.a == 0) {
      EXPECT_EQ(match.b, 1);
    }
    if (match.a == 1) {
      EXPECT_EQ(match.b, 0);
    }
    EXPECT_GT(match.iou, 0.5);
  }
}

TEST(BoxMatcher, ThresholdExcludesWeakOverlap) {
  const std::vector<geom::BBox> a = {{0, 0, 10, 10}};
  const std::vector<geom::BBox> b = {{9, 9, 10, 10}};  // IoU ~ 0.005
  const auto res = match_boxes(a, b, 0.3);
  EXPECT_TRUE(res.matches.empty());
  EXPECT_EQ(res.unmatched_a.size(), 1u);
  EXPECT_EQ(res.unmatched_b.size(), 1u);
}

TEST(BoxMatcher, PrefersHigherIouGlobally) {
  // One detection between two tracks: must go to the closer one.
  const std::vector<geom::BBox> tracks = {{0, 0, 10, 10}, {4, 0, 10, 10}};
  const std::vector<geom::BBox> dets = {{3.5, 0, 10, 10}};
  const auto res = match_boxes(tracks, dets, 0.1);
  ASSERT_EQ(res.matches.size(), 1u);
  EXPECT_EQ(res.matches[0].a, 1);
}

TEST(BoxMatcher, EmptyInputs) {
  const auto res = match_boxes({}, {{0, 0, 1, 1}}, 0.1);
  EXPECT_TRUE(res.matches.empty());
  EXPECT_EQ(res.unmatched_b.size(), 1u);
}

}  // namespace
}  // namespace mvs::matching
