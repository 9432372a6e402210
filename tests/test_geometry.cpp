#include <gtest/gtest.h>

#include "geometry/bbox.hpp"
#include "geometry/grid.hpp"
#include "geometry/size_class.hpp"
#include "util/rng.hpp"

namespace mvs::geom {
namespace {

TEST(BBox, Constructors) {
  const BBox a = BBox::from_corners(10, 20, 30, 60);
  EXPECT_DOUBLE_EQ(a.x, 10);
  EXPECT_DOUBLE_EQ(a.w, 20);
  EXPECT_DOUBLE_EQ(a.h, 40);
  const BBox b = BBox::from_corners(30, 60, 10, 20);  // reversed corners
  EXPECT_DOUBLE_EQ(b.x, 10);
  EXPECT_DOUBLE_EQ(b.area(), a.area());
  const BBox c = BBox::from_center({20, 40}, 20, 40);
  EXPECT_DOUBLE_EQ(c.x, a.x);
  EXPECT_DOUBLE_EQ(c.y, a.y);
}

TEST(BBox, CenterAndContains) {
  const BBox b{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(b.center().x, 5);
  EXPECT_TRUE(b.contains({0, 0}));
  EXPECT_TRUE(b.contains({10, 10}));
  EXPECT_FALSE(b.contains({10.01, 5}));
}

TEST(BBox, EmptyBox) {
  const BBox e{5, 5, 0, 10};
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.area(), 0.0);
  EXPECT_DOUBLE_EQ(iou(e, BBox{0, 0, 100, 100}), 0.0);
}

TEST(BBox, IouIdentical) {
  const BBox b{3, 4, 10, 20};
  EXPECT_DOUBLE_EQ(iou(b, b), 1.0);
}

TEST(BBox, IouDisjoint) {
  EXPECT_DOUBLE_EQ(iou({0, 0, 10, 10}, {20, 20, 10, 10}), 0.0);
}

TEST(BBox, IouHalfOverlap) {
  // Two 10x10 boxes sharing a 5x10 strip: inter 50, union 150.
  EXPECT_NEAR(iou({0, 0, 10, 10}, {5, 0, 10, 10}), 50.0 / 150.0, 1e-12);
}

TEST(BBox, IouTouchingEdgesIsZero) {
  EXPECT_DOUBLE_EQ(iou({0, 0, 10, 10}, {10, 0, 10, 10}), 0.0);
}

TEST(BBox, CoverageContained) {
  const BBox inner{2, 2, 4, 4};
  const BBox outer{0, 0, 100, 100};
  EXPECT_DOUBLE_EQ(coverage(inner, outer), 1.0);
  EXPECT_NEAR(coverage(outer, inner), 16.0 / 10000.0, 1e-12);
}

TEST(BBox, ClampedInside) {
  const BBox b{-10, -10, 30, 30};
  const BBox c = b.clamped(100, 100);
  EXPECT_DOUBLE_EQ(c.x, 0);
  EXPECT_DOUBLE_EQ(c.y, 0);
  EXPECT_DOUBLE_EQ(c.w, 20);
}

TEST(BBox, ClampedFullyOutsideBecomesEmpty) {
  const BBox b{-50, -50, 20, 20};
  EXPECT_TRUE(b.clamped(100, 100).empty());
}

TEST(BBox, ExpandAndShift) {
  const BBox b{10, 10, 10, 10};
  const BBox e = b.expanded(5);
  EXPECT_DOUBLE_EQ(e.x, 5);
  EXPECT_DOUBLE_EQ(e.w, 20);
  const BBox s = b.shifted({3, -2});
  EXPECT_DOUBLE_EQ(s.x, 13);
  EXPECT_DOUBLE_EQ(s.y, 8);
  EXPECT_DOUBLE_EQ(s.area(), b.area());
}

TEST(BBox, ScaledKeepsCenter) {
  const BBox b{10, 10, 10, 20};
  const BBox s = b.scaled(2.0);
  EXPECT_DOUBLE_EQ(s.center().x, b.center().x);
  EXPECT_DOUBLE_EQ(s.center().y, b.center().y);
  EXPECT_DOUBLE_EQ(s.area(), 4 * b.area());
}

/// Property sweep: IoU is symmetric, bounded and 1 only for identical boxes.
class IouProperty : public ::testing::TestWithParam<int> {};

TEST_P(IouProperty, SymmetricAndBounded) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const BBox a{rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.uniform(1, 50), rng.uniform(1, 50)};
    const BBox b{rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.uniform(1, 50), rng.uniform(1, 50)};
    const double ab = iou(a, b);
    EXPECT_DOUBLE_EQ(ab, iou(b, a));
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    // Intersection area is never larger than either box.
    EXPECT_LE(intersect(a, b).area(), a.area() + 1e-9);
    EXPECT_LE(intersect(a, b).area(), b.area() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IouProperty, ::testing::Range(1, 9));

TEST(SizeClassSet, DefaultPaperSizes) {
  const SizeClassSet s;
  ASSERT_EQ(s.count(), 4u);
  EXPECT_EQ(s.size_of(0), 64);
  EXPECT_EQ(s.size_of(3), 512);
}

TEST(SizeClassSet, QuantizeSmall) {
  const SizeClassSet s;
  EXPECT_EQ(s.quantize(BBox{0, 0, 20, 20}, 8.0), 0);   // 36 <= 64
  EXPECT_EQ(s.quantize(BBox{0, 0, 60, 40}, 8.0), 1);   // 76 -> 128
  EXPECT_EQ(s.quantize(BBox{0, 0, 200, 100}, 8.0), 2); // 216 -> 256
}

TEST(SizeClassSet, OversizedMapsToLargest) {
  const SizeClassSet s;
  EXPECT_EQ(s.quantize(BBox{0, 0, 900, 900}), 3);
}

TEST(SizeClassSet, ExpandToClassKeepsCenter) {
  const SizeClassSet s;
  const BBox b{100, 100, 20, 30};
  const BBox e = s.expand_to_class(b, 1);
  EXPECT_DOUBLE_EQ(e.center().x, b.center().x);
  EXPECT_GE(e.w, 128.0);
  EXPECT_GE(e.h, 128.0);
}

TEST(Grid, Dimensions) {
  const Grid g(1280, 704, 64);
  EXPECT_EQ(g.cols(), 20);
  EXPECT_EQ(g.rows(), 11);
  EXPECT_EQ(g.cell_count(), 220u);
}

TEST(Grid, TruncatedLastCells) {
  const Grid g(100, 100, 64);
  EXPECT_EQ(g.cols(), 2);
  const BBox last = g.cell_box({1, 1});
  EXPECT_DOUBLE_EQ(last.w, 36.0);
}

TEST(Grid, CellAtClampsOutOfRange) {
  const Grid g(100, 100, 10);
  const CellIndex c = g.cell_at({-5, 500});
  EXPECT_EQ(c.col, 0);
  EXPECT_EQ(c.row, 9);
}

TEST(Grid, FlatIndexRowMajor) {
  const Grid g(100, 100, 10);
  EXPECT_EQ(g.flat({0, 0}), 0u);
  EXPECT_EQ(g.flat({3, 2}), 23u);
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{3, 4};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ((a + Vec2{1, 1}).x, 4.0);
  EXPECT_DOUBLE_EQ((a - Vec2{1, 1}).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).norm(), 10.0);
  EXPECT_DOUBLE_EQ(a.dot({1, 0}), 3.0);
}

}  // namespace
}  // namespace mvs::geom
