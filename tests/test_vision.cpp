#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vision/image.hpp"
#include "vision/optical_flow.hpp"
#include "vision/regions.hpp"
#include "vision/renderer.hpp"

namespace mvs::vision {
namespace {

// ---- golden reference implementations ------------------------------------
// Straight-line copies of the pre-optimization kernels (double-accumulating
// SAD over at_clamped reads, pyramids rebuilt per call). The optimized
// kernels must reproduce their outputs BIT-identically.

double reference_block_sad(const Image& a, int ax, int ay, const Image& b,
                           int bx, int by, int size) {
  double sad = 0.0;
  for (int dy = 0; dy < size; ++dy)
    for (int dx = 0; dx < size; ++dx)
      sad += std::abs(static_cast<int>(a.at_clamped(ax + dx, ay + dy)) -
                      static_cast<int>(b.at_clamped(bx + dx, by + dy)));
  return sad;
}

FlowField reference_flow(const OpticalFlow::Config& cfg, const Image& prev,
                         const Image& cur) {
  std::vector<Image> pa{prev}, pb{cur};
  for (int l = 1; l < cfg.pyramid_levels; ++l) {
    if (pa.back().width() < 2 * cfg.block_size ||
        pa.back().height() < 2 * cfg.block_size)
      break;
    pa.push_back(pa.back().downsampled());
    pb.push_back(pb.back().downsampled());
  }
  const int levels = static_cast<int>(pa.size());

  FlowField field;
  field.block_size = cfg.block_size;
  field.cols = std::max(1, prev.width() / cfg.block_size);
  field.rows = std::max(1, prev.height() / cfg.block_size);
  field.flow.assign(static_cast<std::size_t>(field.cols) *
                        static_cast<std::size_t>(field.rows),
                    {0.0, 0.0});
  field.residual.assign(field.flow.size(), 0.0);

  std::vector<geom::Vec2> coarse;
  int ccols = 0, crows = 0;
  for (int l = levels - 1; l >= 0; --l) {
    const Image& ia = pa[static_cast<std::size_t>(l)];
    const Image& ib = pb[static_cast<std::size_t>(l)];
    const int cols = std::max(1, ia.width() / cfg.block_size);
    const int rows = std::max(1, ia.height() / cfg.block_size);
    std::vector<geom::Vec2> est(static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(rows));
    std::vector<double> res(est.size(), 0.0);

    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const int bx = c * cfg.block_size;
        const int by = r * cfg.block_size;
        geom::Vec2 seed{0.0, 0.0};
        if (!coarse.empty()) {
          const int pc = std::min(c / 2, ccols - 1);
          const int pr = std::min(r / 2, crows - 1);
          const geom::Vec2& s =
              coarse[static_cast<std::size_t>(pr) *
                         static_cast<std::size_t>(ccols) +
                     static_cast<std::size_t>(pc)];
          seed = {s.x * 2.0, s.y * 2.0};
        }
        const int sx = static_cast<int>(std::lround(seed.x));
        const int sy = static_cast<int>(std::lround(seed.y));

        double best = std::numeric_limits<double>::infinity();
        int best_dx = sx, best_dy = sy;
        for (int dy = sy - cfg.search_radius; dy <= sy + cfg.search_radius;
             ++dy) {
          for (int dx = sx - cfg.search_radius; dx <= sx + cfg.search_radius;
               ++dx) {
            const double sad =
                reference_block_sad(ia, bx, by, ib, bx + dx, by + dy,
                                    cfg.block_size);
            const double penalty = 0.1 * (std::abs(dx) + std::abs(dy));
            if (sad + penalty < best) {
              best = sad + penalty;
              best_dx = dx;
              best_dy = dy;
            }
          }
        }
        est[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] = {static_cast<double>(best_dx),
                                            static_cast<double>(best_dy)};
        res[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] =
            best / static_cast<double>(cfg.block_size * cfg.block_size);
      }
    }
    coarse = std::move(est);
    ccols = cols;
    crows = rows;
    if (l == 0) {
      field.cols = cols;
      field.rows = rows;
      field.flow = coarse;
      field.residual = std::move(res);
    }
  }
  return field;
}

Image random_image(int w, int h, util::Rng& rng) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set(x, y, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  return img;
}

void expect_fields_bit_identical(const FlowField& a, const FlowField& b) {
  ASSERT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.rows, b.rows);
  ASSERT_EQ(a.block_size, b.block_size);
  ASSERT_EQ(a.flow.size(), b.flow.size());
  ASSERT_EQ(a.residual.size(), b.residual.size());
  for (std::size_t i = 0; i < a.flow.size(); ++i) {
    EXPECT_EQ(a.flow[i].x, b.flow[i].x) << "flow.x mismatch at " << i;
    EXPECT_EQ(a.flow[i].y, b.flow[i].y) << "flow.y mismatch at " << i;
    EXPECT_EQ(a.residual[i], b.residual[i]) << "residual mismatch at " << i;
  }
}

Renderer small_renderer() {
  Renderer::Config cfg;
  cfg.width = 160;
  cfg.height = 96;
  cfg.noise_amplitude = 2;
  return Renderer(cfg);
}

TEST(Image, ConstructAndAccess) {
  Image img(4, 3, 7);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.at(3, 2), 7);
  img.set(1, 1, 42);
  EXPECT_EQ(img.at(1, 1), 42);
}

TEST(Image, ClampedRead) {
  Image img(2, 2);
  img.set(0, 0, 10);
  img.set(1, 1, 20);
  EXPECT_EQ(img.at_clamped(-5, -5), 10);
  EXPECT_EQ(img.at_clamped(10, 10), 20);
}

TEST(Image, Downsample) {
  Image img(4, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) img.set(x, y, 100);
  const Image half = img.downsampled();
  EXPECT_EQ(half.width(), 2);
  EXPECT_EQ(half.height(), 2);
  EXPECT_EQ(half.at(0, 0), 100);
}

TEST(Renderer, Deterministic) {
  const Renderer r = small_renderer();
  const std::vector<RenderObject> objs = {{42, {30, 30, 20, 12}}};
  const Image a = r.render(objs, 5, 1);
  const Image b = r.render(objs, 5, 1);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Renderer, FrameNoiseVaries) {
  const Renderer r = small_renderer();
  const Image a = r.render({}, 1, 1);
  const Image b = r.render({}, 2, 1);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    diff += std::abs(static_cast<int>(a.data()[i]) -
                     static_cast<int>(b.data()[i]));
  diff /= static_cast<double>(a.data().size());
  EXPECT_GT(diff, 0.1);  // noise differs
  EXPECT_LT(diff, 6.0);  // but background is static
}

TEST(Renderer, ObjectsBrighterThanBackground) {
  const Renderer r = small_renderer();
  const Image bg = r.render({}, 1, 1);
  const Image with = r.render({{7, {40, 40, 30, 20}}}, 1, 1);
  // Pixels inside the object region changed substantially.
  double diff = 0.0;
  for (int y = 42; y < 58; ++y)
    for (int x = 42; x < 68; ++x)
      diff += std::abs(static_cast<int>(bg.at(x, y)) -
                       static_cast<int>(with.at(x, y)));
  EXPECT_GT(diff / (16 * 26), 10.0);
}

TEST(OpticalFlow, ZeroMotionOnStaticScene) {
  const Renderer r = small_renderer();
  const std::vector<RenderObject> objs = {{3, {50, 40, 24, 16}}};
  const Image a = r.render(objs, 1, 1);
  const Image b = r.render(objs, 2, 1);  // same pose, new sensor noise
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);
  double magnitude = 0.0;
  for (const geom::Vec2& v : field.flow) magnitude += v.norm();
  EXPECT_LT(magnitude / static_cast<double>(field.flow.size()), 0.3);
}

class FlowTranslation : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FlowTranslation, RecoversObjectMotion) {
  const auto [dx, dy] = GetParam();
  const Renderer r = small_renderer();
  const geom::BBox start{60, 40, 28, 18};
  const Image a = r.render({{9, start}}, 1, 1);
  const Image b = r.render({{9, start.shifted({static_cast<double>(dx),
                                               static_cast<double>(dy)})}},
                           2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);
  const geom::Vec2 motion = median_flow_in(field, start);
  EXPECT_NEAR(motion.x, dx, 1.6);
  EXPECT_NEAR(motion.y, dy, 1.6);
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FlowTranslation,
    ::testing::Values(std::pair{3, 0}, std::pair{-3, 0}, std::pair{0, 3},
                      std::pair{0, -2}, std::pair{4, 2}, std::pair{-2, -3},
                      std::pair{6, 0}, std::pair{0, 5}));

TEST(OpticalFlow, MedianFlowEmptyBoxIsZero) {
  FlowField field;
  field.block_size = 8;
  field.cols = 2;
  field.rows = 2;
  field.flow.assign(4, {5.0, 5.0});
  field.residual.assign(4, 0.0);
  const geom::Vec2 motion = median_flow_in(field, {100, 100, 4, 4});
  EXPECT_DOUBLE_EQ(motion.x, 0.0);
}

TEST(NewRegions, FindsUnexplainedMovingObject) {
  const Renderer r = small_renderer();
  const geom::BBox moving{60, 40, 24, 16};
  const Image a = r.render({{5, moving}}, 1, 1);
  const Image b = r.render({{5, moving.shifted({5, 0})}}, 2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);

  // No predicted boxes -> the mover must surface as a new region.
  RegionScratch scratch;
  std::vector<geom::BBox> regions;
  extract_new_regions_into(field, {}, 1.0, {}, scratch, regions);
  ASSERT_FALSE(regions.empty());
  bool covers = false;
  for (const geom::BBox& region : regions)
    if (geom::coverage(moving, region) > 0.5) covers = true;
  EXPECT_TRUE(covers);
}

TEST(NewRegions, ExplainedObjectSuppressed) {
  const Renderer r = small_renderer();
  const geom::BBox moving{60, 40, 24, 16};
  const Image a = r.render({{5, moving}}, 1, 1);
  const Image b = r.render({{5, moving.shifted({5, 0})}}, 2, 1);
  const OpticalFlow flow;
  const FlowField field = flow.compute(a, b);

  RegionScratch scratch;
  std::vector<geom::BBox> regions;
  extract_new_regions_into(field, {moving.expanded(8.0)}, 1.0, {}, scratch,
                           regions);
  for (const geom::BBox& region : regions)
    EXPECT_LT(geom::coverage(moving, region), 0.5);
}

TEST(NewRegions, ScaleMapsToLogicalPixels) {
  FlowField field;
  field.block_size = 8;
  field.cols = 4;
  field.rows = 4;
  field.flow.assign(16, {0.0, 0.0});
  field.residual.assign(16, 0.0);
  // One moving block at (2,2).
  field.flow[2 * 4 + 2] = {4.0, 0.0};
  NewRegionConfig cfg;
  cfg.min_area = 1.0;
  cfg.merge_margin = 0.0;
  RegionScratch scratch;
  std::vector<geom::BBox> regions;
  extract_new_regions_into(field, {}, 4.0, cfg, scratch, regions);
  ASSERT_EQ(regions.size(), 1u);
  // Block (2,2) covers flow pixels [16,24)x[16,24) -> logical [64,96).
  EXPECT_DOUBLE_EQ(regions[0].x, 64.0);
  EXPECT_DOUBLE_EQ(regions[0].w, 32.0);
}

TEST(SliceRegions, QuantizedAndClamped) {
  const geom::SizeClassSet sizes;
  const std::vector<std::pair<long, geom::BBox>> predicted = {
      {7, {50, 50, 30, 30}},    // -> class 0 (64)
      {8, {1200, 600, 90, 90}}, // near border -> clamped
  };
  std::vector<SliceRegion> slices;
  slice_regions_into(predicted, sizes, 1280, 704, 8.0, slices);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].track_id, 7);
  EXPECT_EQ(slices[0].size_class, 0);
  EXPECT_DOUBLE_EQ(slices[0].roi.w, 64.0);
  EXPECT_LE(slices[1].roi.x2(), 1280.0);
  EXPECT_LE(slices[1].roi.y2(), 704.0);
}

TEST(SliceRegions, EmptyInput) {
  const geom::SizeClassSet sizes;
  std::vector<SliceRegion> slices(1);
  slice_regions_into({}, sizes, 100, 100, 8.0, slices);
  EXPECT_TRUE(slices.empty());
}

TEST(Image, DownsampleIntoMatchesDownsampled) {
  util::Rng rng(11);
  for (const auto& [w, h] : {std::pair{4, 4}, std::pair{7, 5}, std::pair{1, 9},
                             std::pair{33, 17}, std::pair{160, 96}}) {
    const Image img = random_image(w, h, rng);
    const Image gold = img.downsampled();
    Image out;
    img.downsample_into(out);
    ASSERT_EQ(out.width(), gold.width());
    ASSERT_EQ(out.height(), gold.height());
    EXPECT_EQ(out.data(), gold.data());
    // Reuse path: a pre-sized (stale) buffer must be fully overwritten.
    Image reused(gold.width(), gold.height(), 255);
    img.downsample_into(reused);
    EXPECT_EQ(reused.data(), gold.data());
  }
}

TEST(PaddedImage, ReplicatesClampedReads) {
  util::Rng rng(12);
  const Image img = random_image(13, 7, rng);
  PaddedImage padded;
  padded.assign(img, 5);
  for (int y = -5; y < 12; ++y)
    for (int x = -5; x < 18; ++x)
      ASSERT_EQ(padded.at(x, y), img.at_clamped(x, y))
          << "(" << x << "," << y << ")";
}

TEST(PaddedImage, ReassignReusesStorage) {
  util::Rng rng(13);
  const Image a = random_image(16, 8, rng);
  const Image b = random_image(16, 8, rng);
  PaddedImage padded;
  padded.assign(a, 3);
  padded.assign(b, 3);  // same geometry: no reallocation, fresh contents
  for (int y = -3; y < 11; ++y)
    for (int x = -3; x < 19; ++x)
      ASSERT_EQ(padded.at(x, y), b.at_clamped(x, y));
}

TEST(PaddedSad, MatchesReferenceSad) {
  util::Rng rng(14);
  const Image a = random_image(24, 18, rng);
  const Image b = random_image(24, 18, rng);
  const int pad = 16;
  PaddedImage pa, pb;
  pa.assign(a, pad);
  pb.assign(b, pad);
  for (int trial = 0; trial < 500; ++trial) {
    const int size = rng.uniform_int(1, 16);
    // Block origins anywhere in-frame; displaced origin may run `size + pad`
    // deep into the border, exactly like the clamped reference.
    const int ax = rng.uniform_int(0, 23);
    const int ay = rng.uniform_int(0, 17);
    const int bx = rng.uniform_int(-pad + 1, 24 + pad - size - 1);
    const int by = rng.uniform_int(-pad + 1, 18 + pad - size - 1);
    const std::uint32_t fast = padded_block_sad(pa, ax, ay, pb, bx, by, size);
    const double gold = reference_block_sad(a, ax, ay, b, bx, by, size);
    ASSERT_EQ(static_cast<double>(fast), gold)
        << "size=" << size << " a=(" << ax << "," << ay << ") b=(" << bx
        << "," << by << ")";
  }
}

TEST(OpticalFlowGolden, BitIdenticalOnRenderedPairs) {
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  for (int trial = 0; trial < 6; ++trial) {
    const geom::BBox start{20.0 + 15.0 * trial, 30.0 + 5.0 * trial, 26, 18};
    const geom::Vec2 shift{static_cast<double>(trial - 3),
                           static_cast<double>((trial % 3) - 1)};
    const Image a = r.render({{static_cast<std::uint64_t>(trial + 1), start}},
                             trial, 9);
    const Image b = r.render(
        {{static_cast<std::uint64_t>(trial + 1), start.shifted(shift)}},
        trial + 1, 9);
    expect_fields_bit_identical(flow.compute(a, b),
                                reference_flow(flow.config(), a, b));
  }
}

TEST(OpticalFlowGolden, BitIdenticalOnOddSizesAndConfigs) {
  util::Rng rng(15);
  const std::vector<std::pair<int, int>> sizes = {
      {7, 5}, {8, 8}, {9, 16}, {17, 9}, {37, 23}, {64, 40}, {31, 64}};
  for (const auto& [w, h] : sizes) {
    for (const int levels : {1, 2, 4}) {
      for (const int radius : {1, 3}) {
        OpticalFlow::Config cfg;
        cfg.pyramid_levels = levels;
        cfg.search_radius = radius;
        const OpticalFlow flow(cfg);
        const Image a = random_image(w, h, rng);
        const Image b = random_image(w, h, rng);
        expect_fields_bit_identical(flow.compute(a, b),
                                    reference_flow(cfg, a, b));
      }
    }
  }
}

TEST(OpticalFlowGolden, BitIdenticalAcrossBlockSizes) {
  // Width 8 runs the SSE2 whole-block kernel, every other width the scalar
  // loop; both must match the reference. Images smaller than one block put
  // every block load against the pad edge, where ASan (sanitize preset)
  // checks that the proven pad holds.
  util::Rng rng(16);
  const Renderer r = small_renderer();
  const Image ra = r.render({{3, {50, 30, 28, 20}}}, 0, 11);
  const Image rb = r.render({{3, {53, 29, 28, 20}}}, 1, 11);
  const std::vector<std::pair<int, int>> sizes = {
      {7, 5}, {3, 15}, {13, 11}, {37, 23}, {64, 40}};
  for (const int block : {4, 8, 12, 16}) {
    for (const int radius : {1, 3, 5}) {
      for (const int levels : {1, 3}) {
        OpticalFlow::Config cfg;
        cfg.block_size = block;
        cfg.search_radius = radius;
        cfg.pyramid_levels = levels;
        const OpticalFlow flow(cfg);
        SCOPED_TRACE(::testing::Message() << "block=" << block << " radius="
                                          << radius << " levels=" << levels);
        expect_fields_bit_identical(flow.compute(ra, rb),
                                    reference_flow(cfg, ra, rb));
        for (const auto& [w, h] : sizes) {
          SCOPED_TRACE(::testing::Message() << w << "x" << h);
          const Image a = random_image(w, h, rng);
          const Image b = random_image(w, h, rng);
          expect_fields_bit_identical(flow.compute(a, b),
                                      reference_flow(cfg, a, b));
        }
      }
    }
  }
}

TEST(OpticalFlowGolden, IncrementalScratchMatchesOneShotAcrossSequence) {
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  const geom::BBox start{30, 25, 24, 16};

  FlowScratch scratch;
  EXPECT_FALSE(scratch.ready());
  Image prev = r.render({{4, start}}, 0, 3);
  scratch.cur_frame() = prev;
  flow.rebase(scratch);
  EXPECT_TRUE(scratch.ready());

  FlowField incremental;
  for (int f = 1; f <= 6; ++f) {
    const Image cur =
        r.render({{4, start.shifted({1.5 * f, -0.5 * f})}}, f, 3);
    scratch.cur_frame() = cur;
    flow.compute(scratch, incremental);
    scratch.advance();
    expect_fields_bit_identical(incremental,
                                reference_flow(flow.config(), prev, cur));
    prev = cur;
  }
}

TEST(OpticalFlowGolden, TiledComputeMatchesUntiled) {
  util::ThreadPool pool(4);
  const Renderer r = small_renderer();
  const OpticalFlow flow;
  const Image a = r.render({{8, {40, 30, 30, 20}}}, 0, 5);
  const Image b = r.render({{8, {44, 32, 30, 20}}}, 1, 5);

  FlowScratch scratch;
  scratch.cur_frame() = a;
  flow.rebase(scratch);
  scratch.cur_frame() = b;
  FlowField tiled;
  flow.compute(scratch, tiled, &pool);
  expect_fields_bit_identical(tiled, reference_flow(flow.config(), a, b));
}

}  // namespace
}  // namespace mvs::vision
