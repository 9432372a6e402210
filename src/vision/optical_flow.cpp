#include "vision/optical_flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/thread_pool.hpp"

namespace mvs::vision {

namespace {

// The one block-SAD primitive: holds a size x size reference block and
// returns the exact integer SAD against any same-size block. Blocks are given
// as a top-left pointer plus row stride into a PaddedImage. Width-8 blocks
// (the default OpticalFlow::Config) run a whole-block SSE2 kernel with the
// reference rows loaded once into four registers; every other size, and
// non-SSE2 targets, run the scalar row loop. Both read exactly the block's
// size x size bytes, so the pad proof (DESIGN.md §7) covers every load.
class BlockSad {
 public:
  BlockSad(const std::uint8_t* a, std::ptrdiff_t stride, int size)
      : a_(a), stride_(stride), size_(size) {
#if defined(__SSE2__)
    if (size_ == 8)
      for (int k = 0; k < 4; ++k)
        ref_[k] = row_pair(a + 2 * k * stride, stride);
#endif
  }

  std::uint32_t operator()(const std::uint8_t* b, std::ptrdiff_t stride) const {
#if defined(__SSE2__)
    if (size_ == 8) {
      // Two 8-byte rows per register, one psadbw per row pair; each psadbw
      // leaves one 16-bit partial sum per 64-bit lane.
      __m128i acc = _mm_sad_epu8(ref_[0], row_pair(b, stride));
      for (int k = 1; k < 4; ++k)
        acc = _mm_add_epi64(
            acc, _mm_sad_epu8(ref_[k], row_pair(b + 2 * k * stride, stride)));
      acc = _mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc));
      return static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc));
    }
#endif
    std::uint32_t sad = 0;
    for (int dy = 0; dy < size_; ++dy) {
      const std::uint8_t* ra = a_ + dy * stride_;
      const std::uint8_t* rb = b + dy * stride;
      std::uint32_t acc = 0;
      for (int dx = 0; dx < size_; ++dx) {
        const int d = static_cast<int>(ra[dx]) - static_cast<int>(rb[dx]);
        acc += static_cast<std::uint32_t>(d < 0 ? -d : d);
      }
      sad += acc;
    }
    return sad;
  }

 private:
#if defined(__SSE2__)
  static __m128i row_pair(const std::uint8_t* p, std::ptrdiff_t stride) {
    return _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + stride)));
  }
  __m128i ref_[4] = {};
#endif
  const std::uint8_t* a_;
  std::ptrdiff_t stride_;
  int size_;
};

}  // namespace

std::uint32_t padded_block_sad(const PaddedImage& a, int ax, int ay,
                               const PaddedImage& b, int bx, int by,
                               int size) {
  return BlockSad(a.row(ay) + ax, a.stride(), size)(b.row(by) + bx,
                                                    b.stride());
}

void FlowScratch::advance() {
  std::swap(prev_img_, cur_img_);
  std::swap(prev_lv_, cur_lv_);
  std::swap(prev_pad_, cur_pad_);
  ready_ = built_;
  built_ = false;
}

int OpticalFlow::build_cur_pyramid(FlowScratch& s) const {
  const Image& base = s.cur_img_;
  assert(!base.empty());

  // Same stopping rule as the reference: level l exists iff level l-1 is at
  // least 2 blocks wide and tall.
  int levels = 1;
  {
    int w = base.width(), h = base.height();
    while (levels < cfg_.pyramid_levels && w >= 2 * cfg_.block_size &&
           h >= 2 * cfg_.block_size) {
      w = std::max(1, w / 2);
      h = std::max(1, h / 2);
      ++levels;
    }
  }

  s.cur_lv_.resize(static_cast<std::size_t>(levels - 1));
  s.cur_pad_.resize(static_cast<std::size_t>(levels));
  for (int l = 1; l < levels; ++l) {
    const Image& src = (l == 1) ? base : s.cur_lv_[static_cast<std::size_t>(l - 2)];
    src.downsample_into(s.cur_lv_[static_cast<std::size_t>(l - 1)]);
  }
  // Pad covers the worst-case block read at each level: the seed chain bounds
  // the displacement at level l by r * (2^(levels-l) - 1), and the block
  // itself extends block_size pixels past its origin.
  for (int l = 0; l < levels; ++l) {
    const int pad =
        cfg_.search_radius * ((1 << (levels - l)) - 1) + cfg_.block_size;
    const Image& img = (l == 0) ? base : s.cur_lv_[static_cast<std::size_t>(l - 1)];
    s.cur_pad_[static_cast<std::size_t>(l)].assign(img, pad);
  }
  s.built_ = true;
  return levels;
}

void OpticalFlow::rebase(FlowScratch& scratch) const {
  build_cur_pyramid(scratch);
  scratch.advance();
}

void OpticalFlow::match_level(const PaddedImage& pa, const PaddedImage& pb,
                              const geom::Vec2* coarse, int ccols, int crows,
                              geom::Vec2* est, double* res, int cols, int rows,
                              util::ThreadPool* pool) const {
  const int bs = cfg_.block_size;
  const int radius = cfg_.search_radius;

  auto match_row = [&](std::size_t row_index) {
    const int r = static_cast<int>(row_index);
    for (int c = 0; c < cols; ++c) {
      const int bx = c * bs;
      const int by = r * bs;
      int sx = 0, sy = 0;
      if (coarse != nullptr) {
        const int pc = std::min(c / 2, ccols - 1);
        const int pr = std::min(r / 2, crows - 1);
        const geom::Vec2& s =
            coarse[static_cast<std::size_t>(pr) *
                       static_cast<std::size_t>(ccols) +
                   static_cast<std::size_t>(pc)];
        sx = static_cast<int>(std::lround(s.x * 2.0));
        sy = static_cast<int>(std::lround(s.y * 2.0));
      }

      // Exhaustive search in dy-major/dx-minor order with a strict `<`: the
      // first candidate of least cost wins. Each candidate's SAD is exact,
      // so its cost matches the double-accumulating reference bit for bit.
      const BlockSad sad(pa.row(by) + bx, pa.stride(), bs);
      double best = std::numeric_limits<double>::infinity();
      int best_dx = sx, best_dy = sy;
      for (int dy = sy - radius; dy <= sy + radius; ++dy) {
        const std::uint8_t* rb = pb.row(by + dy) + bx;
        for (int dx = sx - radius; dx <= sx + radius; ++dx) {
          // Slight zero-motion bias resolves flat-texture ties toward rest.
          const double cost = static_cast<double>(sad(rb + dx, pb.stride())) +
                              0.1 * (std::abs(dx) + std::abs(dy));
          if (cost < best) {
            best = cost;
            best_dx = dx;
            best_dy = dy;
          }
        }
      }
      const std::size_t idx = static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(cols) +
                              static_cast<std::size_t>(c);
      est[idx] = {static_cast<double>(best_dx), static_cast<double>(best_dy)};
      if (res != nullptr)
        res[idx] = best / static_cast<double>(cfg_.block_size * cfg_.block_size);
    }
  };

  if (pool != nullptr && rows >= 4) {
    // Tiles (rows) write disjoint est/res ranges and read only `coarse`,
    // which is complete before this level starts — deterministic under any
    // tile-to-worker mapping.
    pool->run_tiles(static_cast<std::size_t>(rows), match_row);
  } else {
    for (int r = 0; r < rows; ++r) match_row(static_cast<std::size_t>(r));
  }
}

void OpticalFlow::compute(FlowScratch& scratch, FlowField& out,
                          util::ThreadPool* pool) const {
  assert(scratch.ready());
  assert(!scratch.cur_img_.empty() &&
         scratch.cur_img_.width() == scratch.prev_img_.width() &&
         scratch.cur_img_.height() == scratch.prev_img_.height());

  const int levels = build_cur_pyramid(scratch);
  assert(static_cast<int>(scratch.prev_pad_.size()) == levels);

  out.block_size = cfg_.block_size;

  // Coarse-to-fine: the estimate from the coarser level (scaled 2x) seeds the
  // search window at the finer level. The finest level writes straight into
  // the caller's FlowField buffers.
  const geom::Vec2* coarse = nullptr;
  int ccols = 0, crows = 0;
  for (int l = levels - 1; l >= 0; --l) {
    const PaddedImage& pa = scratch.prev_pad_[static_cast<std::size_t>(l)];
    const PaddedImage& pb = scratch.cur_pad_[static_cast<std::size_t>(l)];
    const int cols = std::max(1, pa.width() / cfg_.block_size);
    const int rows = std::max(1, pa.height() / cfg_.block_size);
    const std::size_t cells =
        static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows);
    if (l == 0) {
      out.cols = cols;
      out.rows = rows;
      out.flow.resize(cells);
      out.residual.resize(cells);
      match_level(pa, pb, coarse, ccols, crows, out.flow.data(),
                  out.residual.data(), cols, rows, pool);
    } else {
      scratch.est_.resize(cells);
      match_level(pa, pb, coarse, ccols, crows, scratch.est_.data(), nullptr,
                  cols, rows, pool);
      std::swap(scratch.est_, scratch.coarse_);
      coarse = scratch.coarse_.data();
      ccols = cols;
      crows = rows;
    }
  }
}

FlowField OpticalFlow::compute(const Image& prev, const Image& cur) const {
  assert(!prev.empty() && prev.width() == cur.width() &&
         prev.height() == cur.height());
  FlowScratch scratch;
  scratch.cur_frame() = prev;
  rebase(scratch);
  scratch.cur_frame() = cur;
  FlowField out;
  compute(scratch, out, nullptr);
  return out;
}

geom::Vec2 median_flow_in(const FlowField& field, const geom::BBox& box) {
  // Per-thread scratch: this runs per track per frame on pool workers, and
  // the zero-allocation steady-tick invariant (DESIGN.md §11) forbids a
  // fresh vector pair here. Capacity persists per thread.
  thread_local std::vector<double> xs, ys;
  xs.clear();
  ys.clear();
  for (int r = 0; r < field.rows; ++r) {
    for (int c = 0; c < field.cols; ++c) {
      const geom::Vec2 center{(c + 0.5) * field.block_size,
                              (r + 0.5) * field.block_size};
      if (!box.contains(center)) continue;
      xs.push_back(field.at(c, r).x);
      ys.push_back(field.at(c, r).y);
    }
  }
  if (xs.empty()) return {0.0, 0.0};
  auto median = [](std::vector<double>& v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    return v[mid];
  };
  return {median(xs), median(ys)};
}

double mean_flow_magnitude(const FlowField& field) {
  if (field.flow.empty()) return 0.0;
  double acc = 0.0;
  for (const geom::Vec2& v : field.flow) acc += v.norm();
  return acc / static_cast<double>(field.flow.size());
}

}  // namespace mvs::vision
