#pragma once
// Coarse-to-fine pyramidal block-matching optical flow.
//
// Plays the role of the DIS flow estimator in the paper (Kroeger et al.,
// ECCV'16): it predicts per-block pixel motion between consecutive frames.
// The tracker uses it to (a) project tracked boxes forward and (b) find
// "new regions" — clusters of moving pixels not explained by any tracked
// object — where new objects may have appeared (paper Sec. II-B).
//
// Performance engineering (DESIGN.md §7): matching runs on edge-replicated
// PaddedImage rows with an exact integer block SAD (an SSE2 whole-block
// kernel for 8x8 blocks, a scalar loop otherwise); per-camera FlowScratch
// state carries the previous frame's pyramid across frames so each regular
// frame builds exactly one pyramid and reallocates nothing.
// Outputs are bit-identical to the straight-line reference implementation
// (kept in tests/test_vision.cpp as the golden oracle).

#include <cstdint>
#include <vector>

#include "geometry/bbox.hpp"
#include "vision/image.hpp"

namespace mvs::util {
class ThreadPool;
}

namespace mvs::vision {

/// Per-block motion field at the finest pyramid level.
struct FlowField {
  int block_size = 8;
  int cols = 0;
  int rows = 0;
  std::vector<geom::Vec2> flow;     ///< row-major block motions (pixels)
  std::vector<double> residual;     ///< matching SAD residual per block

  const geom::Vec2& at(int col, int row) const {
    return flow[static_cast<std::size_t>(row) * static_cast<std::size_t>(cols) +
                static_cast<std::size_t>(col)];
  }
  double residual_at(int col, int row) const {
    return residual[static_cast<std::size_t>(row) *
                        static_cast<std::size_t>(cols) +
                    static_cast<std::size_t>(col)];
  }
};

/// Integer sum of absolute differences between the size x size block of `a`
/// at (ax, ay) and the block of `b` at (bx, by). Reads may run into the
/// replicated borders, which reproduces Image::at_clamped semantics as long
/// as every coordinate stays within the images' pad. Same kernel as the flow
/// matcher: SSE2 at size 8, scalar otherwise.
std::uint32_t padded_block_sad(const PaddedImage& a, int ax, int ay,
                               const PaddedImage& b, int bx, int by, int size);

/// Per-camera scratch state for incremental flow computation: the current
/// frame to render into, both frames' pyramids (image + padded levels), and
/// the per-level match buffers. advance() promotes the current frame's
/// pyramid to "previous" in O(1) (buffer swaps), so consecutive frames build
/// one pyramid each instead of two.
class FlowScratch {
 public:
  /// Level-0 frame the caller renders the new frame into.
  Image& cur_frame() { return cur_img_; }
  const Image& cur_frame() const { return cur_img_; }

  /// True once a previous-frame pyramid is in place (i.e. compute() may run).
  bool ready() const { return ready_; }

  /// Promote the current frame (pyramid built by OpticalFlow::compute or
  /// OpticalFlow::rebase) to the previous frame. Buffer swaps only.
  void advance();

  /// Forget the previous frame (e.g. after a camera rejoins).
  void reset() {
    ready_ = false;
    built_ = false;
  }

 private:
  friend class OpticalFlow;
  Image prev_img_, cur_img_;
  std::vector<Image> prev_lv_, cur_lv_;         ///< levels 1.. (0 = *_img_)
  std::vector<PaddedImage> prev_pad_, cur_pad_; ///< padded levels 0..
  std::vector<geom::Vec2> est_, coarse_;        ///< per-level match buffers
  bool built_ = false;  ///< cur pyramid valid (set by the builder)
  bool ready_ = false;  ///< prev pyramid valid (set by advance)
};

class OpticalFlow {
 public:
  struct Config {
    int block_size = 8;     ///< block side at the finest level
    int pyramid_levels = 3; ///< >= 1
    int search_radius = 3;  ///< +/- pixels searched at each level
  };

  OpticalFlow() = default;
  explicit OpticalFlow(Config cfg) : cfg_(cfg) {}

  /// Compute block motion from `prev` to `cur` (same dimensions, non-empty).
  /// Convenience path: copies both frames into a throwaway FlowScratch.
  FlowField compute(const Image& prev, const Image& cur) const;

  /// Incremental path: compute block motion from the scratch's previous
  /// frame to scratch.cur_frame(), reusing every buffer. Requires
  /// scratch.ready(). When `pool` is non-null, block rows are tiled across
  /// its workers (bit-identical output regardless of tiling: tiles write
  /// disjoint row ranges and read only the finished coarser level). Call
  /// scratch.advance() afterwards to make the current frame the reference.
  void compute(FlowScratch& scratch, FlowField& out,
               util::ThreadPool* pool = nullptr) const;

  /// Build the pyramid for scratch.cur_frame() and promote it to the
  /// previous frame without matching (key frames: establish the flow
  /// reference for the next regular frame).
  void rebase(FlowScratch& scratch) const;

  const Config& config() const { return cfg_; }

 private:
  /// Build pyramid + padded levels for the current frame; returns level count.
  int build_cur_pyramid(FlowScratch& scratch) const;

  void match_level(const PaddedImage& pa, const PaddedImage& pb,
                   const geom::Vec2* coarse, int ccols, int crows,
                   geom::Vec2* est, double* res, int cols, int rows,
                   util::ThreadPool* pool) const;

  Config cfg_{};
};

/// Robust (median) motion of the blocks whose centers fall inside `box`.
/// Returns {0,0} when the box covers no block center.
geom::Vec2 median_flow_in(const FlowField& field, const geom::BBox& box);

}  // namespace mvs::vision
