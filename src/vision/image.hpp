#pragma once
// Grayscale raster image. The optical-flow tracker operates on real pixels
// rendered by vision::Renderer, so the motion-estimation code path matches a
// deployment that feeds camera frames into a DIS-style flow estimator.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvs::vision {

class Image {
 public:
  Image() = default;
  Image(int width, int height, std::uint8_t fill = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  std::uint8_t at(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  void set(int x, int y, std::uint8_t v) {
    data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
  }

  /// Raw row pointer (y in [0, height)); hot kernels index columns directly.
  const std::uint8_t* row(int y) const {
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  std::uint8_t* row(int y) {
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }

  /// Clamped read: out-of-bounds coordinates return the nearest edge pixel.
  std::uint8_t at_clamped(int x, int y) const;

  /// Reshape to width x height. Pixel contents are unspecified afterwards;
  /// no reallocation when the new size fits the existing capacity.
  void resize(int width, int height);

  /// 2x box-filter downsample (floor dimensions, minimum 1x1).
  Image downsampled() const;

  /// Same as downsampled() but writes into `out`, reusing its storage. One
  /// pass: every output pixel is written exactly once (no fill-then-overwrite)
  /// and nothing allocates once `out` has reached the target capacity.
  void downsample_into(Image& out) const;

  const std::vector<std::uint8_t>& data() const { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Edge-replicated padded copy of an Image. Reads at x in [-pad, width+pad)
/// and y in [-pad, height+pad) hit real storage that replicates the nearest
/// edge pixel, so hot kernels (block SAD) can walk raw row pointers with
/// Image::at_clamped semantics and zero per-pixel bounds logic.
class PaddedImage {
 public:
  PaddedImage() = default;

  /// (Re)fill from `src` with `pad` pixels of replicated border on every
  /// side. Reuses the internal buffer when the padded size is unchanged.
  void assign(const Image& src, int pad);

  int width() const { return width_; }
  int height() const { return height_; }
  int pad() const { return pad_; }
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// Row pointer for y in [-pad, height+pad); valid column offsets are
  /// [-pad, width+pad).
  const std::uint8_t* row(int y) const {
    return data_.data() +
           static_cast<std::size_t>(y + pad_) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(pad_);
  }

  /// Distance in bytes between consecutive rows.
  std::ptrdiff_t stride() const { return stride_; }

  /// Clamped-equivalent read (for tests; kernels use row()).
  std::uint8_t at(int x, int y) const { return row(y)[x]; }

 private:
  int width_ = 0;
  int height_ = 0;
  int pad_ = 0;
  int stride_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Mean absolute pixel difference over the whole frame (test helper).
double mean_abs_diff(const Image& a, const Image& b);

}  // namespace mvs::vision
