#include "vision/image.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace mvs::vision {

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width),
      height_(height),
      data_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
            fill) {
  assert(width >= 0 && height >= 0);
}

std::uint8_t Image::at_clamped(int x, int y) const {
  x = std::clamp(x, 0, width_ - 1);
  y = std::clamp(y, 0, height_ - 1);
  return at(x, y);
}

void Image::resize(int width, int height) {
  assert(width >= 0 && height >= 0);
  width_ = width;
  height_ = height;
  data_.resize(static_cast<std::size_t>(width) *
               static_cast<std::size_t>(height));
}

Image Image::downsampled() const {
  Image out;
  downsample_into(out);
  return out;
}

void Image::downsample_into(Image& out) const {
  assert(this != &out);
  const int w = std::max(1, width_ / 2);
  const int h = std::max(1, height_ / 2);
  out.resize(w, h);
  for (int y = 0; y < h; ++y) {
    const int sy = std::min(2 * y, height_ - 1);
    const int sy1 = std::min(sy + 1, height_ - 1);
    const std::uint8_t* r0 = row(sy);
    const std::uint8_t* r1 = row(sy1);
    std::uint8_t* dst = out.row(y);
    for (int x = 0; x < w; ++x) {
      const int sx = std::min(2 * x, width_ - 1);
      const int sx1 = std::min(sx + 1, width_ - 1);
      const int sum = r0[sx] + r0[sx1] + r1[sx] + r1[sx1];
      dst[x] = static_cast<std::uint8_t>(sum / 4);
    }
  }
}

void PaddedImage::assign(const Image& src, int pad) {
  assert(!src.empty() && pad >= 0);
  width_ = src.width();
  height_ = src.height();
  pad_ = pad;
  stride_ = width_ + 2 * pad;
  data_.resize(static_cast<std::size_t>(stride_) *
               static_cast<std::size_t>(height_ + 2 * pad));

  // Interior rows: left/right border replicates the row's edge pixels.
  for (int y = 0; y < height_; ++y) {
    std::uint8_t* dst =
        data_.data() + static_cast<std::size_t>(y + pad) *
                           static_cast<std::size_t>(stride_);
    const std::uint8_t* s = src.row(y);
    std::memset(dst, s[0], static_cast<std::size_t>(pad));
    std::memcpy(dst + pad, s, static_cast<std::size_t>(width_));
    std::memset(dst + pad + width_, s[width_ - 1],
                static_cast<std::size_t>(pad));
  }
  // Top/bottom borders replicate the first/last padded row wholesale.
  const std::uint8_t* top =
      data_.data() + static_cast<std::size_t>(pad) *
                         static_cast<std::size_t>(stride_);
  const std::uint8_t* bottom =
      data_.data() + static_cast<std::size_t>(pad + height_ - 1) *
                         static_cast<std::size_t>(stride_);
  for (int y = 0; y < pad; ++y) {
    std::memcpy(data_.data() + static_cast<std::size_t>(y) *
                                   static_cast<std::size_t>(stride_),
                top, static_cast<std::size_t>(stride_));
    std::memcpy(data_.data() + static_cast<std::size_t>(pad + height_ + y) *
                                   static_cast<std::size_t>(stride_),
                bottom, static_cast<std::size_t>(stride_));
  }
}

}  // namespace mvs::vision
