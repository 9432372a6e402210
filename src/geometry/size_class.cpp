#include "geometry/size_class.hpp"

#include <algorithm>
#include <cassert>

namespace mvs::geom {

SizeClassSet::SizeClassSet() : sizes_{64, 128, 256, 512} {}

SizeClassId SizeClassSet::quantize(const BBox& box, double margin) const {
  const double need = std::max(box.w, box.h) + 2.0 * margin;
  for (std::size_t i = 0; i < sizes_.size(); ++i) {
    if (static_cast<double>(sizes_[i]) >= need)
      return static_cast<SizeClassId>(i);
  }
  return static_cast<SizeClassId>(sizes_.size() - 1);
}

BBox SizeClassSet::expand_to_class(const BBox& box, SizeClassId id) const {
  assert(id >= 0 && static_cast<std::size_t>(id) < sizes_.size());
  const double side = static_cast<double>(sizes_[static_cast<std::size_t>(id)]);
  const double w = std::max(box.w, side);
  const double h = std::max(box.h, side);
  // If the box already exceeds the class side it is kept (and will be
  // downsampled by the detector); otherwise grow to the exact class square.
  return BBox::from_center(box.center(), std::max(side, w), std::max(side, h));
}

}  // namespace mvs::geom
