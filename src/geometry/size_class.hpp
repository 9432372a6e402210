#pragma once
// Target-size quantization (paper Sec. II-B / III-A).
//
// Partial-frame inspection regions are expanded to the nearest size in a
// small quantized set S = {64, 128, 256, 512} so that regions with the same
// size can be batched together on the GPU. Regions larger than the largest
// class are downsampled to it.

#include <array>
#include <cstddef>
#include <vector>

#include "geometry/bbox.hpp"

namespace mvs::geom {

/// Index into the quantized size set; kInvalidSizeClass means "full frame".
using SizeClassId = int;
inline constexpr SizeClassId kFullFrameSizeClass = -1;

/// The quantized target-size set used throughout the system. Matches the
/// paper's choice for YOLOv5 partial-frame detection.
class SizeClassSet {
 public:
  /// Default paper set {64, 128, 256, 512} (square pixel regions).
  SizeClassSet();

  std::size_t count() const { return sizes_.size(); }
  int size_of(SizeClassId id) const { return sizes_.at(static_cast<std::size_t>(id)); }
  const std::vector<int>& sizes() const { return sizes_; }

  /// Smallest class whose side covers max(w, h) after adding `margin` on each
  /// side; regions larger than the biggest class map to the biggest class
  /// (they are downsampled, per the paper).
  SizeClassId quantize(const BBox& box, double margin = 8.0) const;

  /// Expand `box` about its center to the square of its quantized class.
  /// If the region exceeds the largest class it keeps its own (downsampled)
  /// extent but still reports the largest class.
  BBox expand_to_class(const BBox& box, SizeClassId id) const;

 private:
  std::vector<int> sizes_;  // ascending
};

}  // namespace mvs::geom
