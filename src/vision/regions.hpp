#pragma once
// Moving-region extraction and ROI slicing.
//
// With statically mounted cameras, flow-field motion comes only from object
// movement (paper Sec. II-B). Blocks with significant motion that are not
// inside any predicted object box are clustered into "new regions" and fed
// to the detector so new objects are found at first appearance instead of at
// the next key frame.

#include <vector>

#include "geometry/bbox.hpp"
#include "geometry/size_class.hpp"
#include "vision/optical_flow.hpp"

namespace mvs::vision {

struct NewRegionConfig {
  double motion_threshold = 1.5;  ///< min block |flow| in pixels
  double min_area = 64.0;         ///< drop tiny noise clusters (px^2)
  double merge_margin = 4.0;      ///< grow boxes before reporting
};

/// Reusable working memory for extract_new_regions_into: the moving/seen
/// block masks and the connected-component frontier (DESIGN.md §11).
struct RegionScratch {
  std::vector<char> moving, seen;
  std::vector<std::pair<int, int>> frontier;
};

/// Connected components (4-connectivity over flow blocks) of moving blocks
/// whose centers are outside every `predicted` box, merged into bounding
/// boxes scaled by `scale` (rendered frames may be a downscaled view of the
/// logical frame; scale maps block coordinates back to logical pixels).
/// Caller-owned scratch and output (cleared first); allocation-free once
/// the scratch is warm.
void extract_new_regions_into(const FlowField& field,
                              const std::vector<geom::BBox>& predicted,
                              double scale, const NewRegionConfig& cfg,
                              RegionScratch& scratch,
                              std::vector<geom::BBox>& out);

/// A partial-frame inspection region: the quantized square ROI around one
/// predicted object location plus its size class (the GPU batching key).
struct SliceRegion {
  geom::BBox roi;
  geom::SizeClassId size_class = 0;
  long track_id = -1;  ///< the tracked object this slice searches for
};

/// Build quantized slice regions for the given predicted boxes (paper's
/// "tracking-based image slicing") into a caller-owned vector (cleared
/// first). Regions are clamped to the frame.
void slice_regions_into(
    const std::vector<std::pair<long, geom::BBox>>& predicted,
    const geom::SizeClassSet& sizes, double frame_w, double frame_h,
    double margin, std::vector<SliceRegion>& out);

}  // namespace mvs::vision
