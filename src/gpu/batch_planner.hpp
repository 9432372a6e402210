#pragma once
// Greedy per-size batching (paper Sec. III-B): given the set of partial-frame
// inspection tasks assigned to one camera for one frame, group same-size
// tasks into batches up to the device's batch limit. Greedy filling per size
// class minimizes the number of batches, so a feasible assignment uniquely
// determines the optimal camera latency.

#include <vector>

#include "geometry/size_class.hpp"
#include "gpu/device_profile.hpp"

namespace mvs::gpu {

struct Batch {
  geom::SizeClassId size_class = 0;
  int count = 0;  ///< images in this batch (1 <= count <= batch limit)
};

struct BatchPlan {
  std::vector<Batch> batches;
  /// Scheduler-facing latency: number of batches x t_i^s per size class.
  double planned_latency_ms = 0.0;
  /// Simulated execution latency with the sub-linear fill model.
  double actual_latency_ms = 0.0;
};

/// Plan batches for `tasks` (one entry per partial region, value = size
/// class) on the given device.
BatchPlan plan_batches(const std::vector<geom::SizeClassId>& tasks,
                       const DeviceProfile& device);

/// plan_batches with caller-owned output and counting scratch: `plan` is
/// cleared in place (its batch vector keeps capacity) and `counts_scratch`
/// is resized to the device's class count. Bit-identical plan;
/// allocation-free once warm (DESIGN.md §11).
void plan_batches_into(const std::vector<geom::SizeClassId>& tasks,
                       const DeviceProfile& device,
                       std::vector<int>& counts_scratch, BatchPlan& plan);

/// Plan batches from per-size-class task COUNTS (counts.size() must equal
/// device.size_class_count()) into a caller-owned plan (cleared first). This
/// is the primitive behind plan_batches and the fleet arbiter's
/// cross-session merge: task multisets from any number of sessions collapse
/// to summed counts, and greedy filling over the merged counts yields the
/// minimal shared batch schedule.
void plan_batch_counts_into(const std::vector<int>& counts,
                            const DeviceProfile& device, BatchPlan& plan);

}  // namespace mvs::gpu
