#include "gpu/batch_planner.hpp"

#include <cassert>

namespace mvs::gpu {

void plan_batches_into(const std::vector<geom::SizeClassId>& tasks,
                       const DeviceProfile& device,
                       std::vector<int>& counts_scratch, BatchPlan& plan) {
  counts_scratch.assign(device.size_class_count(), 0);
  for (geom::SizeClassId s : tasks) {
    assert(s >= 0 && static_cast<std::size_t>(s) < counts_scratch.size());
    ++counts_scratch[static_cast<std::size_t>(s)];
  }
  plan_batch_counts_into(counts_scratch, device, plan);
}

BatchPlan plan_batches(const std::vector<geom::SizeClassId>& tasks,
                       const DeviceProfile& device) {
  std::vector<int> counts;
  BatchPlan plan;
  plan_batches_into(tasks, device, counts, plan);
  return plan;
}

void plan_batch_counts_into(const std::vector<int>& counts,
                            const DeviceProfile& device, BatchPlan& plan) {
  assert(counts.size() == device.size_class_count());
  plan.batches.clear();
  plan.planned_latency_ms = 0.0;
  plan.actual_latency_ms = 0.0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    int remaining = counts[s];
    const auto cls = static_cast<geom::SizeClassId>(s);
    const int limit = device.batch_limit(cls);
    while (remaining > 0) {
      const int take = remaining < limit ? remaining : limit;
      plan.batches.push_back({cls, take});
      plan.planned_latency_ms += device.batch_latency_ms(cls);
      plan.actual_latency_ms += device.actual_batch_latency_ms(cls, take);
      remaining -= take;
    }
  }
}

}  // namespace mvs::gpu
