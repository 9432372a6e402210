#include "fleet/arbiter.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/obs.hpp"

namespace mvs::fleet {

/// Planning working memory reused across ticks. Groups persist (sorted by
/// device-class name, so iteration order matches the std::map the original
/// implementation used); per-tick state inside each group is reset in place.
/// Nothing here carries observable state between plan_tick_into calls.
struct PlanScratch {
  /// All submissions targeting one device class, with per-submission and
  /// merged size-class counts.
  struct ClassGroup {
    std::string name;                            ///< device class (sort key)
    const gpu::DeviceProfile* device = nullptr;  ///< reset every tick
    std::vector<std::size_t> members;            ///< indices into subs
    std::vector<std::vector<int>> counts;        ///< per member, per class
    std::vector<int> total;                      ///< merged, per class
  };

  /// One planning + device-pool scheduling pass over a class group.
  struct ClassOutcome {
    gpu::BatchPlan merged;
    std::vector<double> attributed;  ///< per member: batch shares + full frame
    std::vector<double> serial;      ///< per member: own units back-to-back
    std::vector<double> finish;      ///< per member: last unit's completion
    std::vector<double> free_at;     ///< per device: earliest idle time
    std::vector<double> class_cost;  ///< per size class: Σ batch cost
    std::vector<double> class_end;   ///< per size class: last batch's end
  };

  std::vector<ClassGroup> groups;  ///< sorted by name; grows, never shrinks
  ClassOutcome outcome;
  gpu::BatchPlan isolated;  ///< per-member dedicated-device plan
  // Cold-path (batch split) buffers: shed order and post-shed counts.
  std::vector<std::size_t> order;
  std::vector<std::vector<int>> split_counts;
  std::vector<int> split_total;
};

GpuArbiter::GpuArbiter() = default;
GpuArbiter::~GpuArbiter() = default;

void GpuArbiter::begin_tick() { active_ = 0; }

void GpuArbiter::submit(int session, int camera,
                        const gpu::DeviceProfile& device,
                        const runtime::CameraGpuWork& work, double weight) {
  // Reuse the slot (and its task buffer's capacity) from a previous tick.
  if (active_ == subs_.size()) subs_.emplace_back();
  Submission& sub = subs_[active_++];
  sub.session = session;
  sub.camera = camera;
  sub.weight = weight;
  sub.full_frame = work.full_frame;
  sub.tasks.assign(work.tasks.begin(), work.tasks.end());
  sub.device = &device;
}

void GpuArbiter::set_device_count(const std::string& device_class, int count) {
  device_counts_[device_class] = std::max(1, count);
}

int GpuArbiter::device_count(const std::string& device_class) const {
  const auto it = device_counts_.find(device_class);
  return it == device_counts_.end() ? 1 : it->second;
}

namespace {

/// Plan the merged counts and list-schedule the batches (plan order, then
/// full frames in member order) onto `devices` earliest-free-first. Each
/// dispatch costs `overhead_ms` extra (charged into the batch) and passes
/// through a single per-class dispatcher that cannot issue two batches
/// closer together than the overhead — wide pools go sublinear.
///
/// A member with tasks of size class s takes part in every batch of s, so
/// the schedule is rolled up per size class (Σ cost, last end) and members
/// are charged in one members x classes pass: linear in members. A lone
/// member is charged the plan-order running sum instead, which is how
/// gpu::plan_batch_counts accumulates — with one device (and any
/// overhead) each batch issues when the previous one ends, so attributed ==
/// serial == finish bit-for-bit: the fleet-of-one identity.
///
/// `counts` may be longer than g.members (persistent scratch); only the
/// first g.members.size() entries are read.
void run_class(const std::vector<Submission>& subs,
               const PlanScratch::ClassGroup& g,
               const std::vector<std::vector<int>>& counts,
               const std::vector<int>& total, int devices, double overhead_ms,
               PlanScratch::ClassOutcome& out) {
  gpu::plan_batch_counts_into(total, *g.device, out.merged);
  const std::size_t n = g.members.size();
  out.attributed.assign(n, 0.0);
  out.serial.assign(n, 0.0);
  out.finish.assign(n, 0.0);
  out.class_cost.assign(total.size(), 0.0);
  out.class_end.assign(total.size(), 0.0);

  std::vector<double>& free_at = out.free_at;
  free_at.assign(static_cast<std::size_t>(std::max(1, devices)), 0.0);
  double dispatcher_free = 0.0;
  const auto earliest = [&free_at]() {
    std::size_t best = 0;
    for (std::size_t d = 1; d < free_at.size(); ++d)
      if (free_at[d] < free_at[best]) best = d;
    return best;
  };

  double running = 0.0;  // Σ cost in plan order (the lone-member charge)
  for (const gpu::Batch& b : out.merged.batches) {
    const auto s = static_cast<std::size_t>(b.size_class);
    const double cost =
        overhead_ms + g.device->actual_batch_latency_ms(b.size_class, b.count);
    const std::size_t d = earliest();
    const double issue = std::max(free_at[d], dispatcher_free);
    dispatcher_free = issue + overhead_ms;
    const double end = issue + cost;
    free_at[d] = end;
    running += cost;
    out.class_cost[s] += cost;
    out.class_end[s] = std::max(out.class_end[s], end);
  }
  if (n == 1) {
    out.attributed[0] = running;
    out.serial[0] = running;
    for (const double end : out.class_end)
      out.finish[0] = std::max(out.finish[0], end);
  } else {
    for (std::size_t mi = 0; mi < n; ++mi) {
      for (std::size_t s = 0; s < total.size(); ++s) {
        if (counts[mi][s] == 0) continue;
        const double share =
            static_cast<double>(counts[mi][s]) / static_cast<double>(total[s]);
        out.attributed[mi] += share * out.class_cost[s];
        out.serial[mi] += out.class_cost[s];
        out.finish[mi] = std::max(out.finish[mi], out.class_end[s]);
      }
    }
  }
  for (std::size_t mi = 0; mi < n; ++mi) {
    if (!subs[g.members[mi]].full_frame) continue;
    const double full = overhead_ms + g.device->full_frame_ms();
    const std::size_t d = earliest();
    const double issue = std::max(free_at[d], dispatcher_free);
    dispatcher_free = issue + overhead_ms;
    const double end = issue + full;
    free_at[d] = end;
    out.attributed[mi] += full;
    out.serial[mi] += full;
    out.finish[mi] = std::max(out.finish[mi], end);
  }
}

}  // namespace

TickPlan GpuArbiter::plan_tick(const TickContext& ctx) const {
  TickPlan plan;
  plan_tick_into(ctx, plan);
  return plan;
}

void GpuArbiter::plan_tick_into(const TickContext& ctx, TickPlan& plan) const {
  if (!scratch_) scratch_ = std::make_unique<PlanScratch>();
  PlanScratch& s = *scratch_;

  plan.shares.resize(active_);
  plan.cells.clear();
  plan.shared_batches = 0;
  plan.isolated_batches = 0;
  plan.shared_busy_ms = 0.0;
  plan.isolated_busy_ms = 0.0;
  plan.queue_ms_total = 0.0;
  plan.splits = 0;
  plan.deferred.clear();

  // Group by device class. The group list stays sorted by name so the
  // per-class iteration below is deterministic (lexicographic, exactly like
  // the std::map this scratch replaces); a never-before-seen class name
  // inserts once (cold), after which grouping reuses the slot forever.
  for (PlanScratch::ClassGroup& g : s.groups) {
    g.members.clear();
    g.device = nullptr;
  }
  for (std::size_t k = 0; k < active_; ++k) {
    const Submission& sub = subs_[k];
    plan.shares[k].session = sub.session;
    plan.shares[k].camera = sub.camera;
    const std::string& name = sub.device->name();
    std::size_t gi = 0;
    while (gi < s.groups.size() && s.groups[gi].name < name) ++gi;
    if (gi == s.groups.size() || s.groups[gi].name != name) {
      s.groups.emplace(s.groups.begin() + static_cast<std::ptrdiff_t>(gi));
      s.groups[gi].name = name;
    }
    PlanScratch::ClassGroup& g = s.groups[gi];
    if (!g.device) {
      g.device = sub.device;
      g.total.assign(sub.device->size_class_count(), 0);
    }
    g.members.push_back(k);
    if (g.counts.size() < g.members.size()) g.counts.emplace_back();
    std::vector<int>& counts = g.counts[g.members.size() - 1];
    counts.assign(g.device->size_class_count(), 0);
    for (geom::SizeClassId sc : sub.tasks) {
      assert(sc >= 0 && static_cast<std::size_t>(sc) < counts.size());
      ++counts[static_cast<std::size_t>(sc)];
      ++g.total[static_cast<std::size_t>(sc)];
    }
  }

  const double oh = std::max(0.0, ctx.dispatch_overhead_ms);
  for (const PlanScratch::ClassGroup& g : s.groups) {
    if (g.members.empty()) continue;
    MVS_SPAN("gpu.batch_plan");
    const int devices = device_count(g.name);
    PlanScratch::ClassOutcome& out = s.outcome;
    run_class(subs_, g, g.counts, g.total, devices, oh, out);
    const std::vector<int>* executed = &g.total;

    // Preemptive split: when the schedule would make a top-weight
    // contributor miss the SLO, defer half of one over-full batch (the last
    // splittable batch in plan order) to the next tick slot, shedding from
    // the lowest-weight members first, then re-plan the class once. This
    // branch only runs under SLO pressure; it copies the class counts (the
    // isolated rollup below must keep charging the PRE-split counts).
    if (ctx.allow_split && ctx.slo_ms > 0.0 && !out.merged.batches.empty()) {
      double top_weight = 0.0;
      for (const std::size_t k : g.members)
        top_weight = std::max(top_weight, subs_[k].weight);
      bool miss = false;
      for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
        const double latency =
            out.attributed[mi] +
            std::max(0.0, out.finish[mi] - out.serial[mi]);
        if (subs_[g.members[mi]].weight >= top_weight &&
            latency > ctx.slo_ms) {
          miss = true;
          break;
        }
      }
      const gpu::Batch* victim_batch = nullptr;
      for (auto it = out.merged.batches.rbegin();
           it != out.merged.batches.rend() && miss; ++it)
        if (it->count >= 2) {
          victim_batch = &*it;
          break;
        }
      if (victim_batch) {
        const geom::SizeClassId victim_class = victim_batch->size_class;
        const auto vs = static_cast<std::size_t>(victim_class);
        int remaining = victim_batch->count / 2;
        const std::size_t n = g.members.size();
        s.split_counts.resize(std::max(s.split_counts.size(), n));
        for (std::size_t mi = 0; mi < n; ++mi)
          s.split_counts[mi].assign(g.counts[mi].begin(), g.counts[mi].end());
        s.split_total.assign(g.total.begin(), g.total.end());
        // Lowest weight sheds first; ties keep submission order.
        s.order.resize(n);
        std::iota(s.order.begin(), s.order.end(), std::size_t{0});
        std::stable_sort(s.order.begin(), s.order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return subs_[g.members[a]].weight <
                                  subs_[g.members[b]].weight;
                         });
        bool deferred_any = false;
        for (const std::size_t mi : s.order) {
          if (remaining <= 0) break;
          const int take = std::min(remaining, s.split_counts[mi][vs]);
          if (take <= 0) continue;
          s.split_counts[mi][vs] -= take;
          s.split_total[vs] -= take;
          remaining -= take;
          deferred_any = true;
          plan.deferred.push_back({subs_[g.members[mi]].session,
                                   subs_[g.members[mi]].camera, victim_class,
                                   take});
        }
        if (deferred_any) {
          ++plan.splits;
          run_class(subs_, g, s.split_counts, s.split_total, devices, oh, out);
          executed = &s.split_total;
        }
      }
    }

    // Expose the class's executed (post-split) counts; warm ticks reuse the
    // vector's capacity (no allocation).
    for (std::size_t sc = 0; sc < executed->size(); ++sc)
      if ((*executed)[sc] > 0)
        plan.cells.push_back(
            {g.device, static_cast<geom::SizeClassId>(sc), (*executed)[sc]});

    plan.shared_batches += static_cast<long>(out.merged.batches.size());
    plan.shared_busy_ms +=
        out.merged.actual_latency_ms +
        oh * static_cast<double>(out.merged.batches.size());
    MVS_COUNT("gpu.merged_batches", out.merged.batches.size());
    MVS_HIST("gpu.merged_busy_ms", out.merged.actual_latency_ms);

    for (std::size_t mi = 0; mi < g.members.size(); ++mi) {
      const std::size_t k = g.members[mi];
      gpu::plan_batch_counts_into(g.counts[mi], *g.device, s.isolated);
      plan.isolated_batches += static_cast<long>(s.isolated.batches.size());
      plan.isolated_busy_ms +=
          s.isolated.actual_latency_ms +
          oh * static_cast<double>(s.isolated.batches.size());
      plan.shares[k].attributed_ms = out.attributed[mi];
      plan.shares[k].queue_ms =
          std::max(0.0, out.finish[mi] - out.serial[mi]);
      plan.shares[k].isolated_ms =
          s.isolated.actual_latency_ms +
          oh * static_cast<double>(s.isolated.batches.size());
      if (subs_[k].full_frame) {
        const double full = oh + g.device->full_frame_ms();
        plan.shares[k].isolated_ms += full;
        plan.shared_busy_ms += full;
        plan.isolated_busy_ms += full;
      }
      plan.queue_ms_total += plan.shares[k].queue_ms;
    }
  }
}

}  // namespace mvs::fleet
