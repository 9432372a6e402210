#pragma once
// Cross-session GPU arbiter (mvs::fleet).
//
// The serving host pools the accelerators of each device class (profile
// name) into one shared queue per class. Every tick, each hosted session
// submits its cameras' partial-frame inspection tasks; the arbiter merges
// the task multisets per (device class, size class) and plans batches over
// the MERGED counts with the same greedy filling the paper uses per camera
// (gpu::plan_batch_counts_into). Because batch latency t_i^s is flat in fill
// before the inflection point, topping a session's incomplete batch up with
// another session's same-size tasks costs nothing extra — so each session's
// own BALB latency estimate stays correct while the fleet executes strictly
// fewer (never more) batches than sessions running on dedicated devices.
//
// Elastic device pools: each class has a device COUNT (default 1, scaled at
// runtime via Fleet::scale_devices). The merged plan's batches are list-
// scheduled in plan order onto the class's devices (earliest-free first,
// full-frame inspections after the partial batches); a submission's
// queueing delay is how much later its last unit finishes than its own
// serial execution time would take. With one submission per class on one
// device the schedule accumulates in exactly the attribution order, so the
// delay is bit-exactly zero — preserving the fleet-of-one identity.
//
// Latency attribution: the actual (fill-model) latency of a size class's
// batches is split across contributing sessions in proportion to their task
// counts of that size class — one rollup per size class, so a tick costs
// time linear in submissions. A submission that is alone on its device
// class is charged the plan-order sum, bit-exactly what gpu::plan_batches
// would charge it — the fleet-of-one identity the tests pin down. Full-frame inspections (key frames / Full policy) are exclusive:
// charged whole to their session and never merged.
//
// Preemptive batch splitting: when a TickContext carries an SLO and permits
// splitting, a class whose schedule would make a contributing session miss
// the deadline may split ONE over-full batch: half of its tasks are pushed
// to the next tick slot (listed in TickPlan::deferred; the fleet re-injects
// them into the owners' next submissions), shedding load from the
// lowest-weight contributors first. Attribution stays conservation-exact:
// the tick charges exactly the batches it executes, and deferred tasks are
// charged on the tick that runs them.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/batch_planner.hpp"
#include "gpu/device_profile.hpp"
#include "runtime/pipeline.hpp"

namespace mvs::fleet {

/// One camera's GPU demand submitted for the current tick.
struct Submission {
  int session = 0;
  int camera = 0;
  double weight = 1.0;  ///< owner's dispatch weight (batch-split priority)
  bool full_frame = false;
  std::vector<geom::SizeClassId> tasks;  ///< partial-region size classes
  const gpu::DeviceProfile* device = nullptr;  ///< non-owning
};

/// Per-submission outcome of one tick's cross-session plan.
struct Attribution {
  int session = 0;
  int camera = 0;
  /// This camera's share of the shared batches it participated in, plus its
  /// exclusive full-frame charge. Sums over all submissions to the tick's
  /// total GPU busy time.
  double attributed_ms = 0.0;
  /// Queueing delay on the class's device pool: completion time of the
  /// camera's last unit minus its own serial execution time. Exactly zero
  /// when the camera is alone on its class (fleet-of-one identity).
  double queue_ms = 0.0;
  /// What a dedicated per-camera device would charge (gpu::plan_batches on
  /// this submission alone) — the paper's single-deployment number.
  double isolated_ms = 0.0;
};

/// Tasks a batch split pushed out of the current tick, owed to the next
/// tick slot of the owning (session, camera).
struct DeferredSlice {
  int session = 0;
  int camera = 0;
  geom::SizeClassId size_class = 0;
  int count = 0;
};

/// One (device class, size class) cell of a tick's merged plan: the task
/// count the class actually executed this tick (post-split). Only
/// non-empty cells are listed.
struct MergeCell {
  const gpu::DeviceProfile* device = nullptr;  ///< non-owning
  geom::SizeClassId size_class = 0;
  int count = 0;
};

/// One tick's merged plan across every submission.
struct TickPlan {
  std::vector<Attribution> shares;  ///< submission order
  std::vector<MergeCell> cells;     ///< merged counts per (class, size)
  /// Partial-frame batches in the merged plan / summed per-submission plans
  /// (full-frame inspections excluded from both counts: they are identical
  /// on both sides and would dilute the batching comparison).
  long shared_batches = 0;
  long isolated_batches = 0;
  /// Total GPU busy time (partial batches + full frames) under the merged
  /// plan and under dedicated devices. Conservation: the attributed_ms of
  /// all shares sums bit-closely to shared_busy_ms (splits included — a
  /// tick only charges the batches it actually executes).
  double shared_busy_ms = 0.0;
  double isolated_busy_ms = 0.0;
  /// Summed per-submission queueing delay on the device pools.
  double queue_ms_total = 0.0;
  /// Batch splits performed this tick and the task slices they deferred.
  long splits = 0;
  std::vector<DeferredSlice> deferred;
};

/// Per-tick planning context (SLO-aware batch splitting).
struct TickContext {
  /// Frame deadline (ms); <= 0 disables splitting.
  double slo_ms = 0.0;
  /// Permit splitting an over-full batch across two tick slots.
  bool allow_split = false;
  /// Fixed per-batch dispatch cost (ms): kernel-launch / DMA setup time
  /// serialized through ONE dispatcher per device class. Each batch (and
  /// full frame) costs overhead + latency on its device, and consecutive
  /// dispatches cannot issue closer together than the overhead — which is
  /// what keeps wide pools from scaling linearly. 0 (the default) is the
  /// ideal overhead-free arbiter and preserves every bit-identity guard.
  double dispatch_overhead_ms = 0.0;
};

/// Reusable planning working memory (defined in arbiter.cpp): per-class
/// grouping buffers, merged/isolated batch plans, schedule arrays. Owned by
/// the arbiter so warm plan_tick_into calls allocate nothing (DESIGN.md
/// §11).
struct PlanScratch;

class GpuArbiter {
 public:
  GpuArbiter();
  ~GpuArbiter();
  GpuArbiter(const GpuArbiter&) = delete;
  GpuArbiter& operator=(const GpuArbiter&) = delete;

  /// Discard the previous tick's submissions. Submission slots (and their
  /// task buffers) are retained for reuse.
  void begin_tick();

  /// Register one camera's demand. `device` must outlive plan_tick_into();
  /// profiles sharing a name are assumed identical (they come from the
  /// gpu:: factory functions). `weight` is the owning session's dispatch
  /// weight; batch splits defer the lowest weights first.
  void submit(int session, int camera, const gpu::DeviceProfile& device,
              const runtime::CameraGpuWork& work, double weight = 1.0);

  /// Merge, plan, schedule onto the device pools, and attribute, into a
  /// caller-owned plan (fields reset in place).
  /// Deterministic: grouping is by device name (lexicographic), attribution
  /// follows size-class order, list scheduling follows plan order onto the
  /// earliest-free device, and submission order is preserved in `shares`.
  /// Warm steady-state ticks reuse every buffer — the fleet hot path. The
  /// cold batch-split branch may still allocate (it copies the class counts
  /// to re-plan); it only runs under SLO pressure.
  void plan_tick_into(const TickContext& ctx, TickPlan& plan) const;

  /// Devices serving `device_class` (>= 1; classes default to one device).
  void set_device_count(const std::string& device_class, int count);
  int device_count(const std::string& device_class) const;
  /// Every class with an explicit pool size (sorted by class name).
  const std::map<std::string, int>& device_counts() const {
    return device_counts_;
  }

  std::size_t submission_count() const { return active_; }

 private:
  /// Submission slots. Only the first `active_` entries belong to the
  /// current tick; begin_tick() rewinds `active_` instead of clearing so
  /// each slot's task vector keeps its capacity across ticks.
  std::vector<Submission> subs_;
  std::size_t active_ = 0;
  std::map<std::string, int> device_counts_;
  /// Lazily built planning scratch; mutable because plan_tick_into is logically
  /// const (the scratch carries no observable state between calls).
  mutable std::unique_ptr<PlanScratch> scratch_;
};

}  // namespace mvs::fleet
