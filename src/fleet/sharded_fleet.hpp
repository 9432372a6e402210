#pragma once
// Sharded serving plane (mvs::fleet) — the 1k-10k-session FleetApi.
//
// A ShardedFleet hosts sessions across N Shards, each with its own
// GpuArbiter and tick wheel, all stepping concurrently on ONE shared
// util::ThreadPool. The plane adds exactly four things on top of the
// shards (DESIGN.md §13):
//
//   Placement — admit() picks the least-loaded shard by static placement
//   demand (Σ admission-time demand of hosted sessions, maintained
//   incrementally, so placement is O(shards)); with shard_capacity set the
//   per-shard headroom check is O(1). Ties go to the lowest shard index,
//   so placement is deterministic and thread-count independent.
//
//   Directory — callers hold plane-level SessionHandles; a handle table
//   maps each to (shard, inner handle). Live migration retires the inner
//   handle and re-issues one on the target shard while the OUTER handle is
//   untouched: caller identity is migration-stable by construction.
//
//   Two-level merge — each shard merges its own sessions' work per tick
//   (first level); the plane then folds every shard's executed merge cells
//   per device class (second level) and accounts the batches/busy a
//   plane-wide merge would additionally save (FleetSnapshot::
//   cross_batches_saved / cross_busy_saved_ms). With one shard the saving
//   is exactly zero — ShardedFleet{shards=1} is bit-identical to Fleet.
//
//   Rebalance — every rebalance_interval ticks the plane compares windowed
//   per-shard busy; when the hottest shard exceeds rebalance_high_water x
//   the mean it migrates ONE session (the hottest shard's
//   smallest-demand active session, the cheapest move) to the coldest
//   shard, and only when the move strictly improves the imbalance. One
//   move per scan + the high-water band = the same hysteresis discipline
//   as Fleet::readmit_scan. Migration reuses the session-record handover
//   (Fleet::detach/attach): stats, carryover debt, and the synthetic /
//   pipeline state travel whole, so per-session frame counts and
//   attributed busy are conserved exactly across any number of moves.
//
// Wheel discipline: every admit() first grows ALL shards' wheels to the
// session's rate, so the shards' wheels stay equal forever and a migrated
// session's period/phase mean the same thing on the target shard
// (cadence-exact migration).

#include <memory>
#include <string>
#include <vector>

#include "fleet/shard.hpp"
#include "util/stats.hpp"

namespace mvs::fleet {

class ShardedFleet : public FleetApi {
 public:
  /// config.shards >= 1 (a one-shard plane is legal — and bit-identical to
  /// a plain Fleet, the guard tests pin it — but make_fleet builds the
  /// cheaper Fleet for that case). The plane owns the shared pool;
  /// config.threads sizes it.
  explicit ShardedFleet(const FleetConfig& config);
  ~ShardedFleet() override;

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  AdmitResult admit(const SessionSpec& spec) override;
  FleetStatus pause(SessionHandle handle) override;
  FleetStatus resume(SessionHandle handle) override;
  FleetStatus evict(SessionHandle handle) override;
  FleetStatus release(SessionHandle handle) override;
  SessionState state(SessionHandle handle) const override;
  runtime::PipelineResult result(SessionHandle handle,
                                 FleetStatus* status = nullptr) const override;
  int scale_devices(const std::string& device_class, int delta) override;

  /// Step every shard one tick (concurrently on the shared pool), fold the
  /// cross-shard merge level, and run the rebalance scan when due.
  void step() override;

  long ticks() const override;
  int wheel_hz() const override;
  std::size_t session_count() const override;
  FleetSnapshot snapshot() const override;
  void attach_trace(runtime::TraceRecorder* trace) override;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  long migrations() const { return migrations_; }

  /// Force one migration now (test/ops hook): move `handle`'s session to
  /// `target_shard` regardless of load, via the same detach/attach path
  /// the rebalance scan uses. kInvalidState when the session is evicted or
  /// already on the target.
  FleetStatus migrate(SessionHandle handle, int target_shard);

 private:
  struct Route {
    Shard* shard = nullptr;
    SessionHandle inner;
  };
  /// Resolve an outer handle to its hosting shard + inner handle.
  Route resolve(SessionHandle handle, FleetStatus* status) const;
  /// Move the session behind directory entry `outer` from its shard to
  /// `target` (both resolved); shared tail of migrate() and the scan.
  FleetStatus move_session(SessionHandle outer, int target_shard);
  void rebalance_scan();
  void record(runtime::TraceEventType type, int session_id, double value,
              int shard = -1, int migrated_from = -1) {
    runtime::emit(trace_, {ticks(), session_id, type, 0, value, shard,
                           migrated_from});
  }

  FleetConfig cfg_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Outer handle directory: payload a = shard index, b/c = inner handle.
  HandleTable handles_;
  /// Per shard: inner handle slot id -> outer handle (snapshot rewriting
  /// and reverse lookup during rebalance).
  std::vector<std::vector<SessionHandle>> inner_to_outer_;
  runtime::TraceRecorder* trace_ = nullptr;

  long ticks_ = 0;  ///< plane steps (shard tick counters rescale on growth)
  int base_fps_ = 10;
  int rejected_ = 0;  ///< capacity rejections (shards count their own)
  long migrations_ = 0;
  long cross_batches_saved_ = 0;
  double cross_busy_saved_ms_ = 0.0;
  int rebalance_ticks_ = 0;
  util::SampleSet tick_busy_ms_;  ///< Σ shard busy per plane tick

  /// step() scratch (plan pointers for the cross-shard fold).
  std::vector<const TickPlan*> plan_scratch_;
};

}  // namespace mvs::fleet
