#pragma once
// mvs::fleet — the serving runtime.
//
// Hosts many concurrent runtime::Pipeline sessions (independent multi-view
// deployments) over ONE shared util::ThreadPool and one shared simulated
// GPU complex (fleet::GpuArbiter). The fleet advances on a tick wheel;
// each tick the dispatch policy picks which due sessions run a frame, the
// sessions execute concurrently on the pool, and the arbiter merges their
// partial-frame tasks into cross-session batches with per-session latency
// attribution and device-pool queueing delay.
//
// Heterogeneous tick rates: sessions declare a native fps (SessionSpec::fps,
// 0 = the fleet base rate 1000 / frame_period_ms). The wheel runs at the
// least common multiple of all admitted rates and grows on demand — when a
// non-dividing rate is admitted, every session's period and phase (and the
// tick counter) are rescaled so established firing patterns continue
// unchanged. A session fires every wheel_hz / fps ticks.
//
// Admission control: with an SLO configured, a candidate session is only
// admitted if the projected fleet per-period GPU demand stays within the
// deadline; otherwise the controller degrades it (priority-mask tightening,
// then frame-rate halving, then both) and admits the first fitting mode, or
// rejects. Dynamic re-admission reverses the ladder: every readmit_interval
// ticks the fleet compares the windowed mean of observed tick busy against
// a hysteresis band under the SLO and, when demand has fallen, restores one
// rung (full rate first, then mask un-tightening via
// Pipeline::set_tight_masks) for the lowest-id degraded session whose
// projected demand still fits below the high-water mark. Without an SLO,
// admission is O(1): no projection over the live roster is computed.
//
// Elastic device pools: every accelerator class starts with one device;
// Fleet::scale_devices grows or shrinks a class's pool at runtime. The
// arbiter charges explicit queueing delay whenever a tick's merged plan
// exceeds one device's throughput, and (when FleetConfig::allow_split is
// on) may split an over-full merged batch across two tick slots to protect
// a high-weight session's SLO — deferred task slices are re-injected into
// the owner's next submission, so attribution stays conservation-exact.
//
// Sessions are addressed by SessionHandle values (see handle.hpp); the raw
// internal ids never leave this class. A tick costs time linear in the
// sessions it steps: handle calls are one table load, the roster stays
// sorted by id (ids are issued only at admission), and the per-session
// rollup walks the arbiter's shares with one cursor.
//
// A fleet of one unscaled full-rate session with the ideal transport
// reproduces a standalone Pipeline::run bit-identically (guarded by
// test_runtime.FleetOfOne...).

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/arbiter.hpp"
#include "fleet/burn.hpp"
#include "fleet/fleet_api.hpp"
#include "fleet/handle.hpp"
#include "fleet/synthetic.hpp"
#include "obs/metrics.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "util/thread_pool.hpp"

namespace mvs::fleet {

/// Everything one hosted session owns: spec, firing pattern, degrade
/// state, the pipeline or synthetic source, carryover debt and stats.
struct SessionRecord {
  int id = -1;           ///< internal id, issued in admission order
  SessionHandle handle;
  SessionSpec spec;
  SessionState state = SessionState::kActive;
  int fps = 0;           ///< resolved native rate (base rate when spec.fps==0)
  int period_ticks = 1;  ///< wheel ticks between native frames
  int stride = 1;        ///< 2 when frame-rate halved (degrade ladder)
  int phase = 0;         ///< wheel-tick firing offset
  bool degraded_rate = false;   ///< rate halving applied BY the fleet
  bool degraded_tight = false;  ///< mask tightening applied BY the fleet
  /// Exactly one of pipeline / synth is set (spec.synthetic selects).
  std::unique_ptr<runtime::Pipeline> pipeline;
  std::unique_ptr<SyntheticSource> synth;
  std::vector<gpu::DeviceProfile> devices;
  double static_demand_ms = 0.0;
  /// Batch-split debt: tasks deferred to this session's next stepped
  /// submission, per camera.
  std::map<int, std::vector<geom::SizeClassId>> carryover;

  long frames = 0;
  long deferred_ticks = 0;
  long slo_violations = 0;
  /// Per-session SLO burn-rate monitor (DESIGN.md §14); a frame whose
  /// latency exceeds the effective SLO is one bad event.
  BurnMonitor burn;
  long slo_alerts = 0;  ///< raise edges over the session's lifetime
  /// Constant-memory rollups, one sample per frame (DESIGN.md §8): the
  /// log2 histogram carries the percentiles and the latency sum; the other
  /// means are running sums over `frames`.
  obs::Histogram latency_ms;        ///< per-frame attributed + queueing
  double isolated_sum_ms = 0.0;     ///< Σ dedicated-device counterfactual
  double queue_sum_ms = 0.0;        ///< Σ per-frame device-pool queueing
  double busy_sum_ms = 0.0;         ///< Σ attributed over all cameras/frames
  /// Result snapshot frozen at eviction (the pipeline is destroyed then),
  /// with the transport totals, which its frame list lacks when the
  /// pipeline keeps no history.
  runtime::PipelineResult final_result;
  long final_retries = 0;
  long final_dropped_msgs = 0;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Admission-controlled session creation. On admission the pipeline is
  /// built (scenario + association training) against the shared pool — or,
  /// for spec.synthetic, a SyntheticSource (no vision stack at all); on
  /// rejection nothing is constructed beyond the device-profile probe.
  /// spec.faults (when set) replaces the pipeline fault profile and, unless
  /// fault-free, selects the lossy transport. A native fps that does not
  /// divide the current wheel grows it to the least common multiple; a
  /// rate that would grow the wheel past INT_MAX is rejected.
  AdmitResult admit(const SessionSpec& spec);

  /// Lifecycle transitions. Evictions are final (kInvalidState to evict
  /// twice); an evicted session's result() survives until release(), which
  /// recycles its slot and makes the handle (and any copy of it)
  /// permanently stale.
  FleetStatus evict(SessionHandle handle);
  FleetStatus pause(SessionHandle handle);
  FleetStatus resume(SessionHandle handle);
  FleetStatus release(SessionHandle handle);

  /// Grow (delta > 0) or shrink (delta < 0) a device class's pool at
  /// runtime; pools never drop below one device. Returns the new pool size.
  int scale_devices(const std::string& device_class, int delta);

  /// Advance one wheel tick: dispatch, step the due sessions concurrently,
  /// merge their GPU work cross-session, update rollups, and (periodically)
  /// run the re-admission scan.
  void step();
  void run(int ticks) {
    for (int t = 0; t < ticks; ++t) step();
  }

  long ticks() const { return ticks_; }
  /// Current tick-wheel rate (ticks per second). Starts at the base rate
  /// 1000 / frame_period_ms and grows to the lcm of admitted native rates;
  /// growing rescales ticks() so firing phases are preserved.
  int wheel_hz() const { return wheel_hz_; }
  /// Live sessions, paused ones included.
  std::size_t session_count() const {
    return static_cast<std::size_t>(live_sessions_);
  }
  /// kEvicted for stale/unknown handles (it names no live session).
  SessionState state(SessionHandle handle) const;
  /// Everything the session has run so far (survives eviction until
  /// release). Empty with *status = the typed error on a bad handle.
  runtime::PipelineResult result(SessionHandle handle,
                                 FleetStatus* status = nullptr) const;
  FleetSnapshot snapshot() const;

  /// Record session lifecycle events (admit/reject/evict/pause/resume/
  /// defer/readmit) plus device_scale and batch_split into `trace`; pass
  /// nullptr to detach.
  void attach_trace(runtime::TraceRecorder* trace);

  /// The last step()'s merged plan (shares, merge cells, busy). Valid
  /// after the first step.
  const TickPlan& last_plan() const { return plan_scratch_; }

 private:
  using Roster = std::vector<std::unique_ptr<SessionRecord>>;
  /// First roster entry with id >= `id` (the roster is sorted by id).
  Roster::iterator roster_pos(int id);
  /// Session by internal id, or nullptr once released.
  SessionRecord* find(int id);
  /// Deterministic static demand estimate for a candidate deployment.
  /// Pool-width-aware (a class's per-frame cost is divided by its current
  /// device count), frame-policy-aware (the partial-task term scales by
  /// policy::demand_factor — a detect-or-track policy skips detection on
  /// most regular frames), and dispatch-overhead-aware.
  double estimate_demand_ms(const std::vector<gpu::DeviceProfile>& devices,
                            const runtime::PipelineConfig& pipe) const;
  /// Observed (or estimated) GPU busy per frame of an admitted session.
  double session_frame_ms(const SessionRecord& s) const;
  /// Demand normalized to one base frame period: frame cost x the
  /// session's firing rate relative to the base rate.
  double session_demand_ms(const SessionRecord& s) const;
  /// Device profiles of a scenario's cameras, cached per scenario name
  /// (profiles are seed-independent) so 10k admissions probe each
  /// scenario once instead of rebuilding it per session.
  const std::vector<gpu::DeviceProfile>& probe_devices(
      const std::string& scenario, std::uint64_t seed);
  /// Grow the wheel so `fps` divides it, rescaling periods/phases/ticks.
  void grow_wheel(int fps);
  /// Reverse degrade ladder: restore at most one rung across the fleet.
  void readmit_scan();
  /// Push one session one rung DOWN the degrade ladder (mask tightening
  /// first, then rate halving; highest id first). Returns false when every
  /// session is already fully degraded. Shared by the readmit high-water
  /// branch and the burn_degrade alert trigger.
  bool apply_degrade_rung(double value);
  void record(runtime::TraceEventType type, int session_id, double value) {
    runtime::emit(trace_, {ticks_, session_id, type, 0, value});
  }

  FleetConfig cfg_;
  std::unique_ptr<util::ThreadPool> pool_;
  GpuArbiter arbiter_;
  Roster sessions_;  ///< sorted by id: ids are issued only at admission
  HandleTable handles_;
  runtime::TraceRecorder* trace_ = nullptr;
  std::map<std::string, std::vector<gpu::DeviceProfile>> probe_cache_;

  long ticks_ = 0;
  int base_fps_ = 10;   ///< 1000 / frame_period_ms, floor 1
  int wheel_hz_ = 10;   ///< current wheel rate (>= base_fps_)
  int next_id_ = 0;
  int admitted_ = 0;
  int live_sessions_ = 0;
  int rejected_ = 0;
  int evicted_ = 0;
  int readmitted_ = 0;
  int redegraded_ = 0;
  long batch_splits_ = 0;
  long shared_batches_ = 0;
  long isolated_batches_ = 0;
  double shared_busy_ms_ = 0.0;
  double isolated_busy_ms_ = 0.0;
  double total_queue_ms_ = 0.0;
  /// Re-admission window accumulator (busy normalized to base periods).
  double window_busy_ms_ = 0.0;
  int window_ticks_ = 0;
  /// Plane-level burn monitor: one bad event per tick whose shared busy
  /// exceeds the SLO. Session + plane raise/clear edges tally below.
  BurnMonitor plane_burn_;
  long slo_alerts_raised_ = 0;
  long slo_alerts_cleared_ = 0;
  /// One sample per step(): merged busy (percentiles + mean) and the
  /// number of deferred sessions (mean over the same count).
  obs::Histogram tick_busy_ms_;
  double queue_depth_sum_ = 0.0;

  /// step() working buffers reused across ticks so a warm fleet tick
  /// allocates nothing on the serving path (DESIGN.md §11).
  std::vector<SessionRecord*> due_scratch_;
  std::vector<SessionRecord*> chosen_scratch_;
  std::vector<SessionRecord*> ordered_scratch_;
  TickPlan plan_scratch_;
  runtime::CameraGpuWork merged_scratch_;
};

// Kept only for perfbench/src/plane_workloads.cpp, which uses both names.
using FleetApi = Fleet;
std::unique_ptr<Fleet> make_fleet(const FleetConfig& config);

}  // namespace mvs::fleet
