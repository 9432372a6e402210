#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "policy/policy.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

namespace mvs::fleet {

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kActive: return "active";
    case SessionState::kPaused: return "paused";
    case SessionState::kEvicted: return "evicted";
  }
  return "?";
}

const char* to_string(FleetStatus status) {
  switch (status) {
    case FleetStatus::kOk: return "ok";
    case FleetStatus::kStaleHandle: return "stale-handle";
    case FleetStatus::kUnknownSession: return "unknown-session";
    case FleetStatus::kInvalidState: return "invalid-state";
  }
  return "?";
}

static_assert(BurnWindow::kMaxWindow == runtime::kMaxBurnWindow,
              "the config schema bounds burn windows by the ring size");

namespace {

BurnConfig make_burn_config(const FleetConfig& cfg) {
  BurnConfig bc;
  bc.error_budget = cfg.burn_error_budget;
  bc.fast_window = cfg.burn_fast_window;
  bc.slow_window = cfg.burn_slow_window;
  bc.raise_mult = cfg.burn_raise;
  bc.clear_mult = cfg.burn_clear;
  return bc;
}

}  // namespace

Fleet::Fleet(const FleetConfig& config)
    : cfg_(config),
      pool_(std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(std::max(0, config.threads)))) {
  base_fps_ = std::max(
      1, static_cast<int>(std::lround(
             1000.0 / std::max(1e-6, cfg_.frame_period_ms))));
  wheel_hz_ = base_fps_;
  plane_burn_.configure(make_burn_config(cfg_));
}

Fleet::~Fleet() = default;

void Fleet::attach_trace(runtime::TraceRecorder* trace) { trace_ = trace; }

Fleet::Roster::iterator Fleet::roster_pos(int id) {
  return std::lower_bound(
      sessions_.begin(), sessions_.end(), id,
      [](const std::unique_ptr<SessionRecord>& s, int v) { return s->id < v; });
}

SessionRecord* Fleet::find(int id) {
  const auto it = roster_pos(id);
  return it != sessions_.end() && (*it)->id == id ? it->get() : nullptr;
}

SessionState Fleet::state(SessionHandle handle) const {
  const SessionRecord* s = handles_.find(handle);
  return s ? s->state : SessionState::kEvicted;
}

double Fleet::estimate_demand_ms(
    const std::vector<gpu::DeviceProfile>& devices,
    const runtime::PipelineConfig& pipe) const {
  // Coarse, deterministic planning estimate of a deployment's steady-state
  // per-frame GPU busy time: one full-frame inspection per camera per
  // horizon, plus assumed_tasks_per_camera partial tasks per regular frame,
  // each costing its per-slot share of a mid-class batch. The partial term
  // scales by the frame policy's expected detect ratio (track-only frames
  // submit zero slices), each class's cost is divided by its current pool
  // width (a 3-wide pool absorbs ~3x the demand per tick), and a non-zero
  // dispatch overhead charges roughly one batch dispatch per firing.
  const double T = static_cast<double>(std::max(1, pipe.horizon_frames));
  const double detect = policy::demand_factor(pipe.frame_policy);
  double demand = 0.0;
  for (const gpu::DeviceProfile& dev : devices) {
    const auto classes = dev.size_class_count();
    const auto mid = static_cast<geom::SizeClassId>(
        classes >= 3 ? 2 : (classes > 0 ? classes - 1 : 0));
    const double per_task =
        classes > 0
            ? dev.batch_latency_ms(mid) / static_cast<double>(dev.batch_limit(mid))
            : 0.0;
    double per_frame =
        dev.full_frame_ms() / T +
        (T - 1.0) / T * cfg_.assumed_tasks_per_camera * per_task * detect;
    if (cfg_.dispatch_overhead_ms > 0.0)
      per_frame += cfg_.dispatch_overhead_ms * (1.0 / T + (T - 1.0) / T * detect);
    demand += per_frame /
              static_cast<double>(std::max(1, arbiter_.device_count(dev.name())));
  }
  return demand;
}

double Fleet::session_frame_ms(const SessionRecord& s) const {
  return s.frames > 0 ? s.busy_sum_ms / static_cast<double>(s.frames)
                      : s.static_demand_ms;
}

double Fleet::session_demand_ms(const SessionRecord& s) const {
  // Demand per base frame period: per-frame cost x how often the session
  // fires relative to the base rate. A full-rate base-fps session with
  // stride 1 contributes exactly its per-frame cost.
  return session_frame_ms(s) * static_cast<double>(s.fps) /
         (static_cast<double>(s.stride) * static_cast<double>(base_fps_));
}

const std::vector<gpu::DeviceProfile>& Fleet::probe_devices(
    const std::string& scenario, std::uint64_t seed) {
  const auto it = probe_cache_.find(scenario);
  if (it != probe_cache_.end()) return it->second;
  // Probe the deployment's device profiles without building the (expensive)
  // pipeline: scenario construction is cheap, association training is not.
  // Profiles are a fixed property of the scenario's camera poles (seed only
  // drives traffic), so one probe per scenario name serves every admission.
  std::vector<gpu::DeviceProfile> devices;
  const sim::Scenario probe = sim::make_scenario(scenario, seed);
  for (const sim::ScenarioCamera& cam : probe.cameras)
    devices.push_back(cam.device);
  return probe_cache_.emplace(scenario, std::move(devices)).first->second;
}

void Fleet::grow_wheel(int fps) {
  const long lcm = static_cast<long>(wheel_hz_) / std::gcd(wheel_hz_, fps) *
                   static_cast<long>(fps);
  if (lcm == wheel_hz_) return;
  const long m = lcm / wheel_hz_;
  // Rescale every firing pattern so established sessions keep their exact
  // cadence and phase relationships across the growth.
  for (auto& s : sessions_) {
    s->period_ticks *= static_cast<int>(m);
    s->phase *= static_cast<int>(m);
  }
  ticks_ *= m;
  wheel_hz_ = static_cast<int>(lcm);
}

AdmitResult Fleet::admit(const SessionSpec& spec) {
  AdmitResult result;
  if (spec.fps < 0) {
    ++rejected_;
    result.reason = "negative native fps";
    record(runtime::TraceEventType::kSessionReject, -1, 0.0);
    return result;
  }
  const int fps = spec.fps > 0 ? spec.fps : base_fps_;
  // The wheel rate is an int: a rate whose lcm with the current wheel
  // passes INT_MAX would silently truncate every later session's period.
  if (std::lcm(static_cast<long long>(wheel_hz_), static_cast<long long>(fps)) >
      std::numeric_limits<int>::max()) {
    ++rejected_;
    result.reason = "native fps would grow the tick wheel past INT_MAX";
    record(runtime::TraceEventType::kSessionReject, -1, 0.0);
    return result;
  }

  const std::vector<gpu::DeviceProfile>& devices =
      probe_devices(spec.scenario, spec.pipeline.seed);
  // Demand normalized to one base period: a session firing faster than the
  // base rate costs proportionally more per period.
  const double demand =
      estimate_demand_ms(devices, spec.pipeline) *
      static_cast<double>(fps) / static_cast<double>(base_fps_);

  // Without an SLO there is nothing to project against, so admission skips
  // the roster scan entirely — O(1), which is what lets the fleet absorb
  // thousands of admissions. With an SLO the exact projection is kept.
  double current = 0.0;
  if (cfg_.slo_ms > 0.0)
    for (const auto& s : sessions_)
      if (s->state == SessionState::kActive) current += session_demand_ms(*s);

  // Split-aware headroom: with batch splitting on, an over-full tick can
  // shed half a batch to the next slot instead of missing the SLO, so the
  // admission ceiling relaxes by the spillable fraction.
  constexpr double kSplitHeadroom = 1.2;
  const double ceiling =
      cfg_.slo_ms * (cfg_.allow_split ? kSplitHeadroom : 1.0);

  bool tight = spec.pipeline.tight_masks;
  int stride = 1;
  result.projected_ms = current + demand;
  if (cfg_.slo_ms > 0.0 && result.projected_ms > ceiling) {
    // Degrade ladder: mask tightening sheds the shared-coverage slice of the
    // partial load, rate halving amortizes the whole session over two
    // ticks; the combination applies both.
    constexpr double kTightFactor = 0.75;
    struct Mode {
      bool tight;
      int stride;
      double factor;
    };
    const Mode ladder[] = {{true, 1, kTightFactor},
                           {false, 2, 0.5},
                           {true, 2, 0.5 * kTightFactor}};
    bool fitted = false;
    if (cfg_.allow_degrade) {
      for (const Mode& mode : ladder) {
        if (current + demand * mode.factor <= ceiling) {
          tight = mode.tight || tight;
          stride = mode.stride;
          result.projected_ms = current + demand * mode.factor;
          fitted = true;
          break;
        }
      }
    }
    if (!fitted) {
      ++rejected_;
      result.reason = "projected latency exceeds SLO even fully degraded";
      record(runtime::TraceEventType::kSessionReject, -1,
             result.projected_ms);
      return result;
    }
  }

  grow_wheel(fps);

  auto session = std::make_unique<SessionRecord>();
  session->id = next_id_++;
  session->spec = spec;
  session->spec.pipeline.tight_masks = tight;
  // Per-session fault profile (the self-contained session API): replaces
  // whatever the pipeline config carried and, unless fault-free, selects
  // the lossy transport.
  if (spec.faults) {
    session->spec.pipeline.faults = *spec.faults;
    if (!spec.faults->fault_free())
      session->spec.pipeline.transport = net::TransportKind::kLossy;
  }
  session->fps = fps;
  session->period_ticks = wheel_hz_ / fps;
  session->stride = stride;
  session->degraded_rate = stride > 1;
  session->degraded_tight = tight && !spec.pipeline.tight_masks;
  if (stride > 1) {
    // Spread rate-halved sessions across both phases to balance the ticks.
    int halved = 0;
    for (const auto& s : sessions_) halved += (s->stride > 1);
    session->phase = (halved % 2) * session->period_ticks;
  }
  session->burn.configure(make_burn_config(cfg_));
  session->devices = devices;
  session->static_demand_ms =
      estimate_demand_ms(session->devices, session->spec.pipeline);
  if (spec.synthetic) {
    session->synth = std::make_unique<SyntheticSource>(
        session->devices, spec.pipeline.seed, cfg_.assumed_tasks_per_camera,
        spec.pipeline.horizon_frames);
  } else {
    session->pipeline = std::make_unique<runtime::Pipeline>(
        spec.scenario, session->spec.pipeline, pool_.get());
  }

  // Register this deployment's accelerator classes with the arbiter so the
  // pool sizes show up in snapshots (default one device per class).
  for (const gpu::DeviceProfile& dev : session->devices)
    if (!arbiter_.device_counts().count(dev.name()))
      arbiter_.set_device_count(dev.name(), 1);

  session->handle = handles_.issue(session.get());
  result.handle = session->handle;
  result.admitted = true;
  result.masks_tightened = session->degraded_tight;
  result.rate_halved = stride > 1;
  ++admitted_;
  ++live_sessions_;
  record(runtime::TraceEventType::kSessionAdmit, session->id,
         result.projected_ms);
  sessions_.push_back(std::move(session));
  return result;
}

FleetStatus Fleet::evict(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  SessionRecord* s = handles_.find(handle, &status);
  if (!s) return status;
  if (s->state == SessionState::kEvicted) return FleetStatus::kInvalidState;
  if (s->pipeline) {
    s->final_result = s->pipeline->result();
    s->final_retries = s->pipeline->total_retries();
    s->final_dropped_msgs = s->pipeline->total_dropped_msgs();
    s->pipeline.reset();
  }
  s->synth.reset();
  s->carryover.clear();
  s->state = SessionState::kEvicted;
  ++evicted_;
  --live_sessions_;
  record(runtime::TraceEventType::kSessionEvict, s->id, 0.0);
  // An eviction is a postmortem-worthy lifecycle end: snapshot the flight
  // recorder so the session's last frames survive it (in-memory only unless
  // a postmortem dir is configured).
  if (obs::attribution_enabled()) obs::recorder().request_dump("session-evict");
  return FleetStatus::kOk;
}

FleetStatus Fleet::pause(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  SessionRecord* s = handles_.find(handle, &status);
  if (!s) return status;
  if (s->state != SessionState::kActive) return FleetStatus::kInvalidState;
  s->state = SessionState::kPaused;
  record(runtime::TraceEventType::kSessionPause, s->id, 0.0);
  return FleetStatus::kOk;
}

FleetStatus Fleet::resume(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  SessionRecord* s = handles_.find(handle, &status);
  if (!s) return status;
  if (s->state != SessionState::kPaused) return FleetStatus::kInvalidState;
  s->state = SessionState::kActive;
  record(runtime::TraceEventType::kSessionResume, s->id, 0.0);
  return FleetStatus::kOk;
}

FleetStatus Fleet::release(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  SessionRecord* s = handles_.find(handle, &status);
  if (!s) return status;
  if (s->state != SessionState::kEvicted) return FleetStatus::kInvalidState;
  // Drop the retained result and recycle the handle slot: the NEXT tenant
  // of this slot gets gen + 1, so every copy of `handle` is now
  // detectably stale instead of silently addressing the newcomer.
  handles_.release(handle);
  sessions_.erase(roster_pos(s->id));
  return FleetStatus::kOk;
}

int Fleet::scale_devices(const std::string& device_class, int delta) {
  const int next = std::max(1, arbiter_.device_count(device_class) + delta);
  arbiter_.set_device_count(device_class, next);
  record(runtime::TraceEventType::kDeviceScale, -1,
         static_cast<double>(next));
  return next;
}

runtime::PipelineResult Fleet::result(SessionHandle handle,
                                      FleetStatus* status) const {
  FleetStatus st = FleetStatus::kOk;
  const SessionRecord* s = handles_.find(handle, &st);
  if (status) *status = st;
  if (!s) return {};
  return s->pipeline ? s->pipeline->result() : s->final_result;
}

void Fleet::readmit_scan() {
  const double mean_busy =
      window_busy_ms_ / static_cast<double>(std::max(1, window_ticks_));
  window_busy_ms_ = 0.0;
  window_ticks_ = 0;

  // Above the high-water mark: push one session one rung DOWN the degrade
  // ladder per scan — tighten masks first, then halve the rate — the exact
  // mirror of re-admission below (which restores rate first, then masks).
  // Highest session id degrades first (the mirror of lowest-id-wins on the
  // way back up), so the longest-served sessions keep quality longest.
  // Between the water marks nothing changes in either direction: the band
  // is the hysteresis that keeps rungs from flapping scan to scan.
  if (mean_busy > cfg_.readmit_high_water * cfg_.slo_ms) {
    if (!cfg_.allow_degrade) return;
    apply_degrade_rung(mean_busy);
    return;
  }
  if (mean_busy >= cfg_.readmit_low_water * cfg_.slo_ms) return;

  double current = 0.0;
  for (const auto& s : sessions_)
    if (s->state == SessionState::kActive) current += session_demand_ms(*s);
  const double ceiling = cfg_.readmit_high_water * cfg_.slo_ms;

  // Reverse the degrade ladder one rung per scan: restore full rate first
  // (it halves the latency penalty), then un-tighten masks (recall). Only
  // degradation the FLEET applied is reversed; lowest session id wins ties.
  for (auto& s : sessions_) {
    if (s->state != SessionState::kActive || !s->degraded_rate) continue;
    // Going from stride 2 to 1 doubles the session's per-period demand.
    const double additional = session_demand_ms(*s);
    if (current + additional > ceiling) continue;
    s->stride = 1;
    s->degraded_rate = false;
    ++readmitted_;
    record(runtime::TraceEventType::kSessionReadmit, s->id,
           current + additional);
    return;
  }
  for (auto& s : sessions_) {
    if (s->state != SessionState::kActive || !s->degraded_tight) continue;
    // Un-tightening restores the shed shared-coverage load: the tightened
    // demand is 0.75x the full demand, so full costs an extra third.
    constexpr double kTightFactor = 0.75;
    const double additional =
        session_demand_ms(*s) * (1.0 / kTightFactor - 1.0);
    if (current + additional > ceiling) continue;
    s->spec.pipeline.tight_masks = false;
    if (s->pipeline) s->pipeline->set_tight_masks(false);
    s->degraded_tight = false;
    ++readmitted_;
    record(runtime::TraceEventType::kSessionReadmit, s->id,
           current + additional);
    return;
  }
}

bool Fleet::apply_degrade_rung(double value) {
  for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) {
    SessionRecord* s = it->get();
    if (s->state != SessionState::kActive || s->degraded_tight) continue;
    s->spec.pipeline.tight_masks = true;
    if (s->pipeline) s->pipeline->set_tight_masks(true);
    s->degraded_tight = true;
    ++redegraded_;
    record(runtime::TraceEventType::kSessionRedegrade, s->id, value);
    return true;
  }
  for (auto it = sessions_.rbegin(); it != sessions_.rend(); ++it) {
    SessionRecord* s = it->get();
    if (s->state != SessionState::kActive || s->degraded_rate) continue;
    s->stride = 2;
    s->degraded_rate = true;
    ++redegraded_;
    record(runtime::TraceEventType::kSessionRedegrade, s->id, value);
    return true;
  }
  return false;
}

void Fleet::step() {
  MVS_SPAN("fleet.tick");
  const long tick = ticks_;

  // 1. Sessions due this tick (active, native period x stride matches).
  std::vector<SessionRecord*>& due = due_scratch_;
  due.clear();
  for (auto& s : sessions_) {
    const long cycle = static_cast<long>(s->period_ticks) * s->stride;
    if (s->state == SessionState::kActive && tick % cycle == s->phase % cycle)
      due.push_back(s.get());
  }

  // 2. Dispatch: order the due sessions, then defer from the back while the
  // projected tick demand exceeds the SLO (at least one session always
  // runs). Round-robin rotates the order each tick so the deferral burden
  // is shared; weighted-priority puts low weights at the back.
  if (cfg_.dispatch == DispatchPolicy::kWeightedPriority) {
    std::stable_sort(due.begin(), due.end(),
                     [](SessionRecord* a, SessionRecord* b) {
                       if (a->spec.weight != b->spec.weight)
                         return a->spec.weight > b->spec.weight;
                       return a->id < b->id;
                     });
  } else if (!due.empty()) {
    std::rotate(due.begin(),
                due.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(tick) % due.size()),
                due.end());
  }
  std::vector<SessionRecord*>& chosen = chosen_scratch_;
  chosen.clear();
  std::size_t deferred = 0;
  if (cfg_.slo_ms > 0.0) {
    double projected = 0.0;
    for (SessionRecord* s : due) {
      const double d = session_frame_ms(*s);  // full frame cost this tick
      if (!chosen.empty() && projected + d > cfg_.slo_ms) {
        ++s->deferred_ticks;
        ++deferred;
        record(runtime::TraceEventType::kSessionDefer, s->id, projected + d);
        continue;
      }
      projected += d;
      chosen.push_back(s);
    }
  } else {
    chosen.assign(due.begin(), due.end());
  }

  // 3. Step the chosen sessions concurrently on the shared pool. Sessions
  // only touch their own state (and the nested-safe pool), so this is
  // deterministic for any worker count. The per-frame stats live inside
  // each pipeline (run_frame_ref) — nothing is copied out here. Synthetic
  // sessions generate their seeded work instead of running the stack.
  pool_->parallel_for_each(chosen.size(), [&](std::size_t i) {
    MVS_SPAN("fleet.session");
    if (chosen[i]->pipeline)
      chosen[i]->pipeline->run_frame_ref();
    else
      chosen[i]->synth->run_frame();
  });

  // 4. Cross-session GPU arbitration over the stepped sessions' work, in
  // ascending session id for deterministic submission order. Batch-split
  // debt from earlier ticks rides along with the owning camera's work.
  std::vector<SessionRecord*>& ordered = ordered_scratch_;
  ordered.assign(chosen.begin(), chosen.end());
  std::sort(ordered.begin(), ordered.end(),
            [](SessionRecord* a, SessionRecord* b) { return a->id < b->id; });
  arbiter_.begin_tick();
  for (SessionRecord* s : ordered) {
    const auto& work =
        s->pipeline ? s->pipeline->last_gpu_work() : s->synth->last_gpu_work();
    for (std::size_t cam = 0; cam < work.size(); ++cam) {
      const int cam_id = static_cast<int>(cam);
      const auto debt = s->carryover.find(cam_id);
      if (debt != s->carryover.end() && !debt->second.empty()) {
        runtime::CameraGpuWork& merged = merged_scratch_;
        merged.full_frame = work[cam].full_frame;
        merged.tasks.assign(work[cam].tasks.begin(), work[cam].tasks.end());
        merged.tasks.insert(merged.tasks.end(), debt->second.begin(),
                            debt->second.end());
        debt->second.clear();
        arbiter_.submit(s->id, cam_id, s->devices[cam], merged,
                        s->spec.weight);
      } else {
        arbiter_.submit(s->id, cam_id, s->devices[cam], work[cam],
                        s->spec.weight);
      }
    }
  }
  TickContext ctx;
  ctx.slo_ms = cfg_.slo_ms;
  ctx.allow_split = cfg_.allow_split;
  ctx.dispatch_overhead_ms = cfg_.dispatch_overhead_ms;
  TickPlan& plan = plan_scratch_;
  {
    MVS_SPAN("fleet.arbiter");
    arbiter_.plan_tick_into(ctx, plan);
  }
  shared_batches_ += plan.shared_batches;
  isolated_batches_ += plan.isolated_batches;
  shared_busy_ms_ += plan.shared_busy_ms;
  isolated_busy_ms_ += plan.isolated_busy_ms;
  total_queue_ms_ += plan.queue_ms_total;
  batch_splits_ += plan.splits;
  tick_busy_ms_.record(plan.shared_busy_ms);
  queue_depth_sum_ += static_cast<double>(deferred);
  if (obs::enabled()) {
    // Fleet-level rollups re-expressed as registry metrics (FleetSnapshot
    // stays the one per-session source). All values here are simulated/
    // deterministic, so they carry the full fingerprint.
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("fleet.ticks").add(1);
    m.counter("fleet.frames").add(static_cast<long long>(chosen.size()));
    m.counter("fleet.deferred").add(static_cast<long long>(deferred));
    m.counter("fleet.shared_batches").add(plan.shared_batches);
    m.counter("fleet.isolated_batches").add(plan.isolated_batches);
    m.counter("fleet.batch_splits").add(plan.splits);
    m.histogram("fleet.tick_busy_ms").record(plan.shared_busy_ms);
    m.histogram("fleet.queue_depth").record(static_cast<double>(deferred));
    m.gauge("fleet.sessions").set(static_cast<double>(sessions_.size()));
  }

  // Deferred task slices become carryover debt charged on the tick that
  // actually runs them (conservation-exact attribution).
  for (const DeferredSlice& slice : plan.deferred) {
    SessionRecord* owner = find(slice.session);
    if (!owner || owner->state == SessionState::kEvicted) continue;
    auto& debt = owner->carryover[slice.camera];
    debt.insert(debt.end(), static_cast<std::size_t>(slice.count),
                slice.size_class);
    record(runtime::TraceEventType::kBatchSplit, slice.session,
           static_cast<double>(slice.count));
  }

  // 5. Per-session rollups: frame latency = slowest camera (paper
  // semantics) including device-pool queueing; demand = attributed busy of
  // the batches this tick actually executed. Shares are in submission
  // order, i.e. contiguous per session in `ordered`, so one cursor walks
  // them all.
  std::size_t cursor = 0;
  for (SessionRecord* s : ordered) {
    double frame_ms = 0.0, frame_iso_ms = 0.0, frame_queue_ms = 0.0;
    double busy = 0.0;
    // The critical-path share: the (gpu, queue) pair of the slowest camera,
    // whose sum IS frame_ms — so the attribution below conserves exactly.
    double crit_gpu_ms = 0.0, crit_wait_ms = 0.0;
    for (; cursor < plan.shares.size() && plan.shares[cursor].session == s->id;
         ++cursor) {
      const Attribution& a = plan.shares[cursor];
      if (a.attributed_ms + a.queue_ms > frame_ms) {
        frame_ms = a.attributed_ms + a.queue_ms;
        crit_gpu_ms = a.attributed_ms;
        crit_wait_ms = a.queue_ms;
      }
      frame_iso_ms = std::max(frame_iso_ms, a.isolated_ms);
      frame_queue_ms = std::max(frame_queue_ms, a.queue_ms);
      busy += a.attributed_ms;
    }
    s->latency_ms.record(frame_ms);
    s->isolated_sum_ms += frame_iso_ms;
    s->queue_sum_ms += frame_queue_ms;
    s->busy_sum_ms += busy;
    const double slo = s->spec.slo_ms >= 0.0 ? s->spec.slo_ms : cfg_.slo_ms;
    const bool miss = slo > 0.0 && frame_ms > slo;
    if (miss) ++s->slo_violations;
    if (obs::attribution_enabled()) {
      // Stream id: session id + 1, so session 0 is distinguishable from a
      // standalone runner's stream 0. Ids are issued once per admission
      // and never reused, so the streams of different sessions never alias.
      const auto stream = static_cast<std::uint32_t>(s->id) + 1U;
      obs::FrameAttribution fa;
      fa.id = obs::causal_id(stream, static_cast<std::uint64_t>(s->frames));
      fa.total_ms = frame_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kGpu)] =
          crit_gpu_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kBatchWait)] =
          crit_wait_ms;
      fa.deadline_miss = miss;
      obs::critical_path().record(fa);
      obs::recorder().note_frame(fa);
    }
    ++s->frames;
    if (cfg_.burn_error_budget > 0.0) {
      const int edge = s->burn.push(miss);
      if (edge > 0) {
        ++s->slo_alerts;
        ++slo_alerts_raised_;
        record(runtime::TraceEventType::kSloAlertRaise, s->id,
               s->burn.fast_burn());
      } else if (edge < 0) {
        ++slo_alerts_cleared_;
        record(runtime::TraceEventType::kSloAlertClear, s->id,
               s->burn.fast_burn());
      }
    }
  }

  // Plane-level burn monitor: a tick whose merged busy exceeds the SLO is
  // one bad event. A raise edge may couple straight into mitigation
  // (burn_degrade: one degrade rung, same rung order as the readmit
  // high-water branch).
  if (cfg_.burn_error_budget > 0.0 && cfg_.slo_ms > 0.0) {
    const int edge = plane_burn_.push(plan.shared_busy_ms > cfg_.slo_ms);
    if (edge > 0) {
      ++slo_alerts_raised_;
      record(runtime::TraceEventType::kSloAlertRaise, -1,
             plane_burn_.fast_burn());
      if (cfg_.burn_degrade) apply_degrade_rung(plane_burn_.fast_burn());
    } else if (edge < 0) {
      ++slo_alerts_cleared_;
      record(runtime::TraceEventType::kSloAlertClear, -1,
             plane_burn_.fast_burn());
    }
  }

  // 6. Periodic re-admission scan over the windowed mean busy, normalized
  // to base frame periods so wheel growth does not skew the band.
  if (cfg_.slo_ms > 0.0 && cfg_.readmit_interval > 0) {
    window_busy_ms_ += plan.shared_busy_ms *
                       static_cast<double>(wheel_hz_) /
                       static_cast<double>(base_fps_);
    if (++window_ticks_ >= cfg_.readmit_interval) readmit_scan();
  }

  ++ticks_;
}

FleetSnapshot Fleet::snapshot() const {
  FleetSnapshot snap;
  snap.ticks = ticks_;
  snap.wheel_hz = wheel_hz_;
  snap.admitted = admitted_;
  snap.rejected = rejected_;
  snap.evicted = evicted_;
  snap.readmitted = readmitted_;
  snap.redegraded = redegraded_;
  snap.batch_splits = batch_splits_;
  snap.shared_batches = shared_batches_;
  snap.isolated_batches = isolated_batches_;
  snap.shared_busy_ms = shared_busy_ms_;
  snap.isolated_busy_ms = isolated_busy_ms_;
  snap.total_queue_ms = total_queue_ms_;
  // Tick period in ms at the CURRENT wheel rate, anchored to the configured
  // base period so wheel_hz == base_fps reproduces frame_period_ms exactly.
  const double tick_period_ms =
      cfg_.frame_period_ms * static_cast<double>(base_fps_) /
      static_cast<double>(std::max(1, wheel_hz_));
  // Means divide running sums by the sample count, the same insertion-order
  // sum a kept sample list would give; percentiles are the histogram's
  // nearest-rank bucket estimate (within one log2 bucket of exact).
  if (tick_busy_ms_.count() > 0) {
    const auto steps = static_cast<double>(tick_busy_ms_.count());
    if (tick_period_ms > 0.0)
      snap.mean_occupancy = tick_busy_ms_.sum() / steps / tick_period_ms;
    snap.p95_tick_busy_ms = tick_busy_ms_.percentile(95.0);
    snap.mean_queue_depth = queue_depth_sum_ / steps;
  }
  snap.slo_alerts_raised = slo_alerts_raised_;
  snap.slo_alerts_cleared = slo_alerts_cleared_;
  for (const auto& [name, count] : arbiter_.device_counts())
    snap.device_pools.emplace_back(name, count);
  for (const auto& s : sessions_) {
    SessionSnapshot ss;
    ss.handle = s->handle;
    ss.name = s->spec.name;
    ss.state = s->state;
    ss.weight = s->spec.weight;
    ss.fps = s->fps;
    ss.stride = s->stride;
    ss.tight_masks = s->spec.pipeline.tight_masks;
    ss.frames = s->frames;
    ss.deferred_ticks = s->deferred_ticks;
    ss.slo_violations = s->slo_violations;
    ss.slo_ms = s->spec.slo_ms >= 0.0 ? s->spec.slo_ms : cfg_.slo_ms;
    if (s->frames > 0) {
      const auto n = static_cast<double>(s->frames);
      ss.p50_ms = s->latency_ms.percentile(50.0);
      ss.p95_ms = s->latency_ms.percentile(95.0);
      ss.p99_ms = s->latency_ms.percentile(99.0);
      ss.mean_ms = s->latency_ms.sum() / n;
      ss.mean_isolated_ms = s->isolated_sum_ms / n;
      ss.mean_queue_ms = s->queue_sum_ms / n;
    }
    ss.busy_sum_ms = s->busy_sum_ms;
    ss.slo_alerts = s->slo_alerts;
    ss.alerting = s->burn.alerting();
    ss.fast_burn = s->burn.fast_burn();
    ss.slow_burn = s->burn.slow_burn();
    if (ss.alerting && s->state != SessionState::kEvicted)
      ++snap.alerting_sessions;
    // Run totals, not the frame history: nothing here copies frames.
    if (s->pipeline) {
      ss.object_recall = s->pipeline->object_recall();
      ss.retries = s->pipeline->total_retries();
      ss.dropped_msgs = s->pipeline->total_dropped_msgs();
    } else if (s->state == SessionState::kEvicted) {
      ss.object_recall = s->final_result.object_recall;
      ss.retries = s->final_retries;
      ss.dropped_msgs = s->final_dropped_msgs;
    }
    snap.total_retries += ss.retries;
    snap.total_dropped_msgs += ss.dropped_msgs;
    snap.sessions.push_back(std::move(ss));
  }
  return snap;
}

std::string FleetSnapshot::to_json() const {
  util::Json::Object fleet;
  fleet["ticks"] = util::Json(static_cast<double>(ticks));
  fleet["wheel_hz"] = util::Json(wheel_hz);
  fleet["admitted"] = util::Json(admitted);
  fleet["rejected"] = util::Json(rejected);
  fleet["evicted"] = util::Json(evicted);
  fleet["readmitted"] = util::Json(readmitted);
  fleet["redegraded"] = util::Json(redegraded);
  fleet["batch_splits"] = util::Json(static_cast<double>(batch_splits));
  fleet["shared_batches"] = util::Json(static_cast<double>(shared_batches));
  fleet["isolated_batches"] =
      util::Json(static_cast<double>(isolated_batches));
  fleet["shared_busy_ms"] = util::Json(shared_busy_ms);
  fleet["isolated_busy_ms"] = util::Json(isolated_busy_ms);
  fleet["total_queue_ms"] = util::Json(total_queue_ms);
  fleet["total_retries"] = util::Json(static_cast<double>(total_retries));
  fleet["total_dropped_msgs"] =
      util::Json(static_cast<double>(total_dropped_msgs));
  fleet["mean_occupancy"] = util::Json(mean_occupancy);
  fleet["p95_tick_busy_ms"] = util::Json(p95_tick_busy_ms);
  fleet["mean_queue_depth"] = util::Json(mean_queue_depth);
  fleet["slo_alerts_raised"] =
      util::Json(static_cast<double>(slo_alerts_raised));
  fleet["slo_alerts_cleared"] =
      util::Json(static_cast<double>(slo_alerts_cleared));
  fleet["alerting_sessions"] = util::Json(alerting_sessions);
  util::Json::Array pools;
  for (const auto& [name, count] : device_pools) {
    util::Json::Object pool;
    pool["class"] = util::Json(name);
    pool["devices"] = util::Json(count);
    pools.push_back(util::Json(std::move(pool)));
  }
  fleet["device_pools"] = util::Json(std::move(pools));

  util::Json::Array session_array;
  for (const SessionSnapshot& s : sessions) {
    util::Json::Object obj;
    obj["handle"] = util::Json(static_cast<double>(s.handle.id));
    obj["gen"] = util::Json(static_cast<double>(s.handle.gen));
    obj["name"] = util::Json(s.name);
    obj["state"] = util::Json(to_string(s.state));
    obj["weight"] = util::Json(s.weight);
    obj["fps"] = util::Json(s.fps);
    obj["stride"] = util::Json(s.stride);
    obj["tight_masks"] = util::Json(s.tight_masks);
    obj["frames"] = util::Json(static_cast<double>(s.frames));
    obj["deferred_ticks"] = util::Json(static_cast<double>(s.deferred_ticks));
    obj["slo_violations"] = util::Json(static_cast<double>(s.slo_violations));
    obj["slo_ms"] = util::Json(s.slo_ms);
    obj["p50_ms"] = util::Json(s.p50_ms);
    obj["p95_ms"] = util::Json(s.p95_ms);
    obj["p99_ms"] = util::Json(s.p99_ms);
    obj["mean_ms"] = util::Json(s.mean_ms);
    obj["mean_isolated_ms"] = util::Json(s.mean_isolated_ms);
    obj["mean_queue_ms"] = util::Json(s.mean_queue_ms);
    obj["busy_sum_ms"] = util::Json(s.busy_sum_ms);
    obj["retries"] = util::Json(static_cast<double>(s.retries));
    obj["dropped_msgs"] = util::Json(static_cast<double>(s.dropped_msgs));
    obj["object_recall"] = util::Json(s.object_recall);
    obj["slo_alerts"] = util::Json(static_cast<double>(s.slo_alerts));
    obj["alerting"] = util::Json(s.alerting);
    obj["fast_burn"] = util::Json(s.fast_burn);
    obj["slow_burn"] = util::Json(s.slow_burn);
    session_array.push_back(util::Json(std::move(obj)));
  }

  util::Json::Object doc;
  doc["fleet"] = util::Json(std::move(fleet));
  doc["sessions"] = util::Json(std::move(session_array));
  return util::Json(std::move(doc)).dump();
}

std::unique_ptr<Fleet> make_fleet(const FleetConfig& config) {
  return std::make_unique<Fleet>(config);
}

}  // namespace mvs::fleet
