#include "fleet/sharded_fleet.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace mvs::fleet {

ShardedFleet::ShardedFleet(const FleetConfig& config)
    : cfg_(config),
      pool_(static_cast<std::size_t>(std::max(0, config.threads))) {
  const int n = std::max(1, cfg_.shards);
  shards_.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k)
    shards_.push_back(std::make_unique<Shard>(cfg_, k, &pool_));
  inner_to_outer_.resize(static_cast<std::size_t>(n));
  base_fps_ = std::max(
      1, static_cast<int>(std::lround(
             1000.0 / std::max(1e-6, cfg_.frame_period_ms))));
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::attach_trace(runtime::TraceRecorder* trace) {
  trace_ = trace;
  for (auto& s : shards_) s->fleet().attach_trace(trace);
}

long ShardedFleet::ticks() const { return shards_[0]->fleet().ticks(); }

int ShardedFleet::wheel_hz() const { return shards_[0]->fleet().wheel_hz(); }

std::size_t ShardedFleet::session_count() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->fleet().session_count();
  return n;
}

AdmitResult ShardedFleet::admit(const SessionSpec& spec) {
  // Keep every shard's wheel equal BEFORE placement: a session admitted
  // anywhere must be cadence-representable everywhere, or migration could
  // not preserve its firing pattern.
  if (spec.fps >= 0) {
    const int fps = spec.fps > 0 ? spec.fps : base_fps_;
    for (auto& s : shards_) s->fleet().ensure_wheel(fps);
  }

  // Least-loaded placement over static placement demand; ties go to the
  // lowest index. O(shards), with an O(1) per-shard capacity check.
  Shard* best = nullptr;
  for (auto& s : shards_) {
    if (cfg_.shard_capacity > 0 &&
        s->fleet().session_count() >=
            static_cast<std::size_t>(cfg_.shard_capacity))
      continue;
    if (!best ||
        s->fleet().placed_demand_ms() < best->fleet().placed_demand_ms())
      best = s.get();
  }
  if (!best) {
    AdmitResult result;
    result.reason = "every shard is at shard_capacity";
    ++rejected_;
    record(runtime::TraceEventType::kSessionReject, -1, 0.0);
    return result;
  }

  AdmitResult result = best->fleet().admit(spec);
  if (!result.admitted) return result;  // the shard counted and traced it

  const SessionHandle inner = result.handle;
  const SessionHandle outer = handles_.issue();
  HandleTable::Entry* entry = handles_.find(outer);
  entry->a = best->index();
  entry->b = inner.id;
  entry->c = inner.gen;
  auto& fwd = inner_to_outer_[static_cast<std::size_t>(best->index())];
  if (fwd.size() <= inner.id) fwd.resize(inner.id + 1);
  fwd[inner.id] = outer;
  result.handle = outer;
  result.shard = best->index();
  return result;
}

ShardedFleet::Route ShardedFleet::resolve(SessionHandle handle,
                                          FleetStatus* status) const {
  const HandleTable::Entry* entry = handles_.find(handle, status);
  if (!entry) return {};
  Route route;
  route.shard = shards_[static_cast<std::size_t>(entry->a)].get();
  route.inner = {entry->b, entry->c};
  return route;
}

FleetStatus ShardedFleet::pause(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  Route route = resolve(handle, &status);
  if (!route.shard) return status;
  return route.shard->fleet().pause(route.inner);
}

FleetStatus ShardedFleet::resume(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  Route route = resolve(handle, &status);
  if (!route.shard) return status;
  return route.shard->fleet().resume(route.inner);
}

FleetStatus ShardedFleet::evict(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  Route route = resolve(handle, &status);
  if (!route.shard) return status;
  return route.shard->fleet().evict(route.inner);
}

FleetStatus ShardedFleet::release(SessionHandle handle) {
  FleetStatus status = FleetStatus::kOk;
  Route route = resolve(handle, &status);
  if (!route.shard) return status;
  const FleetStatus inner_status = route.shard->fleet().release(route.inner);
  if (inner_status != FleetStatus::kOk) return inner_status;
  inner_to_outer_[static_cast<std::size_t>(route.shard->index())]
                 [route.inner.id] = {};
  handles_.release(handle);
  return FleetStatus::kOk;
}

SessionState ShardedFleet::state(SessionHandle handle) const {
  Route route = resolve(handle, nullptr);
  if (!route.shard) return SessionState::kEvicted;
  return route.shard->fleet().state(route.inner);
}

runtime::PipelineResult ShardedFleet::result(SessionHandle handle,
                                             FleetStatus* status) const {
  FleetStatus st = FleetStatus::kOk;
  Route route = resolve(handle, &st);
  if (!route.shard) {
    if (status) *status = st;
    return {};
  }
  return route.shard->fleet().result(route.inner, status);
}

int ShardedFleet::scale_devices(const std::string& device_class, int delta) {
  int size = 1;
  for (auto& s : shards_) size = s->fleet().scale_devices(device_class, delta);
  return size;
}

FleetStatus ShardedFleet::move_session(SessionHandle outer, int target_shard) {
  FleetStatus status = FleetStatus::kOk;
  Route route = resolve(outer, &status);
  if (!route.shard) return status;
  if (target_shard < 0 || target_shard >= shard_count())
    return FleetStatus::kUnknownSession;
  if (target_shard == route.shard->index()) return FleetStatus::kInvalidState;

  const int source_shard = route.shard->index();
  std::unique_ptr<SessionRecord> record_ptr =
      route.shard->fleet().detach(route.inner, &status);
  if (!record_ptr) return status;
  inner_to_outer_[static_cast<std::size_t>(source_shard)][route.inner.id] = {};

  // Stamp provenance BEFORE attach: every post-migration lifecycle event
  // the target shard records for this session carries migrated_from.
  record_ptr->migrated_from = source_shard;
  Shard& target = *shards_[static_cast<std::size_t>(target_shard)];
  const SessionHandle inner = target.fleet().attach(std::move(record_ptr));
  HandleTable::Entry* entry = handles_.find(outer);
  entry->a = target_shard;
  entry->b = inner.id;
  entry->c = inner.gen;
  auto& fwd = inner_to_outer_[static_cast<std::size_t>(target_shard)];
  if (fwd.size() <= inner.id) fwd.resize(inner.id + 1);
  fwd[inner.id] = outer;
  ++migrations_;
  record(runtime::TraceEventType::kSessionMigrate, static_cast<int>(outer.id),
         static_cast<double>(target_shard), target_shard, source_shard);
  return FleetStatus::kOk;
}

FleetStatus ShardedFleet::migrate(SessionHandle handle, int target_shard) {
  return move_session(handle, target_shard);
}

void ShardedFleet::rebalance_scan() {
  // One move per scan, and only past the high-water band (hysteresis —
  // same discipline as Fleet::readmit_scan).
  Shard* hot = nullptr;
  Shard* cold = nullptr;
  double total = 0.0;
  for (auto& s : shards_) {
    total += s->window_busy_ms();
    if (!hot || s->window_busy_ms() > hot->window_busy_ms()) hot = s.get();
    if (!cold || s->window_busy_ms() < cold->window_busy_ms()) cold = s.get();
  }
  const double mean = total / static_cast<double>(shards_.size());
  const bool imbalanced =
      hot && cold && hot != cold && mean > 0.0 &&
      hot->window_busy_ms() > cfg_.rebalance_high_water * mean;
  for (auto& s : shards_) s->reset_window();
  if (!imbalanced) return;

  // Cheapest move first: the hottest shard's smallest-demand active
  // session. Migrate only when the move strictly improves the static
  // placement imbalance (placed_hot - d >= placed_cold + d), so the scan
  // cannot ping-pong a session between two near-equal shards.
  const SessionHandle victim = hot->fleet().pick_migration_victim();
  if (!victim.valid()) return;
  const SessionHandle outer =
      inner_to_outer_[static_cast<std::size_t>(hot->index())][victim.id];
  std::unique_ptr<SessionRecord> rec = hot->fleet().detach(victim);
  if (!rec) return;
  const double d = rec->placement_demand_ms;
  Shard* dest = hot->fleet().placed_demand_ms() >=
                        cold->fleet().placed_demand_ms() + d
                    ? cold
                    : hot;  // not an improvement: put it back where it was
  if (dest != hot) rec->migrated_from = hot->index();
  const SessionHandle inner = dest->fleet().attach(std::move(rec));
  inner_to_outer_[static_cast<std::size_t>(hot->index())][victim.id] = {};
  HandleTable::Entry* entry = handles_.find(outer);
  entry->a = dest->index();
  entry->b = inner.id;
  entry->c = inner.gen;
  auto& fwd = inner_to_outer_[static_cast<std::size_t>(dest->index())];
  if (fwd.size() <= inner.id) fwd.resize(inner.id + 1);
  fwd[inner.id] = outer;
  if (dest != hot) {
    ++migrations_;
    record(runtime::TraceEventType::kSessionMigrate, static_cast<int>(outer.id),
           static_cast<double>(dest->index()), dest->index(), hot->index());
  }
}

void ShardedFleet::step() {
  // Shards are fully independent (own arbiter, own sessions, own wheel),
  // so stepping them concurrently on the shared pool is deterministic for
  // any worker count; each shard's internal parallelism nests on the same
  // pool.
  pool_.run_tiles(shards_.size(),
                  [&](std::size_t i) { shards_[i]->fleet().step(); });

  plan_scratch_.clear();
  double busy = 0.0;
  for (auto& s : shards_) {
    const TickPlan& plan = s->observe_tick();
    plan_scratch_.push_back(&plan);
    busy += plan.shared_busy_ms;
  }
  tick_busy_ms_.add(busy);

  // Second merge level: price what a plane-wide merge would save on top of
  // the shard-local merges this tick. Exactly zero with one shard.
  const CrossMergeStats cross =
      cross_shard_merge(plan_scratch_, cfg_.dispatch_overhead_ms);
  cross_batches_saved_ += cross.batches_saved;
  cross_busy_saved_ms_ += cross.busy_saved_ms;

  if (cfg_.rebalance_interval > 0 &&
      ++rebalance_ticks_ >= cfg_.rebalance_interval) {
    rebalance_ticks_ = 0;
    rebalance_scan();
  }

  ++ticks_;
}

FleetSnapshot ShardedFleet::snapshot() const {
  FleetSnapshot snap;
  snap.ticks = ticks();
  snap.wheel_hz = wheel_hz();
  snap.shards = shard_count();
  snap.rejected = rejected_;
  snap.migrations = migrations_;
  snap.cross_batches_saved = cross_batches_saved_;
  snap.cross_busy_saved_ms = cross_busy_saved_ms_;

  std::map<std::string, int> pools;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = *shards_[k];
    FleetSnapshot sub = shard.fleet().snapshot();
    snap.admitted += sub.admitted;
    snap.rejected += sub.rejected;
    snap.evicted += sub.evicted;
    snap.readmitted += sub.readmitted;
    snap.redegraded += sub.redegraded;
    snap.batch_splits += sub.batch_splits;
    snap.shared_batches += sub.shared_batches;
    snap.isolated_batches += sub.isolated_batches;
    snap.shared_busy_ms += sub.shared_busy_ms;
    snap.isolated_busy_ms += sub.isolated_busy_ms;
    snap.total_queue_ms += sub.total_queue_ms;
    snap.total_retries += sub.total_retries;
    snap.total_dropped_msgs += sub.total_dropped_msgs;
    snap.mean_queue_depth += sub.mean_queue_depth;
    snap.slo_alerts_raised += sub.slo_alerts_raised;
    snap.slo_alerts_cleared += sub.slo_alerts_cleared;
    snap.alerting_sessions += sub.alerting_sessions;
    for (const auto& [name, count] : sub.device_pools)
      pools[name] = std::max(pools[name], count);

    ShardRollup rollup;
    rollup.index = static_cast<int>(k);
    rollup.sessions = static_cast<int>(shard.fleet().session_count());
    rollup.shared_busy_ms = sub.shared_busy_ms;
    rollup.placed_demand_ms = shard.fleet().placed_demand_ms();
    rollup.mean_occupancy = sub.mean_occupancy;
    rollup.alerting = shard.fleet().burn_alerting();
    rollup.slo_alerts = shard.fleet().burn_alerts();

    const auto& fwd = inner_to_outer_[k];
    for (SessionSnapshot& ss : sub.sessions) {
      rollup.frames += ss.frames;
      ss.shard = static_cast<int>(k);
      if (ss.handle.id < fwd.size() && fwd[ss.handle.id].valid())
        ss.handle = fwd[ss.handle.id];
      snap.sessions.push_back(std::move(ss));
    }
    snap.shard_rollups.push_back(rollup);
  }
  for (const auto& [name, count] : pools)
    snap.device_pools.emplace_back(name, count);

  const double tick_period_ms =
      cfg_.frame_period_ms * static_cast<double>(base_fps_) /
      static_cast<double>(std::max(1, snap.wheel_hz));
  snap.mean_occupancy =
      tick_period_ms > 0.0 ? tick_busy_ms_.mean() / tick_period_ms : 0.0;
  snap.p95_tick_busy_ms =
      tick_busy_ms_.count() ? tick_busy_ms_.percentile(95.0) : 0.0;
  return snap;
}

std::unique_ptr<FleetApi> make_fleet(const FleetConfig& config) {
  if (config.shards <= 1) return std::make_unique<Fleet>(config);
  return std::make_unique<ShardedFleet>(config);
}

}  // namespace mvs::fleet
