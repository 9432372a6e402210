#pragma once
// mvs::fleet vocabulary types: admission result and rollup snapshots; the
// config types are aliases of the runtime::config ones. The serving plane
// itself is the concrete Fleet (fleet.hpp), which serves from one session
// to tens of thousands. Sessions are addressed by opaque SessionHandle
// values (see handle.hpp); handle misuse after release() returns a typed
// FleetStatus instead of silently addressing a reused slot.

#include <string>
#include <utility>
#include <vector>

#include "fleet/handle.hpp"
#include "runtime/config.hpp"

namespace mvs::fleet {

/// The fleet-wide config and its dispatch enum are owned by runtime::config
/// (the JSON-facing layer, whose field table parses, dumps and validates
/// them); the fleet consumes them verbatim.
using DispatchPolicy = runtime::DispatchPolicy;
using FleetConfig = runtime::FleetConfig;
using runtime::parse_dispatch;
using runtime::to_string;

/// The per-session serving spec is owned by runtime::config (the JSON-
/// facing layer); the fleet consumes it verbatim. See
/// runtime::FleetSessionSpec for the full field reference — name,
/// scenario, pipeline, weight, native fps, SLO override, the optional
/// per-session fault profile, and the synthetic-load switch.
using SessionSpec = runtime::FleetSessionSpec;

enum class SessionState { kActive, kPaused, kEvicted };

const char* to_string(SessionState state);

struct AdmitResult {
  SessionHandle handle;  ///< invalid (gen 0) when rejected
  bool admitted = false;
  bool masks_tightened = false;  ///< degraded: solo-coverage adoption only
  bool rate_halved = false;      ///< degraded: runs at half its native rate
  double projected_ms = 0.0;     ///< fleet demand estimate at decision time
  std::string reason;
};

/// Per-session rollup (stats snapshot).
struct SessionSnapshot {
  SessionHandle handle;  ///< the caller-facing identity
  std::string name;
  SessionState state = SessionState::kActive;
  double weight = 1.0;
  int fps = 0;               ///< native rate (resolved; base rate if 0 in spec)
  int stride = 1;            ///< 2 when frame-rate halved
  bool tight_masks = false;
  long frames = 0;           ///< frames actually run
  long deferred_ticks = 0;   ///< ticks lost to dispatch deferral
  long slo_violations = 0;   ///< frames whose latency > effective SLO
  double slo_ms = 0.0;       ///< effective SLO (session override or fleet)
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_ms = 0.0;           ///< mean frame latency (attributed + queue)
  double mean_isolated_ms = 0.0;  ///< same work on dedicated devices
  double mean_queue_ms = 0.0;     ///< mean device-pool queueing per frame
  double busy_sum_ms = 0.0;       ///< Σ attributed GPU busy over all frames
  long retries = 0;               ///< transport retransmissions (lossy only)
  long dropped_msgs = 0;          ///< messages lost after all retries
  double object_recall = 0.0;
  /// SLO burn-rate health (0 / false when monitoring is disabled).
  long slo_alerts = 0;       ///< raise edges over the session's lifetime
  bool alerting = false;     ///< currently inside a raise..clear episode
  double fast_burn = 0.0;    ///< burn rate over the fast window
  double slow_burn = 0.0;    ///< burn rate over the slow window
};

/// Fleet-level rollup.
struct FleetSnapshot {
  long ticks = 0;
  int wheel_hz = 0;  ///< current tick-wheel rate (lcm of admitted rates)
  int admitted = 0, rejected = 0, evicted = 0;
  int readmitted = 0;       ///< degrade-ladder rungs restored
  int redegraded = 0;       ///< degrade-ladder rungs re-applied under load
  long batch_splits = 0;    ///< arbiter batch splits across all ticks
  long shared_batches = 0, isolated_batches = 0;
  double shared_busy_ms = 0.0, isolated_busy_ms = 0.0;
  double total_queue_ms = 0.0;  ///< summed device-pool queueing delay
  /// Transport fault rollups summed over all sessions (lossy only).
  long total_retries = 0;
  long total_dropped_msgs = 0;
  /// SLO burn-rate alerting rollup (0 when monitoring is disabled).
  long slo_alerts_raised = 0;   ///< raise edges (sessions + plane)
  long slo_alerts_cleared = 0;  ///< clear edges
  int alerting_sessions = 0;    ///< sessions currently alerting
  /// Mean per-tick GPU busy time / tick period; > 1 means saturated.
  double mean_occupancy = 0.0;
  double p95_tick_busy_ms = 0.0;
  /// Mean sessions deferred per tick (dispatch queue depth).
  double mean_queue_depth = 0.0;
  /// Accelerator pools by class name (count >= 1 per class in use).
  std::vector<std::pair<std::string, int>> device_pools;
  std::vector<SessionSnapshot> sessions;

  /// JSON document of the whole rollup (fleet object + sessions array).
  std::string to_json() const;
};

}  // namespace mvs::fleet
