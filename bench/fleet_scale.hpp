#pragma once
// Shared fleet scale-sweep harness (bench_fleet --scale and bench_report).
//
// Hosts `sessions` synthetic-load sessions (fleet::SyntheticSource-backed —
// no vision stack, so 10k sessions admit in milliseconds) on one serving
// plane and times admission and steady-state serving. Everything but the
// wall-clock columns is deterministic for a given (sessions, ticks, seed).

#include <cstdint>
#include <string>

#include "fleet/fleet.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace mvs::bench {

struct ScalePoint {
  int sessions = 0;
  int ticks = 0;
  double admit_ms = 0.0;        ///< wall clock to admit the whole roster
  double run_ms = 0.0;          ///< wall clock for run(ticks)
  double ticks_per_sec = 0.0;   ///< serving throughput
  double ns_per_session_tick = 0.0;  ///< run_ms per (sessions x ticks)
  long frames = 0;              ///< session-frames served
  long shared_batches = 0;      ///< merged batches
  double total_queue_ms = 0.0;  ///< device-pool queueing
  double mean_occupancy = 0.0;
};

/// Run one scale point. Sessions are synthetic copies of `scenario` with
/// consecutive seeds.
inline ScalePoint run_scale_point(const std::string& scenario, int sessions,
                                  int ticks, std::uint64_t seed,
                                  int threads = 0) {
  fleet::FleetConfig cfg;
  cfg.threads = threads;
  fleet::Fleet fleet(cfg);

  ScalePoint point;
  point.sessions = sessions;
  point.ticks = ticks;

  util::Stopwatch admit_watch;
  for (int s = 0; s < sessions; ++s) {
    fleet::SessionSpec spec;
    spec.name = scenario + "#" + std::to_string(s);
    spec.scenario = scenario;
    spec.synthetic = true;
    spec.pipeline.seed = seed + static_cast<std::uint64_t>(s);
    fleet.admit(spec);
  }
  point.admit_ms = admit_watch.elapsed_ms();

  util::Stopwatch run_watch;
  fleet.run(ticks);
  point.run_ms = run_watch.elapsed_ms();
  point.ticks_per_sec = point.run_ms > 0.0
                            ? 1000.0 * static_cast<double>(ticks) / point.run_ms
                            : 0.0;
  point.ns_per_session_tick =
      sessions > 0 ? 1e6 * point.run_ms /
                         (static_cast<double>(sessions) * ticks)
                   : 0.0;

  const fleet::FleetSnapshot snap = fleet.snapshot();
  for (const fleet::SessionSnapshot& s : snap.sessions)
    point.frames += s.frames;
  point.shared_batches = snap.shared_batches;
  point.total_queue_ms = snap.total_queue_ms;
  point.mean_occupancy = snap.mean_occupancy;
  return point;
}

inline util::Json scale_point_json(const ScalePoint& p) {
  util::Json::Object o;
  o["sessions"] = util::Json(p.sessions);
  o["ticks"] = util::Json(p.ticks);
  o["admit_ms"] = util::Json(p.admit_ms);
  o["run_ms"] = util::Json(p.run_ms);
  o["ticks_per_sec"] = util::Json(p.ticks_per_sec);
  o["ns_per_session_tick"] = util::Json(p.ns_per_session_tick);
  o["frames"] = util::Json(static_cast<double>(p.frames));
  o["shared_batches"] = util::Json(static_cast<double>(p.shared_batches));
  o["total_queue_ms"] = util::Json(p.total_queue_ms);
  o["mean_occupancy"] = util::Json(p.mean_occupancy);
  return util::Json(std::move(o));
}

}  // namespace mvs::bench
