// Serving-plane workloads over fleet::make_fleet with synthetic sessions (no
// vision stack): plane_steady (a fixed S2 roster stepped back to back) and
// plane_churn (a mixed-scenario, mixed-fps roster with the SLO on and
// handle-addressed lifecycle calls every tick).

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/fleet_api.hpp"
#include "fleet/synthetic.hpp"
#include "geometry/size_class.hpp"
#include "gpu/batch_planner.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using mvs::fleet::FleetApi;
using mvs::fleet::FleetConfig;
using mvs::fleet::FleetStatus;
using mvs::fleet::SessionHandle;
using mvs::fleet::SessionSpec;

SessionSpec synthetic_spec(const std::string& scenario, int fps,
                           std::uint64_t seed, long k) {
  SessionSpec spec;
  spec.name = scenario + "#" + std::to_string(k);
  spec.scenario = scenario;
  spec.synthetic = true;
  spec.fps = fps;
  spec.pipeline.seed = seed;
  return spec;
}

/// Sessions stepped by the last tick: the arbiter lists one share per
/// camera of every stepped session, grouped by session.
long sessions_stepped(const mvs::fleet::Fleet& fleet) {
  long n = 0;
  int last = -1;
  for (const mvs::fleet::Attribution& a : fleet.last_plan().shares) {
    if (a.session != last) ++n;
    last = a.session;
  }
  return n;
}

/// Merged-batch fill of the last tick: tasks executed over the batch slots
/// their batches offered (batches x the size class's batch limit).
void add_batch_fill(const mvs::fleet::Fleet& fleet, double& tasks,
                    double& slots) {
  const std::size_t classes = mvs::geom::SizeClassSet().count();
  std::vector<int> counts(classes, 0);
  mvs::gpu::BatchPlan plan;
  for (const mvs::fleet::MergeCell& cell : fleet.last_plan().cells) {
    std::fill(counts.begin(), counts.end(), 0);
    counts[static_cast<std::size_t>(cell.size_class)] = cell.count;
    mvs::gpu::plan_batch_counts_into(counts, *cell.device, plan);
    for (const mvs::gpu::Batch& b : plan.batches) {
      tasks += b.count;
      slots += cell.device->batch_limit(b.size_class);
    }
  }
}

/// Adds the work the roster generated on the last tick (the merged
/// per-class task counts the synthetic sessions submitted) to a digest.
void add_plan(Digest& d, const mvs::fleet::Fleet& fleet) {
  for (const mvs::fleet::MergeCell& cell : fleet.last_plan().cells) {
    d.add(static_cast<double>(cell.size_class));
    d.add(static_cast<double>(cell.count));
  }
}

/// Frame-weighted mean simulated latency and SLO-miss ledger of a snapshot.
struct PlaneQuality {
  double latency_ms_mean = 0.0;
  double slo_miss_ratio = 0.0;
  double frames = 0.0;
};

PlaneQuality plane_quality(const mvs::fleet::FleetSnapshot& snap) {
  double lat = 0.0, frames = 0.0, deferred = 0.0, over = 0.0;
  for (const mvs::fleet::SessionSnapshot& s : snap.sessions) {
    lat += s.mean_ms * static_cast<double>(s.frames);
    frames += static_cast<double>(s.frames);
    deferred += static_cast<double>(s.deferred_ticks);
    over += static_cast<double>(s.slo_violations);
  }
  PlaneQuality q;
  q.frames = frames;
  q.latency_ms_mean = frames > 0.0 ? lat / frames : 0.0;
  const double due = frames + deferred;
  q.slo_miss_ratio = due > 0.0 ? (deferred + over) / due : 0.0;
  return q;
}

/// Harness-side replay of the per-session work: one synthetic source per
/// spec, built as the fleet builds a synthetic session (the scenario's
/// devices, the spec's seed and key-frame horizon). Each of `rounds` rounds
/// runs a source fps / 5 frames (one frame when the spec leaves fps to the
/// scenario), so the mix matches the session-frames a plane of these specs
/// steps. Returns ns per session frame.
double synthetic_session_ns(const std::vector<SessionSpec>& specs,
                            int rounds) {
  std::map<std::string, std::vector<mvs::gpu::DeviceProfile>> devices;
  for (const SessionSpec& spec : specs) {
    auto& devs = devices[spec.scenario];
    if (!devs.empty()) continue;
    for (const auto& cam :
         mvs::sim::make_scenario(spec.scenario, spec.pipeline.seed).cameras)
      devs.push_back(cam.device);
  }
  std::vector<mvs::fleet::SyntheticSource> sources;
  std::vector<int> frames;
  sources.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    sources.emplace_back(devices[spec.scenario], spec.pipeline.seed,
                         FleetConfig{}.assumed_tasks_per_camera,
                         spec.pipeline.horizon_frames);
    frames.push_back(spec.fps > 0 ? spec.fps / 5 : 1);
  }
  double session_frames = 0.0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r)
    for (std::size_t s = 0; s < sources.size(); ++s)
      for (int f = 0; f < frames[s]; ++f) sources[s].run_frame();
  const double ms = ms_since(t0);
  for (int n : frames) session_frames += static_cast<double>(n) * rounds;
  return 1e6 * ms / session_frames;
}

/// Timed ticks of one plane workload, in rounds over its segments.
struct PlaneStats {
  explicit PlaneStats(int segments_per_round) : rounds(segments_per_round) {}
  Rounds rounds;
  double tasks = 0.0, slots = 0.0;  ///< merged-batch fill ledger

  void add(const mvs::fleet::Fleet& fleet, double ms) {
    rounds.add(ms, 1.0, static_cast<double>(sessions_stepped(fleet)));
    add_batch_fill(fleet, tasks, slots);
  }
};

/// What the first segment (the deterministic window) leaves behind.
struct FirstSegment {
  Digest inputs;  ///< the work generated over the warm-up ticks
  double latency_ms_mean = 0.0, slo_miss_ratio = 0.0;
  double snapshot_ms = 0.0, rss_kb_per_1k_ticks = 0.0;
  double deferred_per_tick = 0.0, shared_batches_per_tick = 0.0;
};

/// Runs plane segments until the budget is spent: each segment is a fresh
/// plane (`build(k)`, timed into `setups`; the set-up time is the median
/// over the whole run, so a few seconds of host noise do not decide it)
/// that runs `warmup` untimed ticks, then `seg_ticks` timed ticks (`tick` =
/// lifecycle calls + Fleet::step). `after` runs untimed after every tick
/// and `check` on the final snapshot of every segment. In the traced run odd
/// segments are traced (so there are at least two); their fleet.arbiter
/// spans are summed into `arbiter_us`.
template <typename Build, typename Tick, typename After, typename Check>
void plane_segments(const Options& opt, int warmup, int seg_ticks,
                    int min_segments, int window, Build&& build, Tick&& tick,
                    After&& after, Check&& check, std::vector<double>& setups,
                    PlaneStats& untraced, PlaneStats& traced,
                    FirstSegment& seg0, double& arbiter_us) {
  int k = 0;
  run_for(opt.seconds, opt.trace ? 2 * min_segments : min_segments, [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<FleetApi> api = build(k);
    setups.push_back(ms_since(t0) / 1000.0);
    auto& fleet = dynamic_cast<mvs::fleet::Fleet&>(*api);
    for (int t = 0; t < warmup; ++t) {
      tick(fleet);
      if (k == 0) add_plan(seg0.inputs, fleet);
      after(fleet);
    }
    const double rss0 = proc_status_kb("VmRSS");
    const bool trace = opt.trace && k % 2 == 1;
    if (trace) {
      mvs::obs::reset();
      mvs::obs::set_enabled(true);
    }
    for (int t = 0; t < seg_ticks; ++t) {
      const auto t0 = Clock::now();
      tick(fleet);
      (trace ? traced : untraced).add(fleet, ms_since(t0));
      after(fleet);
      if (k != 0 || fleet.ticks() != window) continue;
      const auto s0 = Clock::now();
      const PlaneQuality q = plane_quality(fleet.snapshot());
      seg0.snapshot_ms = ms_since(s0);
      seg0.latency_ms_mean = q.latency_ms_mean;
      seg0.slo_miss_ratio = q.slo_miss_ratio;
    }
    if (trace) {
      mvs::obs::set_enabled(false);
      for (const mvs::obs::SpanEvent& e : mvs::obs::tracer().collect())
        if (std::string(e.name) == "fleet.arbiter")
          arbiter_us += static_cast<double>(e.dur_us);
      mvs::obs::reset();
    }
    (trace ? traced : untraced).rounds.end_segment();
    const mvs::fleet::FleetSnapshot snap = fleet.snapshot();
    check(snap);
    if (k == 0) {
      const double ticks = static_cast<double>(snap.ticks);
      seg0.rss_kb_per_1k_ticks =
          1000.0 * (proc_status_kb("VmRSS") - rss0) / seg_ticks;
      seg0.deferred_per_tick = snap.mean_queue_depth;
      seg0.shared_batches_per_tick =
          static_cast<double>(snap.shared_batches) / ticks;
    }
    ++k;
  });
}

/// Per-layer rows both plane workloads share.
void set_plane_layers(Result& res, const PlaneStats& untraced,
                      const PlaneStats& traced, double arbiter_us,
                      double session_ns, double admit_us,
                      const FirstSegment& seg0, double speedup) {
  res.set("fleet.step_ns_per_session_tick",
          1e6 * untraced.rounds.total_ms() / untraced.rounds.total_streams(),
          "ns");
  res.set("fleet.session_ns", session_ns, "ns");
  res.set("fleet.arbiter_ns_per_session",
          1e3 * arbiter_us / traced.rounds.total_streams(), "ns");
  res.set("fleet.admit_us", admit_us, "us");
  res.set("fleet.snapshot_ms", seg0.snapshot_ms, "ms");
  res.set("fleet.deferred_per_tick", seg0.deferred_per_tick, "count");
  res.set("fleet.shared_batches_per_tick", seg0.shared_batches_per_tick,
          "count");
  res.set("fleet.batch_fill",
          untraced.slots > 0.0 ? untraced.tasks / untraced.slots : 0.0,
          "ratio");
  res.set("fleet.rss_kb_per_1k_ticks", seg0.rss_kb_per_1k_ticks, "kB");
  res.set("obs.trace_overhead_pct",
          100.0 * (traced.rounds.p50() / untraced.rounds.p50() - 1.0), "%");
  res.set("util.parallel_speedup", speedup, "x");
}

/// Mean tick wall of `ticks` ticks of a fresh 1-thread copy of the plane
/// over the mean of the same ticks at the workload's thread count.
template <typename Build>
double plane_speedup(const Options& opt, int ticks, Build&& build) {
  double mean_ms[2] = {0.0, 0.0};
  const int threads[2] = {1, opt.threads};
  for (int k = 0; k < 2; ++k) {
    std::unique_ptr<FleetApi> fleet = build(threads[k]);
    fleet->step();  // key frames and scratch growth
    const auto t0 = Clock::now();
    for (int t = 0; t < ticks; ++t) fleet->step();
    mean_ms[k] = ms_since(t0) / ticks;
  }
  return mean_ms[0] / mean_ms[1];
}

}  // namespace

Result run_plane_steady(const Options& opt) {
  Result res;
  const int sessions = 4000;
  const int warmup = 5;
  const int seg_ticks = 40;  // timed ticks per segment
  const int min_segments = 5;
  const int window = warmup + seg_ticks;  // deterministic-metric ticks

  const auto spec_for = [&](int s) {
    return synthetic_spec("S2", 0, opt.seed * 100003ULL + s, s);
  };
  const auto build = [&](int threads) {
    FleetConfig cfg;
    cfg.threads = threads;
    std::unique_ptr<FleetApi> fleet = mvs::fleet::make_fleet(cfg);
    for (int s = 0; s < sessions; ++s) fleet->admit(spec_for(s));
    return fleet;
  };

  // Correctness: the whole roster is admitted, and with the SLO off every
  // session runs every tick.
  const auto check = [&](const mvs::fleet::FleetSnapshot& snap) {
    res.check(static_cast<int>(snap.sessions.size()) == sessions,
              "plane_steady roster not fully admitted");
    for (const mvs::fleet::SessionSnapshot& s : snap.sessions)
      res.check(s.frames == snap.ticks,
                "plane_steady session " + s.name + " ran " +
                    std::to_string(s.frames) + " frames in " +
                    std::to_string(snap.ticks) + " ticks");
  };
  std::vector<double> setups;
  PlaneStats untraced(min_segments), traced(min_segments);  // 200 ticks
  FirstSegment seg0;
  double arbiter_us = 0.0;
  plane_segments(
      opt, warmup, seg_ticks, min_segments, window,
      [&](int) { return build(opt.threads); },
      [](mvs::fleet::Fleet& fleet) { fleet.step(); },
      [](const mvs::fleet::Fleet&) {}, check, setups, untraced, traced, seg0,
      arbiter_us);
  const double setup_s = median(setups);

  res.note("sessions", sessions, "count");
  res.note("sim_latency_ms_mean", seg0.latency_ms_mean, "ms");
  res.note("input_digest", seg0.inputs.value(), "hash");
  if (!opt.trace) {
    res.set("setup_s", setup_s, "s");
    set_timings(res, untraced.rounds);
    return res;
  }
  std::vector<SessionSpec> timed_specs;
  for (int s = 0; s < 1000; ++s) timed_specs.push_back(spec_for(s));
  const double session_ns = synthetic_session_ns(timed_specs, 20);
  const double speedup = plane_speedup(opt, 10, build);
  set_plane_layers(res, untraced, traced, arbiter_us, session_ns,
                   1e6 * setup_s / sessions, seg0, speedup);
  return res;
}

Result run_plane_churn(const Options& opt) {
  Result res;
  const char* const kScenarios[] = {"S1", "S2", "S3"};
  const int kFps[] = {10, 15, 30};
  const int roster = 1000;
  const int devices_per_class = 300;
  const int warmup = 15;
  // Admissions after the roster are mostly refused, so evicting every tick
  // drains the plane; a segment ends while most of the roster is live.
  const int seg_ticks = 400;  // timed ticks per segment
  const int min_segments = 4;
  const int window = 120;  // deterministic-metric ticks

  // Session k: scenario k mod 3, fps (k / 3) mod 3 — every pairing present.
  const auto spec_for = [&](long k) {
    return synthetic_spec(kScenarios[k % 3], kFps[(k / 3) % 3],
                          opt.seed * 100003ULL + static_cast<std::uint64_t>(k),
                          k);
  };
  std::vector<std::string> classes;
  for (const char* name : kScenarios)
    for (const auto& cam : mvs::sim::make_scenario(name, opt.seed).cameras)
      if (std::find(classes.begin(), classes.end(), cam.device.name()) ==
          classes.end())
        classes.push_back(cam.device.name());

  // The benchmark's own ledger of what the plane should hold, one per
  // segment (rebuilt with the plane).
  struct Ledger {
    std::vector<SessionHandle> active, paused, evicted, released;
    long admits = 0, rejects = 0, next_k = 0;
    long roster_rejects = 0;  ///< admissions the roster itself was refused
    mvs::util::Rng rng{0};
  };
  Ledger ledger;
  const auto build = [&](int threads, Ledger& book, int segment) {
    FleetConfig cfg;
    cfg.threads = threads;
    cfg.slo_ms = 1000.0;
    std::unique_ptr<FleetApi> fleet = mvs::fleet::make_fleet(cfg);
    for (const std::string& c : classes)
      fleet->scale_devices(c, devices_per_class - 1);
    book = Ledger{};
    book.rng =
        mvs::util::Rng((opt.seed << 8) ^ static_cast<std::uint64_t>(segment));
    for (long k = 0; k < roster; ++k) {
      const mvs::fleet::AdmitResult a = fleet->admit(spec_for(k));
      ++book.admits;
      if (a.admitted)
        book.active.push_back(a.handle);
      else
        ++book.rejects;
    }
    book.next_k = roster;
    book.roster_rejects = book.rejects;
    return fleet;
  };

  // Lifecycle calls of one tick, addressed by handle and checked against
  // the ledger: evict one, admit one, resume one, pause one, release the
  // oldest eviction; then probe one released handle for staleness and
  // compare the live count.
  double admit_us = 0.0, evict_us = 0.0, release_us = 0.0, pr_us = 0.0;
  long admit_n = 0, evict_n = 0, release_n = 0, pr_n = 0;
  // Per-call times feed the per-layer table only; the end-to-end run keeps
  // the clock out of the timed tick.
  const auto timed_call = [&](double& acc, long& n, auto&& call) {
    if (!opt.trace) return call();
    const auto t0 = Clock::now();
    const auto out = call();
    acc += 1000.0 * ms_since(t0);
    ++n;
    return out;
  };
  const auto take = [&](std::vector<SessionHandle>& from) {
    const std::size_t i = static_cast<std::size_t>(
        ledger.rng.uniform_int(0, static_cast<int>(from.size()) - 1));
    const SessionHandle h = from[i];
    from[i] = from.back();
    from.pop_back();
    return h;
  };
  const auto tick = [&](mvs::fleet::Fleet& fleet) {
    if (ledger.active.size() > 1) {
      const SessionHandle e = take(ledger.active);
      res.check(timed_call(evict_us, evict_n,
                           [&] { return fleet.evict(e); }) == FleetStatus::kOk,
                "plane_churn evict of a live handle failed");
      ledger.evicted.push_back(e);
    }
    const mvs::fleet::AdmitResult a =
        timed_call(admit_us, admit_n,
                   [&] { return fleet.admit(spec_for(ledger.next_k++)); });
    ++ledger.admits;
    if (a.admitted)
      ledger.active.push_back(a.handle);
    else
      ++ledger.rejects;
    if (!ledger.paused.empty()) {
      const SessionHandle h = take(ledger.paused);
      res.check(timed_call(pr_us, pr_n, [&] { return fleet.resume(h); }) ==
                    FleetStatus::kOk,
                "plane_churn resume of a paused handle failed");
      ledger.active.push_back(h);
    }
    if (ledger.active.size() > 1) {
      const SessionHandle h = take(ledger.active);
      res.check(timed_call(pr_us, pr_n, [&] { return fleet.pause(h); }) ==
                    FleetStatus::kOk,
                "plane_churn pause of a live handle failed");
      ledger.paused.push_back(h);
    }
    if (ledger.evicted.size() > 4) {
      const SessionHandle h = ledger.evicted.front();
      ledger.evicted.erase(ledger.evicted.begin());
      res.check(timed_call(release_us, release_n,
                           [&] { return fleet.release(h); }) ==
                    FleetStatus::kOk,
                "plane_churn release of an evicted handle failed");
      ledger.released.push_back(h);
      if (ledger.released.size() > 64)
        ledger.released.erase(ledger.released.begin());
    }
    fleet.step();
  };
  // Untimed checks after every tick: the stale probe and the live count.
  const auto after = [&](mvs::fleet::Fleet& fleet) {
    if (!ledger.released.empty()) {
      const int last = static_cast<int>(ledger.released.size()) - 1;
      const SessionHandle h = ledger.released[static_cast<std::size_t>(
          ledger.rng.uniform_int(0, last))];
      res.check(fleet.pause(h) == FleetStatus::kStaleHandle,
                "plane_churn released handle is not stale");
    }
    res.check(fleet.session_count() ==
                  ledger.active.size() + ledger.paused.size(),
              "plane_churn live count differs from the ledger");
  };
  long seg0_admits = 0, seg0_rejects = 0, roster_rejects = 0;
  const auto check = [&](const mvs::fleet::FleetSnapshot& snap) {
    res.check(snap.ticks == warmup + seg_ticks,
              "plane_churn segment tick count");
    if (seg0_admits == 0) {
      seg0_admits = ledger.admits;
      seg0_rejects = ledger.rejects;
      roster_rejects = ledger.roster_rejects;
    }
  };
  std::vector<double> setups;
  PlaneStats untraced(1), traced(1);  // a round is one 400-tick segment
  FirstSegment seg0;
  double arbiter_us = 0.0;
  plane_segments(
      opt, warmup, seg_ticks, min_segments, window,
      [&](int segment) { return build(opt.threads, ledger, segment); }, tick,
      after, check, setups, untraced, traced, seg0, arbiter_us);
  const double setup_s = median(setups);

  res.note("roster_reject_ratio",
           static_cast<double>(roster_rejects) / static_cast<double>(roster),
           "ratio");
  res.note("sim_latency_ms_mean", seg0.latency_ms_mean, "ms");
  res.note("slo_miss_ratio", seg0.slo_miss_ratio, "ratio");
  res.note("admit_reject_ratio",
           static_cast<double>(seg0_rejects) /
               static_cast<double>(seg0_admits),
           "ratio");
  res.note("input_digest", seg0.inputs.value(), "hash");
  if (!opt.trace) {
    res.set("setup_s", setup_s, "s");
    set_timings(res, untraced.rounds);
    return res;
  }
  // The roster's own mix of scenarios and rates.
  std::vector<SessionSpec> timed_specs;
  for (long k = 0; k < roster; ++k) timed_specs.push_back(spec_for(k));
  const double session_ns = synthetic_session_ns(timed_specs, 20);
  Ledger scratch;
  const double speedup = plane_speedup(
      opt, 10, [&](int threads) { return build(threads, scratch, 0); });
  set_plane_layers(res, untraced, traced, arbiter_us, session_ns,
                   admit_n > 0 ? admit_us / admit_n : 0.0, seg0, speedup);
  res.set("fleet.evict_us", evict_n > 0 ? evict_us / evict_n : 0.0, "us");
  res.set("fleet.release_us", release_n > 0 ? release_us / release_n : 0.0,
          "us");
  res.set("fleet.pause_resume_us", pr_n > 0 ? pr_us / pr_n : 0.0, "us");
  return res;
}

}  // namespace perfbench
