// Pipeline workloads: s1_closed (closed loop over Pipeline::run_frame on the
// paper's scenario S1) and city_paced (an open loop in virtual time over a
// city grid, driven through rt::RtRunner).

#include <algorithm>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/pipeline.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

using mvs::runtime::FrameStats;
using mvs::runtime::Pipeline;
using mvs::runtime::PipelineConfig;

/// The FrameStats fields that are simulated (bit-deterministic per seed and
/// independent of the thread count); the wall-clock fields are excluded.
bool same_deterministic_fields(const FrameStats& a, const FrameStats& b) {
  return a.frame == b.frame && a.key_frame == b.key_frame &&
         a.camera_infer_ms == b.camera_infer_ms &&
         a.slowest_infer_ms == b.slowest_infer_ms &&
         a.frame_recall == b.frame_recall && a.gt_objects == b.gt_objects &&
         a.tracked_objects == b.tracked_objects && a.comm_ms == b.comm_ms &&
         a.cameras_online == b.cameras_online;
}

/// The pipeline's own wall-clock stage times (FrameStats): the central
/// stage on key frames, the slowest camera's distributed stage on regular
/// frames.
struct StageLedger {
  double central_ms = 0.0, key_frames = 0.0;
  double distributed_ms = 0.0, regular_frames = 0.0;

  void add(const FrameStats& st) {
    if (st.key_frame) {
      central_ms += st.central_ms;
      key_frames += 1.0;
    } else {
      distributed_ms += st.distributed_ms;
      regular_frames += 1.0;
    }
  }

  void report(Result& res) const {
    res.set("core.central_balb_us",
            key_frames > 0.0 ? 1000.0 * central_ms / key_frames : 0.0, "us");
    res.set("core.distributed_us",
            regular_frames > 0.0 ? 1000.0 * distributed_ms / regular_frames
                                 : 0.0,
            "us");
  }
};

/// Cold-camera share the pipeline's correlation gate recorded in its
/// policy.gate_cold_frac histogram over traced frames (0 without a gate).
struct ColdLedger {
  double sum = 0.0, frames = 0.0;

  /// Reads the histogram of the traced frames since the last obs reset.
  void add() {
    const mvs::obs::Histogram& h =
        mvs::obs::metrics().histogram("policy.gate_cold_frac");
    sum += h.sum();
    frames += static_cast<double>(h.count());
  }
  double ratio() const { return frames > 0.0 ? sum / frames : 0.0; }
};

/// Total duration (µs) of the collected spans named `name`.
double span_total_us(const std::vector<mvs::obs::SpanEvent>& ev,
                     const std::string& name) {
  double us = 0.0;
  for (const mvs::obs::SpanEvent& e : ev)
    if (name == e.name) us += static_cast<double>(e.dur_us);
  return us;
}

/// Adds a frame's generated ground truth (ids and boxes per camera) to the
/// run's input digest.
void add_frame(Digest& d, const mvs::sim::MultiFrame& mf) {
  for (const auto& cam : mf.per_camera)
    for (const mvs::detect::GroundTruthObject& o : cam) {
      d.add(static_cast<double>(o.id));
      d.add(o.box.x);
      d.add(o.box.y);
      d.add(o.box.w);
      d.add(o.box.h);
    }
}

/// Seed of segment k of a run: every segment is its own deployment (world,
/// detector and arrival randomness) derived from the run's seed.
std::uint64_t segment_seed(std::uint64_t seed, int k) {
  return seed * 1000ULL + static_cast<std::uint64_t>(k);
}

void merge_layers(Result& res, const std::map<std::string, Metric>& layers) {
  for (const auto& [name, m] : layers) res.metrics[name] = m;
}

/// Attribution conservation of the frames recorded since the last reset;
/// returns the largest error seen.
double check_conservation(Result& res, const std::string& what) {
  const mvs::obs::CriticalPath& cp = mvs::obs::critical_path();
  res.check(cp.frames() > 0 && cp.max_conservation_error_ms() < 1e-6,
            what + ": attribution conservation error " +
                std::to_string(cp.max_conservation_error_ms()) + " ms over " +
                std::to_string(cp.frames()) + " frames");
  return cp.max_conservation_error_ms();
}

}  // namespace

Result run_s1_closed(const Options& opt) {
  Result res;
  const std::string scenario = "S1";
  const int seg_frames = 150;
  const int min_segments = 16;  // the deterministic window
  const int per_round = 2;      // 296 timed frames a round
  const int skip = 2;  // per-segment warm-up frames, not timed
  const auto config = [&](int k, int threads) {
    PipelineConfig cfg;
    cfg.policy = mvs::runtime::Policy::kBalb;
    cfg.seed = segment_seed(opt.seed, k);
    cfg.threads = threads;
    cfg.keep_history = false;
    return cfg;
  };

  std::vector<double> setups, slowest, recalls;
  Rounds rounds(per_round);
  std::vector<FrameStats> head;
  Digest inputs;  // the first segment's frames
  StageLedger stages;
  ColdLedger cold;
  // One segment: a fresh deployment of seed k (set-up timed) that serves
  // seg_frames frames closed-loop, every frame timing itself. Returns the
  // wall time (ms) of its timed frames. Traced segments repeat an untraced
  // one and add nothing but that time and the obs readings.
  const auto segment = [&](int k, bool traced) {
    const auto t0 = Clock::now();
    Pipeline p(scenario, config(k, opt.threads));
    const double setup_s = ms_since(t0) / 1000.0;
    const double cams = static_cast<double>(p.camera_count());
    if (traced) {
      mvs::obs::reset();
      mvs::obs::set_enabled(true);
    }
    double timed_ms = 0.0;
    for (int f = 0; f < seg_frames; ++f) {
      const auto t1 = Clock::now();
      const FrameStats& st = p.run_frame_ref();
      const double ms = ms_since(t1);
      if (f >= skip) {
        timed_ms += ms;
        if (!opt.trace) rounds.add(ms, 1.0, cams);
      }
      if (traced) continue;
      if (k == 0) {
        add_frame(inputs, p.current_frame());
        head.push_back(st);
      }
      if (k < min_segments) slowest.push_back(st.slowest_infer_ms);
      if (opt.trace) stages.add(st);
    }
    if (traced) {
      mvs::obs::set_enabled(false);
      cold.add();
      mvs::obs::reset();
    } else {
      setups.push_back(setup_s);
      if (k < min_segments) recalls.push_back(p.result().object_recall);
    }
    return timed_ms;
  };

  // The end-to-end run times untraced segments. The traced run runs each
  // seed untraced and then traced, back to back, and takes the tracing
  // overhead per pair, so both sides serve the same world.
  std::vector<double> overhead_pct;
  int k = 0;
  run_for(opt.seconds, min_segments, [&] {
    const double plain_ms = segment(k, false);
    if (opt.trace)
      overhead_pct.push_back(100.0 * (segment(k, true) / plain_ms - 1.0));
    else
      rounds.end_segment();
    ++k;
  });

  // Correctness: the deterministic FrameStats fields of the first segment
  // equal a 1-thread replay of the same seed.
  {
    Pipeline replay(scenario, config(0, 1));
    for (std::size_t f = 0; f < head.size(); ++f)
      res.check(same_deterministic_fields(replay.run_frame_ref(), head[f]),
                "s1_closed frame " + std::to_string(f) +
                    " differs from the 1-thread replay");
  }
  for (double r : recalls)
    res.check(r > 0.0 && r <= 1.0, "s1_closed object recall out of (0, 1]");

  res.note("segments", static_cast<double>(k), "count");
  res.note("sim_latency_ms_mean", mean(slowest), "ms");
  res.note("object_recall", mean(recalls), "ratio");
  res.note("input_digest", inputs.value(), "hash");
  if (!opt.trace) {
    res.set("setup_s", median(setups), "s");
    set_timings(res, rounds);
    return res;
  }

  res.set("obs.trace_overhead_pct", median(overhead_pct), "%");
  stages.report(res);
  res.set("policy.gate_cold_ratio", cold.ratio(), "ratio");
  // Single-threaded baseline: segment 0 again at 1 thread and at the
  // workload's thread count, both in the warm process.
  const auto segment_ms = [&](int threads) {
    Pipeline p(scenario, config(0, threads));
    for (int f = 0; f < skip; ++f) p.run_frame_ref();
    const auto t0 = Clock::now();
    for (int f = skip; f < seg_frames; ++f) p.run_frame_ref();
    return ms_since(t0);
  };
  res.set("util.parallel_speedup", segment_ms(1) / segment_ms(opt.threads),
          "x");

  // Per-layer probe alongside segment 0's deployment.
  {
    LayerProbe probe(scenario, config(0, 1));
    Pipeline p(scenario, config(0, opt.threads));
    for (int f = 0; f < seg_frames; ++f) {
      p.run_frame_ref();
      res.check(probe.observe(p, true),
                "s1_closed probe playback differs from frame " +
                    std::to_string(f));
    }
    merge_layers(res, probe.metrics());
  }

  // Attribution conservation on the same frames: the paced runtime with
  // finish-late and no deadline replays the unpaced pipeline bit-exactly
  // (rt-of-one) and is the producer of per-frame attributions.
  mvs::runtime::RtConfig rt_one;
  rt_one.paced = true;
  rt_one.deadline_ms = 0.0;
  rt_one.late_policy = mvs::runtime::LatePolicy::kFinishLate;
  PipelineConfig hist = config(0, opt.threads);
  hist.keep_history = true;
  mvs::rt::RtRunner rt(scenario, hist, rt_one);
  mvs::obs::critical_path().reset();
  mvs::obs::set_attribution_enabled(true);
  rt.run(static_cast<int>(head.size()));
  mvs::obs::set_attribution_enabled(false);
  res.note("obs.max_conservation_error_ms",
           check_conservation(res, "s1_closed rt-of-one"), "ms");
  const std::vector<FrameStats> paced = rt.pipeline().result().frames;
  for (std::size_t f = 0; f < head.size() && f < paced.size(); ++f)
    res.check(same_deterministic_fields(paced[f], head[f]),
              "s1_closed rt-of-one frame " + std::to_string(f) +
                  " differs from the closed loop");
  return res;
}

Result run_city_paced(const Options& opt) {
  Result res;
  const int seg_steps = 100;   // arrivals per segment
  const int min_segments = 4;  // the deterministic window
  const int per_round = 3;     // 294 timed arrivals a round
  const int skip = 2;  // per-segment warm-up arrivals, not timed
  mvs::sim::CityConfig cc;
  cc.cameras = 36;
  cc.flash_at_s = 3.0;  // evaluation seconds: arrivals 30..60 of a segment
  cc.flash_duration_s = 3.0;
  cc.flash_multiplier = 4.0;
  const std::string scenario = mvs::sim::city_scenario_name(cc);
  const auto config = [&](int k, int threads) {
    PipelineConfig cfg;
    cfg.policy = mvs::runtime::Policy::kBalb;
    cfg.seed = segment_seed(opt.seed, k);
    cfg.threads = threads;
    cfg.frame_policy.correlation_gate = true;
    // As in bench_streaming; the gate's warm start ends within a segment.
    cfg.frame_policy.gate_hold = 20;
    return cfg;
  };
  mvs::runtime::RtConfig rt;
  rt.paced = true;
  rt.frame_period_ms = 100.0;
  rt.arrival_jitter_ms = 15.0;
  rt.deadline_ms = 100.0;
  rt.late_policy = mvs::runtime::LatePolicy::kDrop;

  std::vector<double> setups;
  Rounds rounds(per_round);
  Digest inputs;  // the first segment's frames
  double backlog_max = 0.0, dropped = 0.0, superseded = 0.0, runs = 0.0;
  double frame_span_us = 0.0, traced_step_us = 0.0, traced_steps = 0.0;
  double conservation_ms = 0.0;
  std::vector<double> srecall, orecall, lag, miss, slowest;
  StageLedger stages;
  ColdLedger cold;
  // One segment: a fresh runner of seed k (set-up timed) fed seg_steps
  // arrivals on the virtual clock, then drained. Returns the wall time (ms)
  // of its timed steps. Traced segments repeat an untraced one and add
  // nothing but that time, the rt counters and the obs readings.
  const auto segment = [&](int k, bool traced) {
    const auto t0 = Clock::now();
    mvs::rt::RtRunner runner(scenario, config(k, opt.threads), rt);
    const double setup_s = ms_since(t0) / 1000.0;
    Pipeline& pipeline = runner.pipeline();
    const double cams = static_cast<double>(pipeline.camera_count());
    if (traced) {
      mvs::obs::reset();
      mvs::obs::critical_path().reset();
      mvs::obs::set_enabled(true);
      mvs::obs::set_attribution_enabled(true);
    }
    double timed_ms = 0.0;
    for (int s = 0; s < seg_steps; ++s) {
      const mvs::rt::RtCounters before = runner.counters();
      const auto t1 = Clock::now();
      runner.step();
      const double ms = ms_since(t1);
      const mvs::rt::RtCounters& c = runner.counters();
      if (traced) {
        traced_step_us += 1000.0 * ms;
        traced_steps += 1.0;
      }
      if (s >= skip) {
        timed_ms += ms;
        const auto served = static_cast<double>(c.processed - before.processed);
        if (!opt.trace) rounds.add(ms, served, cams * served);
      }
      if (k == 0 && !traced) add_frame(inputs, pipeline.current_frame());
      const long resolved = c.processed + c.dropped + c.superseded;
      res.check(resolved <= c.arrived && c.processed >= before.processed,
                "city_paced resolved more frames than arrived");
      backlog_max = std::max(backlog_max,
                             static_cast<double>(c.arrived - resolved));
    }
    if (traced) {
      mvs::obs::set_attribution_enabled(false);
      mvs::obs::set_enabled(false);
      frame_span_us +=
          span_total_us(mvs::obs::tracer().collect(), "pipeline.frame");
      conservation_ms =
          std::max(conservation_ms, check_conservation(res, "city_paced"));
      cold.add();
      mvs::obs::reset();
    }
    runner.finish();
    const mvs::rt::RtCounters& c = runner.counters();
    res.check(c.arrived == c.processed + c.dropped + c.superseded,
              "city_paced arrived != processed + dropped + superseded");
    dropped += static_cast<double>(c.dropped);
    superseded += static_cast<double>(c.superseded);
    runs += 1.0;
    if (traced) return timed_ms;
    setups.push_back(setup_s);
    if (opt.trace)
      for (const FrameStats& st : pipeline.result().frames) stages.add(st);
    if (k < min_segments) {
      const mvs::rt::RtResult r = runner.result();
      srecall.push_back(r.streaming_recall);
      orecall.push_back(r.object_recall);
      lag.push_back(r.mean_lag_ms);
      miss.push_back(static_cast<double>(c.deadline_miss) /
                     static_cast<double>(c.arrived));
      slowest.push_back(pipeline.result().mean_slowest_infer_ms());
    }
    return timed_ms;
  };

  // As in s1_closed: untraced segments for the end-to-end run, seed pairs
  // (untraced, then traced) for the traced run.
  std::vector<double> overhead_pct;
  int k = 0;
  run_for(opt.seconds, min_segments, [&] {
    const double plain_ms = segment(k, false);
    if (opt.trace)
      overhead_pct.push_back(100.0 * (segment(k, true) / plain_ms - 1.0));
    else
      rounds.end_segment();
    ++k;
  });

  res.note("segments", static_cast<double>(k), "count");
  res.note("sim_latency_ms_mean", mean(slowest), "ms");
  res.note("object_recall", mean(orecall), "ratio");
  res.note("streaming_recall", mean(srecall), "ratio");
  res.note("emission_lag_ms_mean", mean(lag), "ms");
  res.note("deadline_miss_ratio", mean(miss), "ratio");
  res.note("input_digest", inputs.value(), "hash");
  if (!opt.trace) {
    res.set("setup_s", median(setups), "s");
    set_timings(res, rounds);
    return res;
  }

  res.set("obs.trace_overhead_pct", median(overhead_pct), "%");
  res.note("obs.max_conservation_error_ms", conservation_ms, "ms");
  // Traced steps' wall time not covered by the pipeline's own frame spans.
  res.set("rt.step_self_us", (traced_step_us - frame_span_us) / traced_steps,
          "us");
  res.set("rt.dropped", dropped / runs, "count");
  res.set("rt.superseded", superseded / runs, "count");
  res.set("rt.backlog_max", backlog_max, "count");
  stages.report(res);
  res.set("policy.gate_cold_ratio", cold.ratio(), "ratio");

  // Per-layer probe alongside segment 0's runner. It observes the arrivals
  // that resolved exactly one frame, and processed it: only then is the
  // runner's current frame the one the pipeline served.
  {
    LayerProbe probe(scenario, config(0, 1));
    mvs::rt::RtRunner runner(scenario, config(0, opt.threads), rt);
    long observed = 0;  // processed count after the last observed frame
    for (int s = 0; s < seg_steps; ++s) {
      const mvs::rt::RtCounters before = runner.counters();
      runner.step();
      const mvs::rt::RtCounters& c = runner.counters();
      if (c.processed != before.processed + 1 ||
          c.dropped != before.dropped || c.superseded != before.superseded)
        continue;
      res.check(probe.observe(runner.pipeline(), before.processed == observed),
                "city_paced probe playback differs from arrival " +
                    std::to_string(s));
      observed = c.processed;
    }
    merge_layers(res, probe.metrics());
    res.note("policy.probe_gate_cold_ratio", probe.gate_cold_ratio(),
             "ratio");
  }

  // Single-threaded baseline: segment 0's arrivals again at 1 thread and
  // at the workload's thread count, both in the warm process.
  const auto segment_ms = [&](int threads) {
    mvs::rt::RtRunner r(scenario, config(0, threads), rt);
    for (int s = 0; s < skip; ++s) r.step();
    const auto t0 = Clock::now();
    for (int s = skip; s < seg_steps; ++s) r.step();
    return ms_since(t0);
  };
  res.set("util.parallel_speedup", segment_ms(1) / segment_ms(opt.threads),
          "x");
  return res;
}

}  // namespace perfbench
