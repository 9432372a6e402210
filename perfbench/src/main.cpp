// mvsched benchmark binary.
//
//   perfbench_mvs --workload s1_closed|city_paced|plane_steady|plane_churn
//                 --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer table.
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value,
//    unit}}}
// Every earlier line is a human-readable report (environment stamp, the
// metrics, and the workload-specific figures that are not declared).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/args.hpp"
#include "util/bench_info.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one of them.
const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},
    {"frames_per_s", "1/s"},
    {"session_ticks_per_s", "1/s"},
    {"frame_wall_ms_p50", "ms"},
    {"frame_wall_ms_p95", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr unsigned kS1 = 1, kCity = 2, kSteady = 4, kChurn = 8;
constexpr unsigned kPipelines = kS1 | kCity, kPlanes = kSteady | kChurn;
constexpr unsigned kAll = kPipelines | kPlanes;

struct Layer {
  const char* name;
  const char* unit;
  unsigned workloads;  ///< where the layer does work; 0 is reported elsewhere
};

/// Per-layer metrics. A layer that does no work on a workload reports 0
/// there (e.g. every fleet.* metric on the pipeline workloads).
const std::vector<Layer> kPerLayer = {
    {"sim.frame_us", "us", kPipelines},
    {"vision.render_us", "us", kPipelines},
    {"vision.flow_us", "us", kPipelines},
    {"track.predict_us", "us", kPipelines},
    {"detect.full_us", "us", kPipelines},
    {"detect.boxes_per_key_frame", "count", kPipelines},
    {"assoc.associate_us", "us", kPipelines},
    {"assoc.train_ms", "ms", kPipelines},
    {"core.central_balb_us", "us", kPipelines},
    {"core.problem_objects", "count", kPipelines},
    {"core.distributed_us", "us", kPipelines},
    {"gpu.plan_ns_per_task", "ns", kPipelines},
    {"gpu.tasks_per_frame", "count", kPipelines},
    {"gpu.batch_fill", "ratio", kPipelines},
    {"net.uplink_bytes_per_key_frame", "bytes", kPipelines},
    {"policy.gate_cold_ratio", "ratio", kPipelines},
    {"policy.decide_us", "us", kCity},
    {"rt.step_self_us", "us", kCity},
    {"rt.dropped", "count", kCity},
    {"rt.superseded", "count", kCity},
    {"rt.backlog_max", "count", kCity},
    {"fleet.step_ns_per_session_tick", "ns", kPlanes},
    {"fleet.session_ns", "ns", kPlanes},
    {"fleet.arbiter_ns_per_session", "ns", kPlanes},
    {"fleet.admit_us", "us", kPlanes},
    {"fleet.evict_us", "us", kChurn},
    {"fleet.release_us", "us", kChurn},
    {"fleet.pause_resume_us", "us", kChurn},
    {"fleet.snapshot_ms", "ms", kPlanes},
    {"fleet.deferred_per_tick", "count", kPlanes},
    {"fleet.shared_batches_per_tick", "count", kPlanes},
    {"fleet.batch_fill", "ratio", kPlanes},
    {"fleet.rss_kb_per_1k_ticks", "kB", kPlanes},
    {"obs.trace_overhead_pct", "%", kAll},
    {"util.parallel_speedup", "x", kAll},
};

struct Workload {
  const char* name;
  unsigned bit;
  Result (*run)(const Options&);
};

const std::vector<Workload> kWorkloads = {
    {"s1_closed", kS1, run_s1_closed},
    {"city_paced", kCity, run_city_paced},
    {"plane_steady", kSteady, run_plane_steady},
    {"plane_churn", kChurn, run_plane_churn},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_mvs: %s\nusage: perfbench_mvs --workload "
               "s1_closed|city_paced|plane_steady|plane_churn --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

mvs::util::Json env_stamp(const Options& opt) {
  mvs::util::Json env = mvs::util::bench_env_json();
  auto& o = env.as_object();
  if (o["git_rev"].as_string().empty()) o["git_rev"] = "unknown";
  const std::string build = o["build_type"].as_string();
  o["comparable"] = mvs::util::Json(build == "Release");
  o["compiler"] = mvs::util::Json(std::string(__VERSION__));
  o["nproc"] = mvs::util::Json(
      static_cast<double>(std::thread::hardware_concurrency()));
  o["bench_threads"] = mvs::util::Json(opt.threads);
  o["seed"] = mvs::util::Json(static_cast<double>(opt.seed));
  o["workload"] = mvs::util::Json(opt.workload);
  o["trace"] = mvs::util::Json(opt.trace);
  return env;
}

/// Checks a workload's metrics against the declaration and completes the
/// per-layer table with the zero rows of idle layers. Returns false (with
/// a message) when a workload emitted a wrong, missing or extra metric.
bool complete_metrics(const Options& opt, unsigned bit, Result& res,
                      std::string& error) {
  std::set<std::string> expected;
  if (!opt.trace) {
    for (const Declared& d : kEndToEnd) {
      expected.insert(d.name);
      const auto it = res.metrics.find(d.name);
      if (it == res.metrics.end() || it->second.unit != d.unit) {
        error = std::string("missing or mis-united metric ") + d.name;
        return false;
      }
    }
  } else {
    for (const Layer& l : kPerLayer) {
      expected.insert(l.name);
      const bool active = (l.workloads & bit) != 0;
      const auto it = res.metrics.find(l.name);
      if (!active && it == res.metrics.end()) {
        res.set(l.name, 0.0, l.unit);
        continue;
      }
      if (it == res.metrics.end() || it->second.unit != l.unit || !active) {
        error = std::string("bad per-layer metric ") + l.name;
        return false;
      }
    }
  }
  for (const auto& [name, metric] : res.metrics) {
    if (!expected.count(name)) {
      error = "undeclared metric " + name;
      return false;
    }
    if (!std::isfinite(metric.value)) {
      error = "non-finite metric " + name;
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const mvs::util::Args args = mvs::util::Args::parse(argc, argv);
  Options opt;
  opt.workload = args.get_or("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.number_or("seed", 1.0));
  opt.seconds = args.number_or("seconds", 10.0);
  opt.trace = args.int_or("trace", 0) != 0;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  opt.threads = std::max(1, std::min(4, hw));
  if (opt.seconds <= 0.0) return usage("bad arguments");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) workload = &w;
  if (workload == nullptr) return usage("unknown workload");

  Result res;
  try {
    res = workload->run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_mvs: %s failed: %s\n", workload->name,
                 e.what());
    return 1;
  }
  if (!opt.trace) res.set("peak_rss_mb", proc_status_kb("VmHWM") / 1024.0,
                          "MB");
  std::string error;
  if (!complete_metrics(opt, workload->bit, res, error)) {
    std::fprintf(stderr, "perfbench_mvs: %s: %s\n", workload->name,
                 error.c_str());
    return 1;
  }

  std::printf("env %s\n", env_stamp(opt).dump().c_str());
  for (const auto& [name, m] : res.metrics)
    std::printf("metric %-34s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& [name, m] : res.detail)
    std::printf("detail %-34s %.17g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& f : res.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  mvs::util::Json::Object metrics;
  for (const auto& [name, m] : res.metrics) {
    mvs::util::Json::Object entry;
    entry["value"] = mvs::util::Json(m.value);
    entry["unit"] = mvs::util::Json(m.unit);
    metrics[name] = mvs::util::Json(std::move(entry));
  }
  mvs::util::Json::Object out;
  out["correct"] = mvs::util::Json(res.failed == 0 && res.attempted > 0);
  out["attempted"] = mvs::util::Json(static_cast<double>(res.attempted));
  out["failed"] = mvs::util::Json(static_cast<double>(res.failed));
  out["metrics"] = mvs::util::Json(std::move(metrics));
  std::printf("%s\n", mvs::util::Json(std::move(out)).dump().c_str());
  return 0;
}
