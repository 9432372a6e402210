// mvsched command-line runner: execute any scenario/policy combination from
// flags or a JSON config file and print per-run metrics (optionally a
// per-frame CSV for plotting).
//
// Usage:
//   mvsched_cli --scenario S1 --policy balb --frames 200 [--horizon 10]
//   mvsched_cli --fleet --sessions 3 --slo-ms 120 --dispatch weighted
//   mvsched_cli --config run.json [flags that override it] [--dump-config]
//   mvsched_cli --help
//
// Most flags are fields of the config schema (runtime/config.hpp) and are
// applied, checked and documented from its tables; kCliOnly lists the rest.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_api.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/config.hpp"
#include "runtime/pipeline.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

using mvs::runtime::CliFlag;
using mvs::runtime::kCliSections;

const char* const kRun = kCliSections[0];
const char* const kFleet = kCliSections[2];
const char* const kRt = kCliSections[3];
const char* const kCity = kCliSections[4];
const char* const kObs = kCliSections[5];
const char* const kNet = kCliSections[6];

/// Flags with no single config field behind them.
const CliFlag kCliOnly[] = {
    {"config", "FILE", "load a JSON run config; flags override it", kRun},
    {"dump-config", "", "print the effective config and exit", kRun},
    {"help", "", "print this help and exit", kRun},
    {"threads", "N", "worker threads, also the fleet's (0 = all cores)", kRun},
    {"csv", "", "per-frame CSV on stdout instead of the summary", kRun},
    {"fleet", "", "serve --sessions copies of the scenario as one fleet",
     kFleet},
    {"sessions", "N", "sessions when the config lists none (default 2)",
     kFleet},
    {"session-fps", "LIST", "comma-separated native fps per session", kFleet},
    {"session-loss-rate", "LIST", "comma-separated loss rate per session",
     kFleet},
    {"scale-devices", "CLASS:DELTA[,...]", "resize device pools after admit",
     kFleet},
    {"synthetic", "", "synthetic-load sessions (no vision stack)", kFleet},
    {"fleet-json", "FILE", "write the fleet/session rollup JSON", kFleet},
    {"city-grid", "N", "use an N-camera sparse city grid as the scenario",
     kCity},
    {"flash-crowd", "AT:DUR[:MULT]", "arrival burst (MULT default 4)",
     kCity},
    {"burn-budget", "X",
     "SLO burn-rate error budget (fleet), else paced miss budget; 0 = off",
     kObs},
    {"drop-camera", "CAM:FROM[:TO][,...]", "camera dropout frame windows",
     kNet},
};

int usage(const char* prog, const std::vector<CliFlag>& flags) {
  std::printf("usage: %s [SCENARIO] [options]\n", prog);
  for (const char* section : kCliSections) {
    std::printf("\n%s:\n", section);
    for (const CliFlag& f : flags) {
      if (f.section != section) continue;
      const std::string head =
          "--" + f.name + (f.arg.empty() ? "" : " ") + f.arg;
      if (head.size() < 23)
        std::printf("  %-23s %s\n", head.c_str(), f.help.c_str());
      else
        std::printf("  %s\n%26s%s\n", head.c_str(), "", f.help.c_str());
    }
  }
  return 0;
}

/// An argument error: one line naming the flag or key, exit 2.
int bad(const std::string& message) {
  std::fprintf(stderr, "mvsched_cli: %s (see --help)\n", message.c_str());
  return 2;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, sep);) parts.push_back(part);
  return parts;
}

/// The comma-separated items of flag `name`: none when it is absent, one
/// empty item (which every caller rejects) when its value is empty.
std::vector<std::string> items(const mvs::util::Args& args, const char* name) {
  const auto value = args.get(name);
  if (!value) return {};
  std::vector<std::string> parts = split(*value, ',');
  if (parts.empty()) parts.emplace_back();
  return parts;
}

/// Set `keys[i]` of `block` from the i-th ':'-separated part of `item`; the
/// first two parts are required.
bool set_parts(mvs::runtime::ConfigBlock block, const std::string& item,
               const std::vector<const char*>& keys, const std::string& label,
               std::string* error) {
  const std::vector<std::string> parts = split(item, ':');
  if (parts.size() < 2 || parts.size() > keys.size()) {
    *error = label + ": malformed \"" + item + "\"";
    return false;
  }
  for (std::size_t i = 0; i < parts.size(); ++i)
    if (!mvs::runtime::set_config_field(block, keys[i], parts[i], label, error))
      return false;
  return true;
}

/// Apply the non-fleet flags of kCliOnly that change the config; their
/// values still go through the schema's strict field setters.
bool apply_cli_only_flags(const mvs::util::Args& args,
                          mvs::runtime::RunConfig* run, std::string* error) {
  using namespace mvs;
  using runtime::set_config_field;
  if (const auto v = args.get("threads")) {
    if (!set_config_field(&run->pipeline, "threads", *v, "--threads", error) ||
        (run->fleet &&
         !set_config_field(&*run->fleet, "threads", *v, "--threads", error)))
      return false;
  }
  if (const auto v = args.get("burn-budget")) {
    const bool ok =
        run->fleet ? set_config_field(&*run->fleet, "burn_error_budget", *v,
                                      "--burn-budget", error)
                   : set_config_field(&run->rt, "miss_budget", *v,
                                      "--burn-budget", error);
    if (!ok) return false;
    if (!run->fleet) run->rt.paced = true;  // an rt knob implies --paced
  }
  for (const std::string& item : items(args, "drop-camera")) {
    netsim::DropoutWindow& w = run->pipeline.faults.dropouts.emplace_back();
    if (!set_parts(&w, item, {"camera", "from", "to"}, "--drop-camera", error))
      return false;
  }
  // City grids: --city-grid / --flash-crowd synthesize the canonical
  // encoded "city:..." name (the same string a config file's "city" block
  // produces), starting from the current scenario when it is a city.
  if (args.has("city-grid") || args.has("flash-crowd")) {
    sim::CityConfig cc =
        sim::parse_city_name(run->scenario).value_or(sim::CityConfig{});
    if (const auto v = args.get("city-grid"))
      if (!set_config_field(&cc, "cameras", *v, "--city-grid", error))
        return false;
    if (const auto v = args.get("flash-crowd"))
      if (!set_parts(&cc, *v,
                     {"flash_at_s", "flash_duration_s", "flash_multiplier"},
                     "--flash-crowd", error))
        return false;
    run->scenario = sim::city_scenario_name(cc);
  }
  return true;
}

/// Apply the fleet's kCliOnly flags. Session roster: the config file's list
/// wins; otherwise synthesize --sessions copies of the flag-selected
/// scenario and pipeline, so run it after every flag that edits those.
bool apply_fleet_flags(const mvs::util::Args& args,
                       mvs::runtime::RunConfig* run, std::string* error) {
  using namespace mvs;
  using runtime::set_config_field;
  runtime::FleetRunConfig& frc = *run->fleet;
  if (frc.sessions.empty()) {
    const std::string text = args.get_or("sessions", "2");
    char* end = nullptr;
    const long sessions = std::strtol(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || sessions < 1 ||
        sessions > std::numeric_limits<int>::max()) {
      *error = "--sessions: expected an integer >= 1, got \"" + text + "\"";
      return false;
    }
    for (long s = 0; s < sessions; ++s) {
      runtime::FleetSessionSpec& session = frc.sessions.emplace_back();
      session.name = run->scenario + "#" + std::to_string(s);
      session.scenario = run->scenario;
      session.synthetic = args.has("synthetic");
      session.pipeline = run->pipeline;
      session.pipeline.seed += static_cast<std::uint64_t>(s);
    }
  }
  const std::vector<std::string> fps = items(args, "session-fps");
  const std::vector<std::string> loss = items(args, "session-loss-rate");
  for (std::size_t s = 0; s < frc.sessions.size(); ++s) {
    runtime::FleetSessionSpec& spec = frc.sessions[s];
    if (s < fps.size() &&
        !set_config_field(&spec, "fps", fps[s], "--session-fps", error))
      return false;
    netsim::FaultConfig fc = spec.faults.value_or(netsim::FaultConfig{});
    if (s < loss.size() && !set_config_field(&fc, "loss_rate", loss[s],
                                             "--session-loss-rate", error))
      return false;
    if (fc.loss_rate > 0.0) spec.faults = fc;
  }
  for (const std::string& item : items(args, "scale-devices"))
    if (!set_parts(&frc.device_scale.emplace_back(), item, {"class", "delta"},
                   "--scale-devices", error))
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvs;
  std::vector<CliFlag> flags = runtime::schema_flags();
  flags.insert(flags.end(), std::begin(kCliOnly), std::end(kCliOnly));
  std::vector<std::string> switches;
  for (const CliFlag& f : flags)
    if (f.arg.empty()) switches.push_back(f.name);
  const util::Args args = util::Args::parse(argc, argv, switches);
  if (args.has("help")) return usage(argv[0], flags);

  runtime::RunConfig run;
  if (const auto path = args.get("config")) {
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "cannot open config file: %s\n", path->c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    // Cross-field checks wait until the flags are applied: a flag may
    // repair the file (a learned "policy" block plus --policy-model).
    const auto parsed =
        runtime::parse_run_config_unchecked(buffer.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "bad config: %s\n", error.c_str());
      return 1;
    }
    run = *parsed;
  }

  // The scenario may be given positionally (`mvsched_cli S2 ...`) or via
  // --scenario; the explicit flag wins when both are present.
  if (args.positional().size() > 1)
    return bad("unexpected argument: " + args.positional()[1]);
  if (!args.positional().empty()) run.scenario = args.positional().front();
  if (args.has("fleet") && !run.fleet) run.fleet.emplace();

  // Schema flags, then the CLI-only ones, then the implication rules (a
  // network-simulation flag without --transport selects the lossy transport
  // since faults have no effect on the ideal link, --policy-model selects
  // the learned policy, an rt flag turns pacing on, and a trace or metrics
  // export turns instrumentation on), then the fleet flags, whose session
  // roster copies the finished pipeline.
  std::string error;
  bool fault_flag = args.has("drop-camera"), rt_flag = false;
  for (const std::string& name : args.names()) {
    const auto cli_only =
        std::find_if(std::begin(kCliOnly), std::end(kCliOnly),
                     [&](const CliFlag& f) { return f.name == name; });
    if (cli_only != std::end(kCliOnly)) {
      if (cli_only->section == kFleet && !run.fleet)
        return bad("--" + name + " needs fleet mode (--fleet or a config "
                                 "\"fleet\" block)");
      if (cli_only->arg.empty() && !args.get(name)->empty())
        return bad("--" + name + " takes no value");
      continue;
    }
    std::string section;
    if (!runtime::apply_schema_flag(&run, name, *args.get(name), &section,
                                    &error))
      return bad(error);
    fault_flag |= section == kNet;
    rt_flag |= section == kRt;
  }
  if (!apply_cli_only_flags(args, &run, &error)) return bad(error);
  if (args.has("policy-model") && !args.has("frame-policy"))
    run.pipeline.frame_policy.kind = policy::PolicyKind::kLearned;
  if (fault_flag && !args.has("transport"))
    run.pipeline.transport = net::TransportKind::kLossy;
  if (rt_flag) run.rt.paced = true;
  if (args.has("chrome-trace") || args.has("metrics-json"))
    run.obs.enabled = true;
  if (run.fleet && !apply_fleet_flags(args, &run, &error)) return bad(error);
  if (!runtime::finalize_run_config(&run, &error)) return bad(error);

  if (args.has("dump-config")) {
    std::printf("%s\n", runtime::dump_run_config(run).c_str());
    return 0;
  }
  if (run.pipeline.verbose) util::set_log_level(util::LogLevel::kInfo);

  // Observability output files open up front so an unwritable path fails
  // fast (exit 2) instead of after a long run.
  std::ofstream chrome_out, metrics_out;
  if (!run.obs.chrome_trace.empty()) {
    chrome_out.open(run.obs.chrome_trace, std::ios::out | std::ios::trunc);
    if (!chrome_out)
      return bad("cannot write --chrome-trace file: " + run.obs.chrome_trace);
  }
  if (!run.obs.metrics_json.empty()) {
    metrics_out.open(run.obs.metrics_json, std::ios::out | std::ios::trunc);
    if (!metrics_out)
      return bad("cannot write --metrics-json file: " + run.obs.metrics_json);
  }
  if (run.obs.enabled || run.obs.attribution) obs::reset();
  if (run.obs.enabled) obs::set_enabled(true);
  if (run.obs.attribution) {
    obs::set_attribution_enabled(true);
    obs::FlightRecorder::Config rc;
    rc.dir = run.obs.postmortem_dir;
    rc.miss_window = run.obs.postmortem_miss_window;
    rc.miss_threshold = run.obs.postmortem_miss_threshold;
    obs::recorder().configure(rc);
  }
  const auto write_obs_exports = [&] {
    if (chrome_out.is_open()) {
      chrome_out << obs::tracer().chrome_trace_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", run.obs.chrome_trace.c_str());
    }
    if (metrics_out.is_open()) {
      metrics_out << obs::export_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", run.obs.metrics_json.c_str());
    }
    if (run.obs.attribution && obs::recorder().dumps() > 0) {
      const std::string path = obs::recorder().last_dump_path();
      std::fprintf(stderr, "flight recorder: %lld postmortem dump%s%s%s\n",
                   obs::recorder().dumps(),
                   obs::recorder().dumps() == 1 ? "" : "s",
                   path.empty() ? "" : ", last ", path.c_str());
    }
  };

  // Fleet serving: --fleet, or a config file carrying a "fleet" block.
  if (run.fleet) {
    const runtime::FleetRunConfig& frc = *run.fleet;
    // The CLI consumes the serving plane through FleetApi only: make_fleet
    // returns a single Fleet or a ShardedFleet, and nothing below cares.
    const std::unique_ptr<fleet::FleetApi> fleet = fleet::make_fleet(frc);
    for (const fleet::SessionSpec& spec : frc.sessions) {
      const fleet::AdmitResult admit = fleet->admit(spec);
      if (admit.admitted) {
        std::fprintf(stderr,
                     "admitted %s -> shard %d (projected %.1f ms%s%s)\n",
                     spec.name.c_str(), admit.shard, admit.projected_ms,
                     admit.masks_tightened ? ", masks tightened" : "",
                     admit.rate_halved ? ", rate halved" : "");
      } else {
        std::fprintf(stderr, "rejected %s: %s\n", spec.name.c_str(),
                     admit.reason.c_str());
      }
    }
    for (const runtime::FleetDeviceScale& ds : frc.device_scale) {
      const int count = fleet->scale_devices(ds.device_class, ds.delta);
      std::fprintf(stderr, "scaled %s pool to %d device%s\n",
                   ds.device_class.c_str(), count, count == 1 ? "" : "s");
    }

    // --frames counts base frame periods; the wheel may tick faster when
    // heterogeneous rates were admitted.
    const int base_fps = std::max(
        1, static_cast<int>(std::lround(1000.0 / frc.frame_period_ms)));
    const int ticks = run.frames * (fleet->wheel_hz() / base_fps);
    std::fprintf(stderr, "running fleet of %zu for %d ticks (wheel %d Hz, "
                 "%d shard%s, slo=%.1f ms, dispatch=%s)...\n",
                 fleet->session_count(), ticks, fleet->wheel_hz(),
                 frc.shards, frc.shards == 1 ? "" : "s", frc.slo_ms,
                 fleet::to_string(frc.dispatch));
    fleet->run(ticks);

    const fleet::FleetSnapshot snap = fleet->snapshot();
    util::Table table({"handle", "shard", "name", "state", "fps", "stride",
                       "frames", "deferred", "p50_ms", "p95_ms", "p99_ms",
                       "mean_ms", "iso_ms", "queue_ms", "slo_viol",
                       "recall"});
    for (const fleet::SessionSnapshot& s : snap.sessions) {
      table.add_row({std::to_string(s.handle.id) + "." +
                         std::to_string(s.handle.gen),
                     std::to_string(s.shard), s.name,
                     fleet::to_string(s.state),
                     std::to_string(s.fps), std::to_string(s.stride),
                     std::to_string(s.frames),
                     std::to_string(s.deferred_ticks),
                     util::Table::fmt(s.p50_ms, 1),
                     util::Table::fmt(s.p95_ms, 1),
                     util::Table::fmt(s.p99_ms, 1),
                     util::Table::fmt(s.mean_ms, 1),
                     util::Table::fmt(s.mean_isolated_ms, 1),
                     util::Table::fmt(s.mean_queue_ms, 2),
                     std::to_string(s.slo_violations),
                     util::Table::fmt(s.object_recall, 3)});
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("admitted %d | rejected %d | evicted %d | readmitted %d\n",
                snap.admitted, snap.rejected, snap.evicted, snap.readmitted);
    if (snap.shards > 1)
      std::printf("shards %d | migrations %ld | cross-shard batches saved "
                  "%ld (%.1f ms)\n",
                  snap.shards, snap.migrations, snap.cross_batches_saved,
                  snap.cross_busy_saved_ms);
    std::printf("batches: shared %ld vs isolated %ld | busy %.1f vs %.1f ms "
                "| splits %ld\n",
                snap.shared_batches, snap.isolated_batches,
                snap.shared_busy_ms, snap.isolated_busy_ms,
                snap.batch_splits);
    std::printf("occupancy %.2f | p95 tick busy %.1f ms | queue depth %.2f "
                "| pool queueing %.1f ms\n",
                snap.mean_occupancy, snap.p95_tick_busy_ms,
                snap.mean_queue_depth, snap.total_queue_ms);
    if (frc.burn_error_budget > 0.0)
      std::printf("slo burn: %ld alert%s raised | %ld cleared | %d session%s "
                  "alerting\n",
                  snap.slo_alerts_raised,
                  snap.slo_alerts_raised == 1 ? "" : "s",
                  snap.slo_alerts_cleared, snap.alerting_sessions,
                  snap.alerting_sessions == 1 ? "" : "s");
    for (const auto& [name, count] : snap.device_pools)
      std::printf("device pool %s: %d\n", name.c_str(), count);
    if (snap.total_retries || snap.total_dropped_msgs)
      std::printf("transport: retries %ld | dropped msgs %ld\n",
                  snap.total_retries, snap.total_dropped_msgs);
    if (const auto path = args.get("fleet-json")) {
      std::ofstream out(*path);
      out << snap.to_json() << '\n';
      std::fprintf(stderr, "wrote %s\n", path->c_str());
    }
    write_obs_exports();
    return 0;
  }

  // Paced streaming run: frames arrive on the virtual wall clock, each with
  // a deadline budget; the summary reports streaming recall (emitted tracks
  // scored against the world at emission time) next to the classic offline
  // recall.
  if (run.rt.paced) {
    rt::RtRunner runner(run.scenario, run.pipeline, run.rt);
    std::fprintf(stderr,
                 "running paced %s / %s for %d frames (period=%.0f ms, "
                 "deadline=%s, late=%s)...\n",
                 run.scenario.c_str(),
                 runtime::to_string(run.pipeline.policy), run.frames,
                 runner.frame_period_ms(),
                 run.rt.deadline_ms > 0.0
                     ? (util::Table::fmt(run.rt.deadline_ms, 0) + " ms").c_str()
                     : "inf",
                 runtime::to_string(run.rt.late_policy));
    const rt::RtResult r = runner.run(run.frames);
    const rt::RtCounters& c = r.counters;
    std::printf("scenario            : %s\n", run.scenario.c_str());
    std::printf("policy              : %s | late policy %s\n",
                runtime::to_string(run.pipeline.policy),
                runtime::to_string(run.rt.late_policy));
    std::printf("frames              : %ld arrived | %ld processed | "
                "%ld dropped | %ld superseded | %ld missed deadline\n",
                c.arrived, c.processed, c.dropped, c.superseded,
                c.deadline_miss);
    std::printf("streaming recall    : %.3f (over %ld instants)\n",
                r.streaming_recall, r.instants);
    std::printf("object recall       : %.3f\n", r.object_recall);
    std::printf("emission lag        : mean %.1f ms | max %.1f ms\n",
                r.mean_lag_ms, r.max_lag_ms);
    std::printf("gpu busy            : %.0f ms over %.0f ms makespan\n",
                c.gpu_busy_ms, r.makespan_ms);
    if (run.rt.miss_budget > 0.0)
      std::printf("slo burn            : %ld alert%s raised | %salerting at "
                  "exit\n",
                  runner.slo_alerts(), runner.slo_alerts() == 1 ? "" : "s",
                  runner.alerting() ? "" : "not ");
    write_obs_exports();
    return 0;
  }

  std::fprintf(stderr,
               "running %s / %s for %d frames (T=%d, seed=%llu, "
               "transport=%s)...\n",
               run.scenario.c_str(), runtime::to_string(run.pipeline.policy),
               run.frames, run.pipeline.horizon_frames,
               static_cast<unsigned long long>(run.pipeline.seed),
               net::to_string(run.pipeline.transport));

  // Driven as rt-of-one (paced, finish-late, no deadline): bit-identical to
  // the unpaced pipeline, and the runner attributes every frame.
  runtime::RtConfig rt_of_one;
  rt_of_one.paced = true;
  rt_of_one.deadline_ms = 0.0;
  rt_of_one.late_policy = runtime::LatePolicy::kFinishLate;
  rt::RtRunner runner(run.scenario, run.pipeline, rt_of_one);
  runner.run(run.frames);
  const runtime::PipelineResult result = runner.pipeline().result();

  if (args.has("csv")) {
    util::Table csv({"frame", "key", "slowest_ms", "recall", "gt", "tracked",
                     "central_ms", "tracking_ms", "distributed_ms",
                     "batching_ms", "comm_ms", "queue_ms", "retries",
                     "dropped", "online"});
    for (const runtime::FrameStats& f : result.frames) {
      csv.add_row({std::to_string(f.frame), f.key_frame ? "1" : "0",
                   util::Table::fmt(f.slowest_infer_ms, 2),
                   util::Table::fmt(f.frame_recall, 3),
                   std::to_string(f.gt_objects),
                   std::to_string(f.tracked_objects),
                   util::Table::fmt(f.central_ms, 3),
                   util::Table::fmt(f.tracking_ms, 3),
                   util::Table::fmt(f.distributed_ms, 4),
                   util::Table::fmt(f.batching_ms, 3),
                   util::Table::fmt(f.comm_ms, 3),
                   util::Table::fmt(f.queue_ms, 3),
                   std::to_string(f.retries),
                   std::to_string(f.dropped_msgs),
                   std::to_string(f.cameras_online)});
    }
    std::printf("%s", csv.to_csv().c_str());
    write_obs_exports();
    return 0;
  }

  std::printf("scenario            : %s\n", result.scenario.c_str());
  std::printf("policy              : %s\n", runtime::to_string(result.policy));
  std::printf("transport           : %s\n",
              net::to_string(run.pipeline.transport));
  std::printf("frames              : %zu\n", result.frames.size());
  std::printf("object recall       : %.3f\n", result.object_recall);
  std::printf("slowest camera mean : %.1f ms/frame\n",
              result.mean_slowest_infer_ms());
  std::printf("overheads (ms/frame): central %.2f | tracking %.2f | "
              "distributed %.3f | batching %.2f | comm %.2f\n",
              result.mean_central_ms(), result.mean_tracking_ms(),
              result.mean_distributed_ms(), result.mean_batching_ms(),
              result.mean_comm_ms());
  if (run.pipeline.transport == net::TransportKind::kLossy)
    std::printf("network             : queue %.3f ms/frame | retries %ld | "
                "dropped msgs %ld\n",
                result.mean_queue_ms(), result.total_retries(),
                result.total_dropped_msgs());
  write_obs_exports();
  return 0;
}
