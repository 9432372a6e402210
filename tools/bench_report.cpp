// Perf-regression report generator. Times the vision hot-path kernels, an
// end-to-end pipeline run, a fleet session-scaling sweep, and the
// concurrency micro-benchmarks, then writes BENCH_vision.json,
// BENCH_pipeline.json, BENCH_fleet.json and BENCH_concurrency.json
// (median-of-N timings wrapped in the machine/git envelope from
// util::bench_env_json()).
// Commit the refreshed files alongside performance-sensitive changes so
// regressions show up in review.
//
// Usage:
//   bench_report [--reps 7] [--frames 60] [--width 320] [--out-dir .]
//                [--fleet-sessions 4] [--fleet-ticks 40]
//   bench_report --metrics-json metrics.json   # report-only: print the
//                per-stage latency breakdown from an mvs::obs metrics
//                snapshot (e.g. mvsched_cli --metrics-json output), plus
//                the critical-path attribution table when the snapshot
//                carries one
//   bench_report --streaming-json BENCH_streaming.json   # report-only:
//                pretty-print a bench_streaming artifact (budget sweep,
//                late policies, city gating rows, acceptance verdicts)
//   bench_report --postmortem-json postmortem-0.json   # report-only:
//                validate an mvs-postmortem-v1 flight-recorder dump and
//                print its dominant-segment breakdown + recent events
//
// The timed pipeline reps run with observability DISABLED (the committed
// BENCH_pipeline.json baseline is the null-sink number); one extra
// instrumented rep afterwards feeds the per-stage breakdown table and the
// "stages" object in BENCH_pipeline.json.
//
// The fleet sweep's batch/busy counters are deterministic for the fixed
// seed; only its wall-clock throughput column is machine-dependent.
//
// The vision report includes the speedup of the optimized OpticalFlow against
// an embedded copy of the pre-optimization kernel (double-accumulating SAD
// over at_clamped reads, pyramids rebuilt per call), so the headline number
// is self-contained: no need to check out an old revision to reproduce it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/concurrency_measure.hpp"
#include "bench/fleet_scale.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/pipeline.hpp"
#include "util/args.hpp"
#include "util/bench_info.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "vision/optical_flow.hpp"
#include "vision/renderer.hpp"

namespace {

using namespace mvs;
using vision::FlowField;
using vision::Image;
using vision::OpticalFlow;

// Pre-optimization optical flow, kept verbatim as the speedup baseline.
double reference_block_sad(const Image& a, int ax, int ay, const Image& b,
                           int bx, int by, int size) {
  double sad = 0.0;
  for (int dy = 0; dy < size; ++dy)
    for (int dx = 0; dx < size; ++dx)
      sad += std::abs(static_cast<int>(a.at_clamped(ax + dx, ay + dy)) -
                      static_cast<int>(b.at_clamped(bx + dx, by + dy)));
  return sad;
}

FlowField reference_flow(const OpticalFlow::Config& cfg, const Image& prev,
                         const Image& cur) {
  std::vector<Image> pa{prev}, pb{cur};
  for (int l = 1; l < cfg.pyramid_levels; ++l) {
    if (pa.back().width() < 2 * cfg.block_size ||
        pa.back().height() < 2 * cfg.block_size)
      break;
    pa.push_back(pa.back().downsampled());
    pb.push_back(pb.back().downsampled());
  }
  const int levels = static_cast<int>(pa.size());

  FlowField field;
  field.block_size = cfg.block_size;
  field.cols = std::max(1, prev.width() / cfg.block_size);
  field.rows = std::max(1, prev.height() / cfg.block_size);
  field.flow.assign(static_cast<std::size_t>(field.cols) *
                        static_cast<std::size_t>(field.rows),
                    {0.0, 0.0});
  field.residual.assign(field.flow.size(), 0.0);

  std::vector<geom::Vec2> coarse;
  int ccols = 0, crows = 0;
  for (int l = levels - 1; l >= 0; --l) {
    const Image& ia = pa[static_cast<std::size_t>(l)];
    const Image& ib = pb[static_cast<std::size_t>(l)];
    const int cols = std::max(1, ia.width() / cfg.block_size);
    const int rows = std::max(1, ia.height() / cfg.block_size);
    std::vector<geom::Vec2> est(static_cast<std::size_t>(cols) *
                                static_cast<std::size_t>(rows));
    std::vector<double> res(est.size(), 0.0);

    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const int bx = c * cfg.block_size;
        const int by = r * cfg.block_size;
        geom::Vec2 seed{0.0, 0.0};
        if (!coarse.empty()) {
          const int pc = std::min(c / 2, ccols - 1);
          const int pr = std::min(r / 2, crows - 1);
          const geom::Vec2& s =
              coarse[static_cast<std::size_t>(pr) *
                         static_cast<std::size_t>(ccols) +
                     static_cast<std::size_t>(pc)];
          seed = {s.x * 2.0, s.y * 2.0};
        }
        const int sx = static_cast<int>(std::lround(seed.x));
        const int sy = static_cast<int>(std::lround(seed.y));

        double best = std::numeric_limits<double>::infinity();
        int best_dx = sx, best_dy = sy;
        for (int dy = sy - cfg.search_radius; dy <= sy + cfg.search_radius;
             ++dy) {
          for (int dx = sx - cfg.search_radius; dx <= sx + cfg.search_radius;
               ++dx) {
            const double sad = reference_block_sad(ia, bx, by, ib, bx + dx,
                                                   by + dy, cfg.block_size);
            const double penalty = 0.1 * (std::abs(dx) + std::abs(dy));
            if (sad + penalty < best) {
              best = sad + penalty;
              best_dx = dx;
              best_dy = dy;
            }
          }
        }
        est[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] = {static_cast<double>(best_dx),
                                            static_cast<double>(best_dy)};
        res[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
            static_cast<std::size_t>(c)] =
            best / static_cast<double>(cfg.block_size * cfg.block_size);
      }
    }
    coarse = std::move(est);
    ccols = cols;
    crows = rows;
    if (l == 0) {
      field.cols = cols;
      field.rows = rows;
      field.flow = coarse;
      field.residual = std::move(res);
    }
  }
  return field;
}

volatile std::uint32_t g_sad_sink = 0;  ///< keeps the SAD loop observable

/// Median wall-clock ms of `reps` calls to `fn`.
template <typename Fn>
double time_median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    util::Stopwatch watch;
    fn();
    samples.push_back(watch.elapsed_ms());
  }
  return util::median(std::move(samples));
}

/// Per-stage latency breakdown from an mvs::obs metrics snapshot: prints a
/// stage/count/p50/p95/p99 table over every histogram and returns the same
/// rows as the "stages" object for BENCH_pipeline.json.
util::Json::Object print_stage_breakdown(const util::Json& metrics) {
  util::Json::Object stages;
  const util::Json* hists = metrics.find("histograms");
  if (!hists || !hists->is_object()) {
    std::printf("  (no \"histograms\" object in metrics snapshot)\n");
    return stages;
  }
  util::Table table({"stage", "count", "p50_ms", "p95_ms", "p99_ms"});
  for (const auto& [name, h] : hists->as_object()) {
    if (!h.is_object()) continue;
    const double count = h.number_or("count", 0.0);
    const double p50 = h.number_or("p50", 0.0);
    const double p95 = h.number_or("p95", 0.0);
    const double p99 = h.number_or("p99", 0.0);
    table.add_row({name, util::Table::fmt(count, 0), util::Table::fmt(p50, 3),
                   util::Table::fmt(p95, 3), util::Table::fmt(p99, 3)});
    util::Json::Object stage;
    stage["count"] = util::Json(count);
    stage["p50"] = util::Json(p50);
    stage["p95"] = util::Json(p95);
    stage["p99"] = util::Json(p99);
    stages.emplace(name, util::Json(std::move(stage)));
  }
  std::printf("%s", table.to_string().c_str());
  return stages;
}

/// Critical-path attribution table from the "attribution" block of an
/// obs::export_json() snapshot (or a postmortem document): per-segment
/// latency percentiles + dominant-frame share. No-op when absent.
void print_attribution_table(const util::Json& doc) {
  const util::Json* attr = doc.find("attribution");
  if (!attr || !attr->is_object()) return;
  const double frames = attr->number_or("frames", 0.0);
  std::printf("critical-path attribution (%0.f frames, %.0f misses, "
              "conservation err %.3g ms):\n",
              frames, attr->number_or("deadline_misses", 0.0),
              attr->number_or("max_conservation_error_ms", 0.0));
  const util::Json* segs = attr->find("segments");
  if (!segs || !segs->is_object()) return;
  util::Table table({"segment", "count", "sum_ms", "p50_ms", "p95_ms",
                     "p99_ms", "dominant", "dom_frac"});
  for (const auto& [name, s] : segs->as_object()) {
    if (!s.is_object()) continue;
    table.add_row({name, util::Table::fmt(s.number_or("count", 0), 0),
                   util::Table::fmt(s.number_or("sum_ms", 0), 1),
                   util::Table::fmt(s.number_or("p50", 0), 3),
                   util::Table::fmt(s.number_or("p95", 0), 3),
                   util::Table::fmt(s.number_or("p99", 0), 3),
                   util::Table::fmt(s.number_or("dominant_frames", 0), 0),
                   util::Table::fmt(s.number_or("dominant_frac", 0), 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("dominant segment      : %s\n",
              attr->string_or("dominant", "?").c_str());
}

/// Report-only view of a flight-recorder postmortem: schema-validate the
/// document, then print why it fired, the miss density over the recorded
/// ring, the attribution table and the tail of the event log. Returns false
/// (exit 1) on any schema violation so CI can gate on it.
bool print_postmortem_report(const util::Json& doc) {
  const std::string schema = doc.string_or("schema", "");
  if (schema != "mvs-postmortem-v1") {
    std::fprintf(stderr, "bad postmortem schema: \"%s\" (want "
                 "mvs-postmortem-v1)\n", schema.c_str());
    return false;
  }
  const util::Json* frames = doc.find("frames");
  const util::Json* events = doc.find("events");
  const util::Json* attr = doc.find("attribution");
  if (!frames || !frames->is_array() || !events || !events->is_array() ||
      !attr || !attr->is_object()) {
    std::fprintf(stderr,
                 "postmortem missing frames/events/attribution blocks\n");
    return false;
  }
  long misses = 0;
  for (const util::Json& f : frames->as_array()) {
    if (!f.is_object() || !f.find("segments") || !f.find("total_ms")) {
      std::fprintf(stderr, "malformed frame entry in postmortem\n");
      return false;
    }
    if (f.bool_or("deadline_miss", false)) ++misses;
  }
  std::printf("reason                : %s\n",
              doc.string_or("reason", "?").c_str());
  std::printf("frames seen / kept    : %.0f / %zu (%ld misses in ring)\n",
              doc.number_or("frames_seen", 0.0), frames->as_array().size(),
              misses);
  print_attribution_table(doc);
  const auto& evs = events->as_array();
  const std::size_t tail = std::min<std::size_t>(evs.size(), 10);
  if (tail > 0) std::printf("last %zu events:\n", tail);
  for (std::size_t i = evs.size() - tail; i < evs.size(); ++i) {
    const util::Json& e = evs[i];
    std::printf("  tick %-8.0f %-20s session %-5.0f value %.3f\n",
                e.number_or("tick", 0.0),
                e.string_or("type", "?").c_str(),
                e.number_or("session", -1.0), e.number_or("value", 0.0));
  }
  return true;
}

/// Report-only view of a bench_streaming artifact: one table over the
/// budget sweep, the late-policy comparison and the city gating rows, then
/// the acceptance verdicts. Returns false on a schema mismatch.
bool print_streaming_report(const util::Json& doc) {
  const util::Json* s = doc.find("streaming");
  if (!s || !s->is_object()) {
    std::fprintf(stderr, "no \"streaming\" object in artifact\n");
    return false;
  }
  util::Table table({"row", "budget", "policy", "s_recall", "o_recall",
                     "drop", "miss", "lag_ms", "busy_ms"});
  const auto add_rows = [&table](const util::Json* rows, const char* label) {
    if (!rows || !rows->is_array()) return;
    for (const util::Json& r : rows->as_array()) {
      if (!r.is_object()) continue;
      const double budget = r.number_or("deadline_ms", 0.0);
      std::string name = r.string_or("label", label);
      table.add_row({name,
                     budget > 0.0 ? util::Table::fmt(budget, 0) : "inf",
                     r.string_or("late_policy", "?"),
                     util::Table::fmt(r.number_or("streaming_recall", 0), 3),
                     util::Table::fmt(r.number_or("object_recall", 0), 3),
                     util::Table::fmt(r.number_or("drop_rate", 0), 3),
                     util::Table::fmt(r.number_or("miss_rate", 0), 3),
                     util::Table::fmt(r.number_or("mean_lag_ms", 0), 1),
                     util::Table::fmt(r.number_or("gpu_busy_ms", 0), 0)});
    }
  };
  add_rows(s->find("budget_sweep"), "budget");
  add_rows(s->find("late_policies"), "policy");
  add_rows(s->find("city"), "city");
  std::printf("%s", table.to_string().c_str());
  std::printf("monotone budget curve : %s\n",
              s->bool_or("monotone", false) ? "yes" : "NO");
  std::printf("rt-of-one identity    : %s\n",
              s->bool_or("rt_of_one_identical", false) ? "yes" : "NO");
  if (s->find("city_pass"))
    std::printf("city gating           : busy cut %.1f%% at %.4f recall "
                "loss -> %s\n",
                100.0 * s->number_or("city_busy_cut", 0.0),
                s->number_or("city_recall_loss", 0.0),
                s->bool_or("city_pass", false) ? "pass" : "FAIL");
  std::printf("acceptance            : %s\n",
              s->bool_or("pass", false) ? "pass" : "FAIL");
  return true;
}

void write_report(const std::string& path, const char* section,
                  util::Json::Object body) {
  util::Json::Object doc;
  doc["env"] = util::bench_env_json();
  doc[section] = util::Json(std::move(body));
  std::ofstream out(path);
  out << util::Json(std::move(doc)).dump() << '\n';
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args = util::Args::parse(argc, argv);

  // Report-only mode: ingest a metrics snapshot (e.g. mvsched_cli
  // --metrics-json output) and print the per-stage breakdown.
  const std::string metrics_path = args.get_or("metrics-json", "");
  if (!metrics_path.empty()) {
    std::ifstream in(metrics_path);
    if (!in) {
      std::fprintf(stderr, "cannot read --metrics-json file: %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<util::Json> doc =
        util::Json::parse(text.str(), &error);
    if (!doc) {
      std::fprintf(stderr, "malformed metrics JSON %s: %s\n",
                   metrics_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("per-stage latency breakdown (%s):\n", metrics_path.c_str());
    (void)print_stage_breakdown(*doc);
    print_attribution_table(*doc);
    return 0;
  }

  // Report-only mode: validate + pretty-print a flight-recorder postmortem.
  const std::string postmortem_path = args.get_or("postmortem-json", "");
  if (!postmortem_path.empty()) {
    std::ifstream in(postmortem_path);
    if (!in) {
      std::fprintf(stderr, "cannot read --postmortem-json file: %s\n",
                   postmortem_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<util::Json> doc =
        util::Json::parse(text.str(), &error);
    if (!doc) {
      std::fprintf(stderr, "malformed postmortem JSON %s: %s\n",
                   postmortem_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("flight-recorder postmortem (%s):\n", postmortem_path.c_str());
    return print_postmortem_report(*doc) ? 0 : 1;
  }

  // Report-only mode: pretty-print a bench_streaming artifact.
  const std::string streaming_path = args.get_or("streaming-json", "");
  if (!streaming_path.empty()) {
    std::ifstream in(streaming_path);
    if (!in) {
      std::fprintf(stderr, "cannot read --streaming-json file: %s\n",
                   streaming_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<util::Json> doc =
        util::Json::parse(text.str(), &error);
    if (!doc) {
      std::fprintf(stderr, "malformed streaming JSON %s: %s\n",
                   streaming_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("streaming-perception report (%s):\n", streaming_path.c_str());
    return print_streaming_report(*doc) ? 0 : 1;
  }

  const int reps = args.int_or("reps", 7);
  const int frames = args.int_or("frames", 60);
  const int width = args.int_or("width", 320);
  const std::string out_dir = args.get_or("out-dir", ".");

  // ---- vision kernels ----------------------------------------------------
  vision::Renderer::Config rc;
  rc.width = width;
  rc.height = width * 9 / 16;
  const vision::Renderer renderer(rc);
  const geom::BBox box{rc.width / 3.0, rc.height / 3.0, 30, 20};
  const Image a = renderer.render({{1, box}}, 0, 7);
  const Image b = renderer.render({{1, box.shifted({3, 1})}}, 1, 7);
  const OpticalFlow flow;

  Image render_out;
  const double renderer_ms = time_median_ms(reps, [&] {
    renderer.render_into({{1, box}}, 2, 7, render_out);
  });

  vision::PaddedImage pa, pb;
  pa.assign(a, 16);
  pb.assign(b, 16);
  // One SAD per 8x8 block of the frame: the block size the pipeline's
  // flow matcher runs.
  const double sad_ms = time_median_ms(reps, [&] {
    std::uint32_t total = 0;
    for (int y = 0; y + 8 <= rc.height; y += 8)
      for (int x = 0; x + 8 <= rc.width; x += 8)
        total += vision::padded_block_sad(pa, x, y, pb, x + 2, y + 1, 8);
    g_sad_sink = total;
  });

  FlowField field;
  const double flow_ms =
      time_median_ms(reps, [&] { field = flow.compute(a, b); });

  vision::FlowScratch scratch;
  scratch.cur_frame() = a;
  flow.rebase(scratch);
  scratch.cur_frame() = b;
  const double flow_incr_ms = time_median_ms(reps, [&] {
    flow.compute(scratch, field);
  });

  const double flow_ref_ms = time_median_ms(
      reps, [&] { field = reference_flow(flow.config(), a, b); });

  util::Json::Object vis;
  vis["width"] = util::Json(rc.width);
  vis["height"] = util::Json(rc.height);
  vis["reps"] = util::Json(reps);
  vis["renderer_into_ms"] = util::Json(renderer_ms);
  vis["padded_sad_frame_ms"] = util::Json(sad_ms);
  vis["flow_compute_ms"] = util::Json(flow_ms);
  vis["flow_incremental_ms"] = util::Json(flow_incr_ms);
  vis["flow_reference_ms"] = util::Json(flow_ref_ms);
  vis["speedup_vs_reference"] =
      util::Json(flow_ms > 0.0 ? flow_ref_ms / flow_ms : 0.0);
  write_report(out_dir + "/BENCH_vision.json", "vision", std::move(vis));

  // ---- end-to-end pipeline ----------------------------------------------
  runtime::PipelineConfig cfg;
  std::vector<double> run_ms;
  double recall = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    runtime::Pipeline pipeline("S2", cfg);
    util::Stopwatch watch;
    const runtime::PipelineResult result = pipeline.run(frames);
    run_ms.push_back(watch.elapsed_ms());
    recall = result.object_recall;
  }
  const double median_ms = util::median(run_ms);

  // One instrumented rep feeds the per-stage breakdown; the timed reps above
  // ran with the null sink, so median_run_ms matches the committed baseline.
  obs::reset();
  obs::set_enabled(true);
  {
    runtime::Pipeline pipeline("S2", cfg);
    (void)pipeline.run(frames);
  }
  obs::set_enabled(false);
  std::string obs_error;
  const std::optional<util::Json> obs_doc =
      util::Json::parse(obs::metrics().to_json(), &obs_error);
  obs::reset();

  util::Json::Object pipe;
  pipe["scenario"] = util::Json("S2");
  pipe["policy"] = util::Json(runtime::to_string(cfg.policy));
  pipe["frames"] = util::Json(frames);
  pipe["reps"] = util::Json(reps);
  pipe["median_run_ms"] = util::Json(median_ms);
  pipe["frames_per_sec"] =
      util::Json(median_ms > 0.0 ? 1000.0 * frames / median_ms : 0.0);
  pipe["object_recall"] = util::Json(recall);
  if (obs_doc) {
    std::printf("per-stage latency breakdown (1 instrumented rep):\n");
    pipe["stages"] = util::Json(print_stage_breakdown(*obs_doc));
  }

  // Critical-path attribution A/B: the paced runtime is the attribution
  // producer, so the overhead is measured there (the unpaced pipeline never
  // records attributions). Off-median first, then attribution-only on —
  // obs stays disabled throughout, so the delta is the attribution cost.
  runtime::RtConfig rtc;
  const auto paced_rep = [&] {
    rt::RtRunner runner("S2", cfg, rtc);
    (void)runner.run(frames);
  };
  obs::reset();
  const double paced_ms = time_median_ms(reps, paced_rep);
  obs::set_attribution_enabled(true);
  const double paced_attr_ms = time_median_ms(reps, paced_rep);
  obs::set_attribution_enabled(false);
  obs::reset();
  const double attr_overhead_pct =
      paced_ms > 0.0 ? 100.0 * (paced_attr_ms - paced_ms) / paced_ms : 0.0;
  std::printf("paced attribution A/B: off %.2f ms | on %.2f ms | overhead "
              "%.2f%%\n", paced_ms, paced_attr_ms, attr_overhead_pct);
  pipe["paced_run_ms"] = util::Json(paced_ms);
  pipe["paced_attr_run_ms"] = util::Json(paced_attr_ms);
  pipe["attr_overhead_pct"] = util::Json(attr_overhead_pct);
  write_report(out_dir + "/BENCH_pipeline.json", "pipeline", std::move(pipe));

  // ---- fleet session scaling --------------------------------------------
  // Sweep 1..N identical S2 sessions on one fleet. Cross-session batching
  // must beat N isolated deployments: fewer batches and less GPU busy time
  // for the same work (the arbiter reports the isolated counterfactual).
  const int fleet_sessions = args.int_or("fleet-sessions", 4);
  const int fleet_ticks = args.int_or("fleet-ticks", 40);
  const int fleet_reps = std::max(1, std::min(3, reps));

  util::Json::Array sweep;
  for (int n = 1; n <= fleet_sessions; ++n) {
    std::vector<double> samples;
    fleet::FleetSnapshot snap;
    long frames = 0;
    for (int rep = 0; rep < fleet_reps; ++rep) {
      fleet::Fleet fleet;
      for (int s = 0; s < n; ++s) {
        fleet::SessionSpec spec;
        spec.name = "S2#" + std::to_string(s);
        spec.pipeline.seed = 42 + static_cast<std::uint64_t>(s);
        fleet.admit(spec);
      }
      util::Stopwatch watch;
      fleet.run(fleet_ticks);
      samples.push_back(watch.elapsed_ms());
      snap = fleet.snapshot();
      frames = 0;
      for (const fleet::SessionSnapshot& s : snap.sessions)
        frames += s.frames;
    }
    const double fleet_ms = util::median(std::move(samples));

    util::Json::Object point;
    point["sessions"] = util::Json(n);
    point["frames"] = util::Json(static_cast<double>(frames));
    point["median_run_ms"] = util::Json(fleet_ms);
    point["frames_per_sec"] = util::Json(
        fleet_ms > 0.0 ? 1000.0 * static_cast<double>(frames) / fleet_ms
                       : 0.0);
    point["shared_batches"] =
        util::Json(static_cast<double>(snap.shared_batches));
    point["isolated_batches"] =
        util::Json(static_cast<double>(snap.isolated_batches));
    point["batch_savings_pct"] = util::Json(
        snap.isolated_batches > 0
            ? 100.0 *
                  static_cast<double>(snap.isolated_batches -
                                      snap.shared_batches) /
                  static_cast<double>(snap.isolated_batches)
            : 0.0);
    point["shared_busy_ms"] = util::Json(snap.shared_busy_ms);
    point["isolated_busy_ms"] = util::Json(snap.isolated_busy_ms);
    point["mean_occupancy"] = util::Json(snap.mean_occupancy);
    sweep.push_back(util::Json(std::move(point)));
  }

  // ---- elastic device pools ---------------------------------------------
  // Hold the fleet at max sessions and grow every device pool 1x..3x: added
  // capacity must drain pool queueing delay without changing the attributed
  // busy time (attribution is pool-size independent).
  util::Json::Array elastic;
  for (int multiplier = 1; multiplier <= 3; ++multiplier) {
    std::vector<double> samples;
    fleet::FleetSnapshot snap;
    for (int rep = 0; rep < fleet_reps; ++rep) {
      fleet::Fleet fleet;
      for (int s = 0; s < fleet_sessions; ++s) {
        fleet::SessionSpec spec;
        spec.name = "S2#" + std::to_string(s);
        spec.pipeline.seed = 42 + static_cast<std::uint64_t>(s);
        fleet.admit(spec);
      }
      for (const auto& [device_class, count] :
           fleet.snapshot().device_pools)
        fleet.scale_devices(device_class, multiplier - count);
      util::Stopwatch watch;
      fleet.run(fleet_ticks);
      samples.push_back(watch.elapsed_ms());
      snap = fleet.snapshot();
    }
    util::Json::Object point;
    point["devices_per_class"] = util::Json(multiplier);
    point["sessions"] = util::Json(fleet_sessions);
    point["median_run_ms"] = util::Json(util::median(std::move(samples)));
    point["total_queue_ms"] = util::Json(snap.total_queue_ms);
    point["shared_busy_ms"] = util::Json(snap.shared_busy_ms);
    point["mean_occupancy"] = util::Json(snap.mean_occupancy);
    elastic.push_back(util::Json(std::move(point)));
  }

  // ---- plane scaling -----------------------------------------------------
  // Synthetic-load scale sweep over one plane (bench/fleet_scale.hpp):
  // ticks/sec and ns per session-tick at 1k/4k/16k sessions, which must
  // stay flat (a tick is linear in sessions). Deterministic except wall
  // clock.
  const int scale_ticks = args.int_or("fleet-scale-ticks", 10);
  util::Json::Array scale;
  for (const int n : {1000, 4000, 16000}) {
    const bench::ScalePoint point =
        bench::run_scale_point("S2", n, scale_ticks, 42);
    std::printf("fleet scale: %5d sessions -> %7.1f ticks/s, %6.0f ns per "
                "session-tick\n",
                n, point.ticks_per_sec, point.ns_per_session_tick);
    scale.push_back(bench::scale_point_json(point));
  }

  // ---- fleet attribution A/B ---------------------------------------------
  // Same roster as the sweep's max point, with critical-path attribution
  // (and the flight recorder, no dump directory) off vs on.
  util::Json::Object fleet_attr;
  {
    const auto fleet_rep = [&] {
      fleet::Fleet fleet;
      for (int s = 0; s < fleet_sessions; ++s) {
        fleet::SessionSpec spec;
        spec.name = "S2#" + std::to_string(s);
        spec.pipeline.seed = 42 + static_cast<std::uint64_t>(s);
        fleet.admit(spec);
      }
      fleet.run(fleet_ticks);
    };
    obs::reset();
    std::vector<double> off_samples, on_samples;
    for (int rep = 0; rep < fleet_reps; ++rep) {
      util::Stopwatch watch;
      fleet_rep();
      off_samples.push_back(watch.elapsed_ms());
    }
    obs::set_attribution_enabled(true);
    for (int rep = 0; rep < fleet_reps; ++rep) {
      util::Stopwatch watch;
      fleet_rep();
      on_samples.push_back(watch.elapsed_ms());
    }
    obs::set_attribution_enabled(false);
    obs::reset();
    const double off_ms = util::median(std::move(off_samples));
    const double on_ms = util::median(std::move(on_samples));
    const double pct =
        off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
    std::printf("fleet attribution A/B: off %.2f ms | on %.2f ms | overhead "
                "%.2f%%\n", off_ms, on_ms, pct);
    fleet_attr["sessions"] = util::Json(fleet_sessions);
    fleet_attr["run_ms"] = util::Json(off_ms);
    fleet_attr["attr_run_ms"] = util::Json(on_ms);
    fleet_attr["attr_overhead_pct"] = util::Json(pct);
  }

  util::Json::Object fl;
  fl["scenario"] = util::Json("S2");
  fl["ticks"] = util::Json(fleet_ticks);
  fl["reps"] = util::Json(fleet_reps);
  fl["sweep"] = util::Json(std::move(sweep));
  fl["elastic"] = util::Json(std::move(elastic));
  fl["attr"] = util::Json(std::move(fleet_attr));
  fl["scale_ticks"] = util::Json(scale_ticks);
  fl["scale"] = util::Json(std::move(scale));
  write_report(out_dir + "/BENCH_fleet.json", "fleet", std::move(fl));

  // ---- concurrency micro-benchmarks --------------------------------------
  // Same measurement loops as bench/micro_concurrency (shared header): MPMC
  // ring vs the embedded mutex-queue baseline, span record cost, pool round
  // trip, and steady-state serving throughput.
  const int cc_reps = std::max(1, std::min(3, reps));
  std::vector<double> ring, mutexq, span, span_off, pool, tps;
  for (int rep = 0; rep < cc_reps; ++rep) {
    ring.push_back(benchcc::ring_enqueue_ns());
    mutexq.push_back(benchcc::mutex_enqueue_ns());
    span.push_back(benchcc::span_ns());
    span_off.push_back(benchcc::span_disabled_ns());
    pool.push_back(benchcc::pool_pair_ns());
    tps.push_back(benchcc::ticks_per_sec());
  }
  const double ring_ns = util::median(std::move(ring));
  const double mutex_ns = util::median(std::move(mutexq));

  util::Json::Object cc;
  cc["reps"] = util::Json(cc_reps);
  cc["ring_enqueue_ns"] = util::Json(ring_ns);
  cc["mutex_enqueue_ns"] = util::Json(mutex_ns);
  cc["enqueue_speedup"] =
      util::Json(ring_ns > 0.0 ? mutex_ns / ring_ns : 0.0);
  cc["span_ns"] = util::Json(util::median(std::move(span)));
  cc["span_disabled_ns"] = util::Json(util::median(std::move(span_off)));
  cc["pool_pair_ns"] = util::Json(util::median(std::move(pool)));
  cc["pipeline_ticks_per_sec"] = util::Json(util::median(std::move(tps)));
  write_report(out_dir + "/BENCH_concurrency.json", "concurrency",
               std::move(cc));
  return 0;
}
