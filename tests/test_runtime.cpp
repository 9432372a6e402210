#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "assoc/association.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "runtime/oracles.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace mvs::runtime {
namespace {

PipelineConfig fast_config(Policy policy, std::uint64_t seed = 5) {
  PipelineConfig cfg;
  cfg.policy = policy;
  cfg.horizon_frames = 10;
  cfg.training_frames = 120;
  cfg.seed = seed;
  return cfg;
}

TEST(Oracles, CoverageIncludesSelfAndIsSorted) {
  sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
  const auto frames = player.take(120);
  assoc::CrossCameraAssociator associator({{1280, 704}, {1280, 704}});
  associator.train(frames);
  const auto coverage = make_coverage_oracle(associator);
  for (double x = 50; x < 1280; x += 300) {
    const auto cover = coverage(0, {x, 400});
    EXPECT_FALSE(cover.empty());
    EXPECT_TRUE(std::find(cover.begin(), cover.end(), 0) != cover.end());
    EXPECT_TRUE(std::is_sorted(cover.begin(), cover.end()));
  }
}

TEST(Oracles, RegionKeyDeterministic) {
  sim::ScenarioPlayer player(sim::make_s2(3), 60.0);
  const auto frames = player.take(120);
  assoc::CrossCameraAssociator associator({{1280, 704}, {1280, 704}});
  associator.train(frames);
  const auto key = make_region_key_oracle(associator);
  EXPECT_EQ(key(0, {200, 300}), key(0, {200, 300}));
  // Nearby points in the same 64-px cell share the key.
  EXPECT_EQ(key(0, {200, 300}), key(0, {205, 305}));
}

class PolicyRuns : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyRuns, ExecutesAndReportsSaneNumbers) {
  Pipeline pipeline("S2", fast_config(GetParam()));
  const PipelineResult result = pipeline.run(40);
  ASSERT_EQ(result.frames.size(), 40u);
  EXPECT_GE(result.object_recall, 0.0);
  EXPECT_LE(result.object_recall, 1.0);
  EXPECT_GT(result.mean_slowest_infer_ms(), 0.0);
  // Key-frame cadence: frames 0, 10, 20, 30 (except Full which has none).
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    if (GetParam() == Policy::kFull) break;
    EXPECT_EQ(result.frames[f].key_frame, f % 10 == 0);
  }
  // Per-camera latency vector matches the scenario camera count.
  EXPECT_EQ(result.frames[0].camera_infer_ms.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyRuns,
    ::testing::Values(Policy::kFull, Policy::kBalbInd, Policy::kBalbCen,
                      Policy::kBalb, Policy::kStaticPartition),
    [](const ::testing::TestParamInfo<Policy>& info) {
      std::string name = to_string(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(PipelineBehaviour, FullChargesFullFrameEveryFrame) {
  Pipeline pipeline("S2", fast_config(Policy::kFull));
  const PipelineResult result = pipeline.run(10);
  for (const FrameStats& f : result.frames)
    EXPECT_DOUBLE_EQ(f.slowest_infer_ms, 280.0);  // nano full frame
}

TEST(PipelineBehaviour, BalbFasterThanFull) {
  Pipeline full("S2", fast_config(Policy::kFull));
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const double full_latency = full.run(60).mean_slowest_infer_ms();
  const double balb_latency = balb.run(60).mean_slowest_infer_ms();
  EXPECT_LT(balb_latency, 0.8 * full_latency);
}

TEST(PipelineBehaviour, BalbRecallUsable) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  EXPECT_GT(balb.run(60).object_recall, 0.7);
}

TEST(PipelineBehaviour, KeyFramesChargeFullInspection) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(20);
  EXPECT_DOUBLE_EQ(result.frames[0].slowest_infer_ms, 280.0);
  // Regular frames must be cheaper than key frames on average.
  double regular = 0.0;
  int count = 0;
  for (const FrameStats& f : result.frames)
    if (!f.key_frame) {
      regular += f.slowest_infer_ms;
      ++count;
    }
  EXPECT_LT(regular / count, 280.0);
}

TEST(PipelineBehaviour, CentralOverheadOnlyOnKeyFrames) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(20);
  for (const FrameStats& f : result.frames) {
    if (!f.key_frame) {
      EXPECT_DOUBLE_EQ(f.central_ms, 0.0);
    }
  }
  EXPECT_GT(result.frames[0].central_ms, 0.0);
  EXPECT_GT(result.frames[0].comm_ms, 0.0);
}

TEST(PipelineBehaviour, TrackingOverheadOnRegularFrames) {
  Pipeline balb("S2", fast_config(Policy::kBalb));
  const PipelineResult result = balb.run(15);
  bool any_tracking = false;
  for (const FrameStats& f : result.frames)
    if (!f.key_frame && f.tracking_ms > 0.0) any_tracking = true;
  EXPECT_TRUE(any_tracking);
}

/// Compare the deterministic FrameStats fields (everything except measured
/// wall-clock overheads, which legitimately vary run to run).
void expect_deterministic_stats_equal(const PipelineResult& a,
                                      const PipelineResult& b) {
  EXPECT_DOUBLE_EQ(a.object_recall, b.object_recall);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    const FrameStats& fa = a.frames[f];
    const FrameStats& fb = b.frames[f];
    EXPECT_EQ(fa.frame, fb.frame);
    EXPECT_EQ(fa.key_frame, fb.key_frame);
    ASSERT_EQ(fa.camera_infer_ms.size(), fb.camera_infer_ms.size());
    for (std::size_t c = 0; c < fa.camera_infer_ms.size(); ++c)
      EXPECT_DOUBLE_EQ(fa.camera_infer_ms[c], fb.camera_infer_ms[c]);
    EXPECT_DOUBLE_EQ(fa.slowest_infer_ms, fb.slowest_infer_ms);
    EXPECT_DOUBLE_EQ(fa.frame_recall, fb.frame_recall);
    EXPECT_EQ(fa.gt_objects, fb.gt_objects);
    EXPECT_EQ(fa.tracked_objects, fb.tracked_objects);
    EXPECT_DOUBLE_EQ(fa.comm_ms, fb.comm_ms);
    EXPECT_EQ(fa.retries, fb.retries);
    EXPECT_EQ(fa.dropped_msgs, fb.dropped_msgs);
    EXPECT_EQ(fa.cameras_online, fb.cameras_online);
  }
}

/// Trace events sorted into a canonical order: camera steps run concurrently,
/// so the recording order across cameras is scheduling-dependent even though
/// the event SET is deterministic.
std::vector<TraceEvent> sorted_events(const TraceRecorder& trace) {
  std::vector<TraceEvent> events = trace.events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.frame, a.camera, a.type, a.object_key,
                              a.value) < std::tie(b.frame, b.camera, b.type,
                                                  b.object_key, b.value);
            });
  return events;
}

TEST(PipelineBehaviour, DeterministicAcrossThreadCountsAndTiling) {
  // Same seed at threads=1, threads=8, and threads=8 without flow tiling:
  // FrameStats and trace streams must be identical. S2 has 2 cameras, so
  // threads=8 exercises the tiled-flow path (fleet smaller than the pool).
  PipelineConfig base = fast_config(Policy::kBalb, 21);
  base.threads = 1;
  PipelineConfig wide = base;
  wide.threads = 8;
  PipelineConfig wide_untiled = wide;
  wide_untiled.tile_flow = false;

  TraceRecorder trace_base, trace_wide, trace_untiled;
  Pipeline a("S2", base);
  a.attach_trace(&trace_base);
  Pipeline b("S2", wide);
  b.attach_trace(&trace_wide);
  Pipeline c("S2", wide_untiled);
  c.attach_trace(&trace_untiled);

  const PipelineResult ra = a.run(30);
  const PipelineResult rb = b.run(30);
  const PipelineResult rc = c.run(30);
  expect_deterministic_stats_equal(ra, rb);
  expect_deterministic_stats_equal(ra, rc);

  const auto ea = sorted_events(trace_base);
  const auto eb = sorted_events(trace_wide);
  const auto ec = sorted_events(trace_untiled);
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_EQ(ea.size(), ec.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    for (const auto* other : {&eb[i], &ec[i]}) {
      EXPECT_EQ(ea[i].frame, other->frame);
      EXPECT_EQ(ea[i].camera, other->camera);
      EXPECT_EQ(ea[i].type, other->type);
      EXPECT_EQ(ea[i].object_key, other->object_key);
      EXPECT_DOUBLE_EQ(ea[i].value, other->value);
    }
  }
}

TEST(PipelineBehaviour, ObsDeterministicAcrossThreadCounts) {
  // With observability on, metric values and span counts must be
  // bit-identical at threads=1 and threads=8 — only durations (excluded
  // from the fingerprint) may differ. Guards against instrumentation that
  // depends on the thread schedule (e.g. last-writer-wins gauges written
  // from pool threads).
  const auto run_observed = [](int threads, std::string* fingerprint,
                               std::map<std::string, long long>* spans) {
    obs::reset();
    obs::set_enabled(true);
    PipelineConfig cfg = fast_config(Policy::kBalb, 21);
    cfg.threads = threads;
    Pipeline pipeline("S2", cfg);
    (void)pipeline.run(30);
    obs::set_enabled(false);
    *fingerprint = obs::metrics().fingerprint();
    *spans = obs::tracer().span_counts();
    obs::reset();
  };

  std::string fp_one, fp_wide;
  std::map<std::string, long long> spans_one, spans_wide;
  run_observed(1, &fp_one, &spans_one);
  run_observed(8, &fp_wide, &spans_wide);

  EXPECT_FALSE(fp_one.empty());
  EXPECT_EQ(fp_one, fp_wide);
  EXPECT_FALSE(spans_one.empty());
  EXPECT_EQ(spans_one, spans_wide);
  // The instrumented stages all fired.
  for (const char* name : {"pipeline.frame", "pipeline.camera",
                           "pipeline.tracking", "gpu.batch"})
    EXPECT_GT(spans_one.count(name), 0u) << name;
}

TEST(PipelineBehaviour, FramePolicyKindsDeterministicAcrossThreadCounts) {
  // Every detect-or-track policy kind must be bit-identical at threads=1
  // and threads=8: decide() only touches per-camera state, so the parallel
  // per-camera step may not perturb decisions or results.
  policy::PolicyConfig kinds[3];
  kinds[0].kind = policy::PolicyKind::kFixed;
  kinds[1].kind = policy::PolicyKind::kHeuristic;
  kinds[2].kind = policy::PolicyKind::kLearned;
  {
    // Minimal valid logistic model: detect when frames_since_detect >= ~2.
    policy::Model m;
    m.mean.assign(policy::kFeatureCount, 0.0);
    m.scale.assign(policy::kFeatureCount, 1.0);
    m.weights.assign(policy::kFeatureCount, 0.0);
    m.weights[0] = 2.0;
    m.bias = -3.0;
    kinds[2].model_json = policy::dump_model(m);
  }
  for (const policy::PolicyConfig& pc : kinds) {
    PipelineConfig one = fast_config(Policy::kBalb, 33);
    one.frame_policy = pc;
    one.threads = 1;
    PipelineConfig wide = one;
    wide.threads = 8;
    Pipeline a("S2", one);
    Pipeline b("S2", wide);
    const PipelineResult ra = a.run(30);
    const PipelineResult rb = b.run(30);
    expect_deterministic_stats_equal(ra, rb);
  }
}

TEST(PipelineBehaviour, FixedPolicySelectionBitIdenticalToPrePolicy) {
  // Selecting policy "fixed" (with or without feature-trace recording, with
  // paired_rng off) must reproduce the default pipeline bit-for-bit: the
  // policy layer and its recording hooks may not perturb the RNG stream,
  // the slicing, or any stat.
  const PipelineConfig base = fast_config(Policy::kBalb, 7);
  Pipeline plain("S2", base);
  const PipelineResult rp = plain.run(30);

  PipelineConfig fixed_cfg = base;
  fixed_cfg.frame_policy.kind = policy::PolicyKind::kFixed;
  EXPECT_FALSE(fixed_cfg.paired_rng) << "paired_rng must default off";
  Pipeline fixed_run("S2", fixed_cfg);
  expect_deterministic_stats_equal(rp, fixed_run.run(30));

  PipelineConfig recording = fixed_cfg;
  recording.frame_policy.feature_trace =
      ::testing::TempDir() + "/policy_trace_bitident.jsonl";
  Pipeline recorded("S2", recording);
  expect_deterministic_stats_equal(rp, recorded.run(30));
}

TEST(PipelineBehaviour, HeuristicPolicySkipsDetectionAndSavesGpu) {
  // The heuristic must actually skip regular-frame inspections: strictly
  // less GPU busy than fixed, while key frames stay untouched.
  const PipelineConfig base = fast_config(Policy::kBalb, 9);
  PipelineConfig heur = base;
  heur.frame_policy.kind = policy::PolicyKind::kHeuristic;

  Pipeline a("S2", base);
  Pipeline b("S2", heur);
  const PipelineResult ra = a.run(40);
  const PipelineResult rb = b.run(40);

  const auto busy = [](const PipelineResult& r) {
    double total = 0.0;
    for (const FrameStats& f : r.frames)
      for (double ms : f.camera_infer_ms) total += ms;
    return total;
  };
  EXPECT_LT(busy(rb), busy(ra));
  for (std::size_t i = 0; i < ra.frames.size(); ++i) {
    if (!ra.frames[i].key_frame) continue;
    EXPECT_EQ(ra.frames[i].camera_infer_ms, rb.frames[i].camera_infer_ms)
        << "key frame " << ra.frames[i].frame << " must be unaffected";
  }
}

TEST(PipelineBehaviour, RunFrameMatchesRunExactly) {
  // run_frame x N must be bit-identical to run(N), and run() must keep its
  // delta semantics when mixed with stepwise calls.
  Pipeline batch("S2", fast_config(Policy::kBalb, 11));
  Pipeline step("S2", fast_config(Policy::kBalb, 11));
  const PipelineResult rb = batch.run(25);
  for (int f = 0; f < 25; ++f) step.run_frame();
  expect_deterministic_stats_equal(rb, step.result());

  // A subsequent run() only reports its own frames but snapshots accumulate.
  const PipelineResult more = step.run(5);
  EXPECT_EQ(more.frames.size(), 5u);
  EXPECT_EQ(more.frames.front().frame, rb.frames.back().frame + 1);
  EXPECT_EQ(step.result().frames.size(), 30u);
}

TEST(PipelineBehaviour, FleetOfOneBitIdenticalToStandalonePipeline) {
  // A fleet hosting exactly one session (ideal transport, same seed) must
  // reproduce the standalone pipeline bit-for-bit: shared-pool execution,
  // stepwise driving, and cross-session arbitration may not perturb
  // single-session results.
  const PipelineConfig cfg = fast_config(Policy::kBalb, 5);
  Pipeline standalone("S2", cfg);
  const PipelineResult solo = standalone.run(25);

  fleet::Fleet fleet;
  fleet::SessionSpec spec;
  spec.name = "solo";
  spec.scenario = "S2";
  spec.pipeline = cfg;
  const fleet::AdmitResult admitted = fleet.admit(spec);
  ASSERT_TRUE(admitted.admitted);
  fleet.run(25);
  const PipelineResult hosted = fleet.result(admitted.handle);
  expect_deterministic_stats_equal(solo, hosted);

  // The arbiter must also charge the lone session exactly its own plan: the
  // fleet's attributed latency equals the isolated counterfactual.
  const fleet::FleetSnapshot snap = fleet.snapshot();
  ASSERT_EQ(snap.sessions.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.sessions[0].mean_ms, snap.sessions[0].mean_isolated_ms);
  EXPECT_EQ(snap.shared_batches, snap.isolated_batches);
  EXPECT_DOUBLE_EQ(snap.shared_busy_ms, snap.isolated_busy_ms);
}

TEST(PipelineBehaviour, FleetOfOneWithFixedPolicyBitIdentical) {
  // Hosting a session that explicitly selects policy "fixed" must still be
  // bit-identical to the standalone default pipeline: the fleet's
  // policy-aware admission path may not perturb execution.
  const PipelineConfig plain = fast_config(Policy::kBalb, 5);
  Pipeline standalone("S2", plain);
  const PipelineResult solo = standalone.run(25);

  PipelineConfig cfg = plain;
  cfg.frame_policy.kind = policy::PolicyKind::kFixed;
  fleet::Fleet fleet;
  fleet::SessionSpec spec;
  spec.name = "solo-fixed";
  spec.scenario = "S2";
  spec.pipeline = cfg;
  const fleet::AdmitResult admitted = fleet.admit(spec);
  ASSERT_TRUE(admitted.admitted);
  fleet.run(25);
  expect_deterministic_stats_equal(solo, fleet.result(admitted.handle));
}

TEST(PipelineBehaviour, DeterministicForSeed) {
  Pipeline a("S2", fast_config(Policy::kBalb, 77));
  Pipeline b("S2", fast_config(Policy::kBalb, 77));
  const PipelineResult ra = a.run(30);
  const PipelineResult rb = b.run(30);
  EXPECT_DOUBLE_EQ(ra.object_recall, rb.object_recall);
  EXPECT_DOUBLE_EQ(ra.mean_slowest_infer_ms(), rb.mean_slowest_infer_ms());
  for (std::size_t f = 0; f < ra.frames.size(); ++f)
    EXPECT_DOUBLE_EQ(ra.frames[f].slowest_infer_ms,
                     rb.frames[f].slowest_infer_ms);
}

}  // namespace
}  // namespace mvs::runtime
