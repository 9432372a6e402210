// mvs::policy unit tests: kind parsing, the three FramePolicy
// implementations (fixed / heuristic / learned), hysteresis behavior,
// model JSON round-trip + malformed-document rejection, feature-trace
// training, the track-deficit feature, and the admission demand factor.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "policy/features.hpp"
#include "policy/model.hpp"
#include "policy/policy.hpp"
#include "policy/train.hpp"

namespace {

using namespace mvs;

policy::CameraFeatures quiet_features() {
  policy::CameraFeatures f;
  f.frames_since_detect = 1.0;
  f.drift_px = 0.0;
  f.residual = 0.01;
  f.confidence = 0.9;
  f.churn = 0.0;
  f.track_count = 2.0;
  f.unexplained_motion = 0.0;
  f.track_deficit = 0.0;
  return f;
}

policy::PolicyConfig heuristic_config() {
  policy::PolicyConfig cfg;
  cfg.kind = policy::PolicyKind::kHeuristic;
  cfg.staleness_limit = 8;
  cfg.min_track_frames = 2;
  cfg.drift_px = 6.0;
  cfg.conf_floor = 0.45;
  cfg.motion_frac = 0.1;
  cfg.churn_hi = 0.5;
  cfg.hysteresis = 0.3;
  return cfg;
}

// ------------------------------------------------------------------- fixed --

TEST(FixedPolicy, AlwaysDetects) {
  policy::PolicyConfig cfg;
  cfg.kind = policy::PolicyKind::kFixed;
  const auto p = policy::make_policy(cfg, 2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind(), policy::PolicyKind::kFixed);
  for (int i = 0; i < 5; ++i) {
    const policy::Decision d = p->decide(0, quiet_features());
    EXPECT_TRUE(d.detect);
    EXPECT_DOUBLE_EQ(d.score, 1.0);
  }
}

// --------------------------------------------------------------- heuristic --

TEST(HeuristicPolicy, StalenessCapForcesDetect) {
  const auto p = policy::make_policy(heuristic_config(), 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 8.0;
  EXPECT_TRUE(p->decide(0, f).detect);
}

TEST(HeuristicPolicy, RefractoryWindowBlocksOtherTriggers) {
  const auto p = policy::make_policy(heuristic_config(), 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 1.0;  // < min_track_frames = 2
  f.drift_px = 100.0;           // would otherwise trigger
  f.confidence = 0.0;
  f.track_deficit = 1.0;
  EXPECT_FALSE(p->decide(0, f).detect);
}

TEST(HeuristicPolicy, TrackDeficitTriggersPastRefractory) {
  const auto p = policy::make_policy(heuristic_config(), 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 2.0;
  EXPECT_FALSE(p->decide(0, f).detect);
  f.track_deficit = 0.5;
  EXPECT_TRUE(p->decide(0, f).detect);
}

TEST(HeuristicPolicy, DriftAndConfidenceTrigger) {
  const auto p = policy::make_policy(heuristic_config(), 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 3.0;
  f.drift_px = 6.5;
  EXPECT_TRUE(p->decide(0, f).detect);
  f.drift_px = 0.0;
  f.confidence = 0.4;
  EXPECT_TRUE(p->decide(0, f).detect);
}

TEST(HeuristicPolicy, HysteresisSuppressesThresholdOscillation) {
  // A motion signal hovering just above the threshold fires once, then
  // stays quiet inside the hysteresis band; it must drop below the
  // low-water mark before it can fire again.
  const policy::PolicyConfig cfg = heuristic_config();
  const auto p = policy::make_policy(cfg, 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 3.0;
  f.unexplained_motion = cfg.motion_frac * 1.05;  // inside the band

  EXPECT_TRUE(p->decide(0, f).detect);  // first crossing fires
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    if (p->decide(0, f).detect) ++fired;
  EXPECT_EQ(fired, 0) << "hovering signal must not oscillate";

  // Dropping below low water re-arms the trigger...
  f.unexplained_motion = cfg.motion_frac * (1.0 - cfg.hysteresis) * 0.5;
  EXPECT_FALSE(p->decide(0, f).detect);
  // ...so the next crossing fires again.
  f.unexplained_motion = cfg.motion_frac * 1.05;
  EXPECT_TRUE(p->decide(0, f).detect);
}

TEST(HeuristicPolicy, SignalAboveBandFiresEvenWhenDisarmed) {
  const policy::PolicyConfig cfg = heuristic_config();
  const auto p = policy::make_policy(cfg, 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 3.0;
  f.unexplained_motion = cfg.motion_frac * 1.05;
  EXPECT_TRUE(p->decide(0, f).detect);   // fires, disarms
  EXPECT_FALSE(p->decide(0, f).detect);  // hovering: suppressed
  f.unexplained_motion = cfg.motion_frac * (1.0 + cfg.hysteresis) * 1.5;
  EXPECT_TRUE(p->decide(0, f).detect) << "clearly-above-band must fire";
}

TEST(HeuristicPolicy, ResetRearmsLatches) {
  const policy::PolicyConfig cfg = heuristic_config();
  const auto p = policy::make_policy(cfg, 1);
  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 3.0;
  f.unexplained_motion = cfg.motion_frac * 1.05;
  EXPECT_TRUE(p->decide(0, f).detect);
  EXPECT_FALSE(p->decide(0, f).detect);
  p->reset(0);  // key frame ran
  EXPECT_TRUE(p->decide(0, f).detect);
}

// -------------------------------------------------------------- model JSON --

policy::Model make_logistic() {
  policy::Model m;
  m.type = policy::ModelType::kLogistic;
  m.mean.assign(policy::kFeatureCount, 0.0);
  m.scale.assign(policy::kFeatureCount, 1.0);
  m.weights.assign(policy::kFeatureCount, 0.0);
  m.weights[0] = 2.0;  // frames_since_detect drives the decision
  m.bias = -3.0;
  m.threshold = 0.5;
  return m;
}

TEST(PolicyModel, LogisticJsonRoundTrip) {
  const policy::Model m = make_logistic();
  const std::string doc = policy::dump_model(m);
  std::string error;
  const auto back = policy::parse_model(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->type, policy::ModelType::kLogistic);
  EXPECT_DOUBLE_EQ(back->threshold, m.threshold);
  std::vector<double> x(policy::kFeatureCount, 0.0);
  for (double v : {0.0, 1.0, 2.0, 5.0}) {
    x[0] = v;
    EXPECT_NEAR(back->evaluate(x), m.evaluate(x), 1e-12);
  }
}

TEST(PolicyModel, TreeJsonRoundTrip) {
  policy::Model m;
  m.type = policy::ModelType::kTree;
  m.threshold = 0.4;
  policy::TreeNode root;
  root.feature = 0;
  root.threshold = 3.0;
  root.left = 1;
  root.right = 2;
  policy::TreeNode lo, hi;
  lo.leaf = 0.1;
  hi.leaf = 0.9;
  m.nodes = {root, lo, hi};

  const std::string doc = policy::dump_model(m);
  std::string error;
  const auto back = policy::parse_model(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  std::vector<double> x(policy::kFeatureCount, 0.0);
  x[0] = 1.0;
  EXPECT_DOUBLE_EQ(back->evaluate(x), 0.1);
  x[0] = 5.0;
  EXPECT_DOUBLE_EQ(back->evaluate(x), 0.9);
}

TEST(PolicyModel, MalformedDocumentsRejected) {
  const policy::Model good = make_logistic();
  std::string error;

  // Truncated / non-JSON.
  EXPECT_FALSE(policy::parse_model("{not json", &error).has_value());
  EXPECT_FALSE(error.empty());

  // Wrong feature names (layout mismatch must be fatal).
  std::string renamed = policy::dump_model(good);
  const auto pos = renamed.find("frames_since_detect");
  ASSERT_NE(pos, std::string::npos);
  renamed.replace(pos, 19, "frames_since_detec7");
  EXPECT_FALSE(policy::parse_model(renamed, &error).has_value());

  // Non-positive scale.
  policy::Model bad_scale = good;
  bad_scale.scale[2] = 0.0;
  EXPECT_FALSE(
      policy::parse_model(policy::dump_model(bad_scale), &error).has_value());

  // Tree with a backward child link (cycle).
  policy::Model bad_tree;
  bad_tree.type = policy::ModelType::kTree;
  policy::TreeNode n0;
  n0.feature = 0;
  n0.threshold = 1.0;
  n0.left = 0;  // self-link
  n0.right = 1;
  policy::TreeNode leaf;
  leaf.leaf = 0.5;
  bad_tree.nodes = {n0, leaf};
  EXPECT_FALSE(
      policy::parse_model(policy::dump_model(bad_tree), &error).has_value());

  // Leaf outside [0, 1].
  policy::Model bad_leaf;
  bad_leaf.type = policy::ModelType::kTree;
  policy::TreeNode l;
  l.leaf = 1.5;
  bad_leaf.nodes = {l};
  EXPECT_FALSE(
      policy::parse_model(policy::dump_model(bad_leaf), &error).has_value());
}

TEST(LearnedPolicy, UsesModelAndStalenessBrackets) {
  policy::PolicyConfig cfg;
  cfg.kind = policy::PolicyKind::kLearned;
  cfg.staleness_limit = 8;
  cfg.min_track_frames = 2;
  cfg.model_json = policy::dump_model(make_logistic());
  const auto p = policy::make_policy(cfg, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->kind(), policy::PolicyKind::kLearned);

  policy::CameraFeatures f = quiet_features();
  f.frames_since_detect = 1.0;  // refractory
  EXPECT_FALSE(p->decide(0, f).detect);
  f.frames_since_detect = 8.0;  // staleness cap
  EXPECT_TRUE(p->decide(0, f).detect);
  // sigmoid(2 * 2 - 3) = sigmoid(1) ~ 0.73 >= 0.5 -> detect.
  f.frames_since_detect = 2.0;
  EXPECT_TRUE(p->decide(0, f).detect);
  EXPECT_NEAR(p->decide(0, f).score, 1.0 / (1.0 + std::exp(-1.0)), 1e-9);
}

TEST(LearnedPolicy, MissingModelThrows) {
  policy::PolicyConfig cfg;
  cfg.kind = policy::PolicyKind::kLearned;
  EXPECT_THROW((void)policy::make_policy(cfg, 1), std::runtime_error);
  cfg.model_json = "{broken";
  EXPECT_THROW((void)policy::make_policy(cfg, 1), std::runtime_error);
}

// ---------------------------------------------------------------- training --

TEST(PolicyTraining, TraceRoundTripAndFit) {
  // Synthesize a separable trace: label = frames_since_detect > 3.
  std::ostringstream trace;
  for (int i = 0; i < 200; ++i) {
    const double fsd = static_cast<double>(i % 8);
    trace << "{\"f\": [" << fsd;
    for (std::size_t d = 1; d < policy::kFeatureCount; ++d)
      trace << ", " << 0.1 * static_cast<double>(d);
    trace << "], \"label\": " << (fsd > 3.0 ? 1 : 0) << "}\n";
  }

  std::istringstream in(trace.str());
  std::string error;
  const auto samples = policy::load_feature_trace(in, &error);
  ASSERT_TRUE(samples.has_value()) << error;
  ASSERT_EQ(samples->size(), 200u);

  for (const auto type :
       {policy::ModelType::kLogistic, policy::ModelType::kTree}) {
    const auto report = policy::train_model(*samples, type, &error);
    ASSERT_TRUE(report.has_value()) << error;
    EXPECT_GT(report->accuracy, 0.9) << policy::to_string(type);
    // The exported model must round-trip and reproduce the split.
    const auto back =
        policy::parse_model(policy::dump_model(report->model), &error);
    ASSERT_TRUE(back.has_value()) << error;
    std::vector<double> x(policy::kFeatureCount, 0.1);
    x[0] = 7.0;
    EXPECT_GE(back->evaluate(x), back->threshold);
    x[0] = 0.0;
    EXPECT_LT(back->evaluate(x), back->threshold);
  }
}

TEST(PolicyTraining, MalformedTraceRejected) {
  std::string error;
  std::istringstream bad_row("{\"f\": [1, 2], \"label\": 0}\n");
  EXPECT_FALSE(policy::load_feature_trace(bad_row, &error).has_value());
  EXPECT_FALSE(error.empty());

  std::istringstream not_json("garbage\n");
  EXPECT_FALSE(policy::load_feature_trace(not_json, &error).has_value());

  // Single-class traces cannot be fit.
  std::vector<policy::TrainSample> one_class(
      10, policy::TrainSample{std::vector<double>(policy::kFeatureCount, 0.0),
                              1});
  EXPECT_FALSE(
      policy::train_model(one_class, policy::ModelType::kLogistic, &error)
          .has_value());
}

// ----------------------------------------------------------- track deficit --

TEST(CameraFeatureState, TrackDeficitLifecycle) {
  policy::CameraFeatureState st;
  st.reset_baseline(4);  // key-frame plan installed 4 tracks
  policy::CameraFeatures f = st.features(4, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 0.0);

  // Two tracks lost mid-horizon: deficit = 2/4.
  f = st.features(2, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 0.5);

  // A legitimate departure shrinks the responsibility, not the deficit.
  st.note_departure();
  f = st.features(2, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 1.0 / 3.0);

  // An inspection that leaves MORE tracks alive ratchets the baseline up.
  st.note_detect(0.9, 0, 5);
  f = st.features(5, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 0.0);
  f = st.features(3, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 2.0 / 5.0);

  // The next key-frame plan may shrink it again.
  st.reset_baseline(1);
  f = st.features(1, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(f.track_deficit, 0.0);
}

TEST(CameraFeatures, VectorLayoutMatchesNames) {
  policy::CameraFeatures f = quiet_features();
  f.track_deficit = 0.25;
  const std::vector<double> v = f.to_vector();
  ASSERT_EQ(v.size(), policy::kFeatureCount);
  EXPECT_DOUBLE_EQ(v[0], f.frames_since_detect);
  EXPECT_DOUBLE_EQ(v.back(), f.track_deficit);
  EXPECT_STREQ(policy::kFeatureNames.back(), "track_deficit");
}

// ----------------------------------------------------------- demand factor --

TEST(DemandFactor, FixedIsUnityOthersScale) {
  policy::PolicyConfig cfg;
  cfg.kind = policy::PolicyKind::kFixed;
  cfg.expected_detect_ratio = 0.5;
  EXPECT_DOUBLE_EQ(policy::demand_factor(cfg), 1.0);

  cfg.kind = policy::PolicyKind::kHeuristic;
  EXPECT_DOUBLE_EQ(policy::demand_factor(cfg), 0.5);

  cfg.expected_detect_ratio = 0.001;  // clamped
  EXPECT_DOUBLE_EQ(policy::demand_factor(cfg), 0.05);
  cfg.expected_detect_ratio = 2.0;
  EXPECT_DOUBLE_EQ(policy::demand_factor(cfg), 1.0);
}

}  // namespace
