#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>

#include "policy/policy.hpp"
#include "runtime/config.hpp"
#include "sim/scenario.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace mvs {
namespace {

using util::Json;

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("3.5")->as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17")->as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  const auto doc = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(doc.has_value());
  const Json* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(doc->find("c")->find("d")->as_string(), "x");
  EXPECT_TRUE(doc->find("e")->is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, StringEscapes) {
  const auto doc = Json::parse(R"("a\nb\t\"q\" \\ A")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "a\nb\t\"q\" \\ A");
}

TEST(Json, ControlCharacterEscapesRoundTrip) {
  // Every control character must survive dump() -> parse(): \b and \f get
  // their short escapes, the rest go out as \u00XX.
  std::string raw;
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);
  raw += "\b\f plain";
  const std::string dumped = Json(raw).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);  // no literal controls
  EXPECT_NE(dumped.find("\\b"), std::string::npos);
  EXPECT_NE(dumped.find("\\f"), std::string::npos);
  EXPECT_NE(dumped.find("\\u001f"), std::string::npos);
  const auto back = Json::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->as_string(), raw);
}

TEST(Json, MalformedInputsRejected) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("12 34").has_value());  // trailing tokens
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(Json, WhitespaceTolerant) {
  EXPECT_TRUE(Json::parse("  { \"a\" :\n[ 1 , 2 ]\t} ").has_value());
}

TEST(Json, DumpRoundTrips) {
  const std::string text =
      R"({"arr":[1,2.5,"s"],"flag":true,"n":null,"nested":{"x":-3}})";
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  const auto again = Json::parse(doc->dump());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), doc->dump());
}

TEST(Json, TypedGettersWithDefaults) {
  const auto doc = Json::parse(R"({"a": 2, "b": "s", "c": true})");
  EXPECT_DOUBLE_EQ(doc->number_or("a", 0.0), 2.0);
  EXPECT_DOUBLE_EQ(doc->number_or("missing", 7.0), 7.0);
  EXPECT_DOUBLE_EQ(doc->number_or("b", 7.0), 7.0);  // wrong type -> default
  EXPECT_EQ(doc->string_or("b", ""), "s");
  EXPECT_TRUE(doc->bool_or("c", false));
}

TEST(Args, FlagsValuesPositional) {
  const char* argv[] = {"prog", "--verbose", "--frames", "100",
                        "--policy=balb", "S1", "extra"};
  const auto args = util::Args::parse(7, argv, {"verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get_or("policy", ""), "balb");
  EXPECT_EQ(args.int_or("frames", 0), 100);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "S1");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto args = util::Args::parse(1, argv);
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get_or("x", "d"), "d");
  EXPECT_DOUBLE_EQ(args.number_or("x", 1.5), 1.5);
}

TEST(Args, NamesListsParsedOptions) {
  const char* argv[] = {"prog", "--verbose", "--frames", "100",
                        "--policy=balb", "S1"};
  const auto args = util::Args::parse(6, argv, {"verbose"});
  EXPECT_EQ(args.names(),
            (std::vector<std::string>{"frames", "policy", "verbose"}));
}

TEST(ParsePolicy, AllNames) {
  using runtime::Policy;
  EXPECT_EQ(runtime::parse_policy("full"), Policy::kFull);
  EXPECT_EQ(runtime::parse_policy("BALB"), Policy::kBalb);
  EXPECT_EQ(runtime::parse_policy("balb-ind"), Policy::kBalbInd);
  EXPECT_EQ(runtime::parse_policy("balb-cen"), Policy::kBalbCen);
  EXPECT_EQ(runtime::parse_policy("sp"), Policy::kStaticPartition);
  EXPECT_EQ(runtime::parse_policy("static"), Policy::kStaticPartition);
  EXPECT_FALSE(runtime::parse_policy("bogus").has_value());
}

TEST(RunConfig, ParseFullDocument) {
  const std::string text = R"({
    "scenario": "S2", "frames": 50,
    "pipeline": {"policy": "sp", "horizon_frames": 5,
                 "training_frames": 80, "seed": 9, "recall_iou": 0.5}
  })";
  const auto config = runtime::parse_run_config(text);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->scenario, "S2");
  EXPECT_EQ(config->frames, 50);
  EXPECT_EQ(config->pipeline.policy, runtime::Policy::kStaticPartition);
  EXPECT_EQ(config->pipeline.horizon_frames, 5);
  EXPECT_EQ(config->pipeline.seed, 9u);
  EXPECT_DOUBLE_EQ(config->pipeline.recall_iou, 0.5);
}

TEST(RunConfig, DefaultsApplied) {
  const auto config = runtime::parse_run_config("{}");
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->scenario, "S1");
  EXPECT_EQ(config->pipeline.policy, runtime::Policy::kBalb);
}

TEST(RunConfig, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config("{bad", &error).has_value());
  EXPECT_FALSE(runtime::parse_run_config(R"({"scenario":"S9"})", &error)
                   .has_value());
  EXPECT_NE(error.find("S9"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"pipeline":{"policy":"zzz"}})", &error)
          .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"pipeline":{"horizon_frames":0}})", &error)
                   .has_value());
}

TEST(RunConfig, DumpRoundTrips) {
  runtime::RunConfig config;
  config.scenario = "S3";
  config.frames = 77;
  config.pipeline.policy = runtime::Policy::kBalbCen;
  config.pipeline.horizon_frames = 20;
  config.pipeline.seed = 1234;
  const auto again = runtime::parse_run_config(dump_run_config(config));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->scenario, "S3");
  EXPECT_EQ(again->frames, 77);
  EXPECT_EQ(again->pipeline.policy, runtime::Policy::kBalbCen);
  EXPECT_EQ(again->pipeline.horizon_frames, 20);
  EXPECT_EQ(again->pipeline.seed, 1234u);
}

TEST(RunConfig, PolicyBlockParseAndRoundTrip) {
  // Defaults: fixed kind, no model, no trace.
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->pipeline.frame_policy.kind, policy::PolicyKind::kFixed);
  EXPECT_TRUE(defaults->pipeline.frame_policy.model_json.empty());
  EXPECT_TRUE(defaults->pipeline.frame_policy.feature_trace.empty());

  const auto config = runtime::parse_run_config(R"({
    "policy": {"mode": "heuristic", "staleness_limit": 9,
               "min_track_frames": 2, "drift_px": 6.5, "conf_floor": 0.4,
               "motion_frac": 0.02, "churn_hi": 0.5, "hysteresis": 0.25,
               "expected_detect_ratio": 0.4, "feature_trace": "rows.jsonl"}
  })");
  ASSERT_TRUE(config.has_value());
  const policy::PolicyConfig& pc = config->pipeline.frame_policy;
  EXPECT_EQ(pc.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(pc.staleness_limit, 9);
  EXPECT_EQ(pc.min_track_frames, 2);
  EXPECT_DOUBLE_EQ(pc.drift_px, 6.5);
  EXPECT_DOUBLE_EQ(pc.conf_floor, 0.4);
  EXPECT_DOUBLE_EQ(pc.motion_frac, 0.02);
  EXPECT_DOUBLE_EQ(pc.churn_hi, 0.5);
  EXPECT_DOUBLE_EQ(pc.hysteresis, 0.25);
  EXPECT_DOUBLE_EQ(pc.expected_detect_ratio, 0.4);
  EXPECT_EQ(pc.feature_trace, "rows.jsonl");

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  const policy::PolicyConfig& rc = again->pipeline.frame_policy;
  EXPECT_EQ(rc.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(rc.staleness_limit, 9);
  EXPECT_EQ(rc.min_track_frames, 2);
  EXPECT_DOUBLE_EQ(rc.drift_px, 6.5);
  EXPECT_DOUBLE_EQ(rc.hysteresis, 0.25);
  EXPECT_DOUBLE_EQ(rc.expected_detect_ratio, 0.4);
  EXPECT_EQ(rc.feature_trace, "rows.jsonl");
}

TEST(RunConfig, PolicyBlockUnknownKeyIsHardError) {
  // Policy knobs trade GPU time against recall; a typo must not silently
  // fall back to a default (unlike the legacy lenient blocks).
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"mode": "heuristic", "drift_pix": 4}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown policy key"), std::string::npos);
  EXPECT_NE(error.find("drift_pix"), std::string::npos);

  // Must be an object, mode must parse, ranges are enforced.
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": 3})", &error).has_value());
  EXPECT_NE(error.find("policy"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": {"mode": "psychic"}})", &error)
          .has_value());
  EXPECT_NE(error.find("psychic"), std::string::npos);
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"policy": {"hysteresis": 1.5}})", &error)
          .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"staleness_limit": 2,
                                  "min_track_frames": 2}})",
                   &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"expected_detect_ratio": 0}})", &error)
                   .has_value());
}

TEST(RunConfig, PairedRngParsesAndRoundTrips) {
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->pipeline.paired_rng);  // default preserves bit-identity

  const auto config = runtime::parse_run_config(
      R"({"pipeline": {"paired_rng": true}})");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->pipeline.paired_rng);
  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->pipeline.paired_rng);
}

TEST(RunConfig, ObsBlockParseAndRoundTrip) {
  // Defaults: observability off, no export paths.
  const auto defaults = runtime::parse_run_config("{}");
  ASSERT_TRUE(defaults.has_value());
  EXPECT_FALSE(defaults->obs.enabled);
  EXPECT_TRUE(defaults->obs.chrome_trace.empty());
  EXPECT_TRUE(defaults->obs.metrics_json.empty());

  const auto config = runtime::parse_run_config(R"({
    "obs": {"enabled": true, "chrome_trace": "trace.json",
            "metrics_json": "metrics.json"}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->obs.enabled);
  EXPECT_EQ(config->obs.chrome_trace, "trace.json");
  EXPECT_EQ(config->obs.metrics_json, "metrics.json");

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->obs.enabled);
  EXPECT_EQ(again->obs.chrome_trace, "trace.json");
  EXPECT_EQ(again->obs.metrics_json, "metrics.json");
}

TEST(RunConfig, ObsBlockMustBeObject) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(R"({"obs": true})", &error)
                   .has_value());
  EXPECT_NE(error.find("obs"), std::string::npos);
}

TEST(FleetRunConfig, ParseFleetBlock) {
  const std::string text = R"({
    "scenario": "S2", "frames": 60,
    "pipeline": {"policy": "balb", "horizon_frames": 5, "seed": 3},
    "fleet": {
      "slo_ms": 120, "dispatch": "weighted", "threads": 2,
      "readmit_interval": 7, "readmit_low_water": 0.6,
      "readmit_high_water": 0.85, "allow_split": true,
      "device_scale": [{"class": "nano", "delta": 2}],
      "sessions": [
        {"name": "a", "weight": 2, "fps": 15, "slo_ms": 90,
         "faults": {"loss_rate": 0.05, "jitter_ms": 1.5,
                    "dropouts": [{"camera": 1, "from": 10, "to": 20}]}},
        {"name": "b", "scenario": "S3", "synthetic": true,
         "pipeline": {"policy": "sp", "horizon_frames": 8},
         "policy": {"mode": "heuristic", "staleness_limit": 6}}
      ]
    }
  })";
  const auto config = runtime::parse_run_config(text);
  ASSERT_TRUE(config.has_value());
  ASSERT_TRUE(config->fleet.has_value());
  const runtime::FleetRunConfig& fleet = *config->fleet;
  EXPECT_DOUBLE_EQ(fleet.slo_ms, 120.0);
  EXPECT_EQ(fleet.dispatch, runtime::DispatchPolicy::kWeightedPriority);
  EXPECT_EQ(fleet.threads, 2);
  EXPECT_EQ(fleet.readmit_interval, 7);
  EXPECT_DOUBLE_EQ(fleet.readmit_low_water, 0.6);
  EXPECT_DOUBLE_EQ(fleet.readmit_high_water, 0.85);
  EXPECT_TRUE(fleet.allow_split);
  ASSERT_EQ(fleet.device_scale.size(), 1u);
  EXPECT_EQ(fleet.device_scale[0].device_class, "nano");
  EXPECT_EQ(fleet.device_scale[0].delta, 2);

  ASSERT_EQ(fleet.sessions.size(), 2u);
  const runtime::FleetSessionSpec& a = fleet.sessions[0];
  EXPECT_EQ(a.name, "a");
  // Sessions inherit the document's top-level scenario and pipeline.
  EXPECT_EQ(a.scenario, "S2");
  EXPECT_EQ(a.pipeline.horizon_frames, 5);
  EXPECT_EQ(a.pipeline.seed, 3u);
  EXPECT_DOUBLE_EQ(a.weight, 2.0);
  EXPECT_EQ(a.fps, 15);
  EXPECT_DOUBLE_EQ(a.slo_ms, 90.0);
  ASSERT_TRUE(a.faults.has_value());
  EXPECT_DOUBLE_EQ(a.faults->loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(a.faults->jitter_ms, 1.5);
  ASSERT_EQ(a.faults->dropouts.size(), 1u);
  EXPECT_EQ(a.faults->dropouts[0].camera, 1);
  EXPECT_EQ(a.faults->dropouts[0].from_frame, 10);
  EXPECT_EQ(a.faults->dropouts[0].to_frame, 20);

  const runtime::FleetSessionSpec& b = fleet.sessions[1];
  EXPECT_EQ(b.scenario, "S3");  // per-session override wins
  EXPECT_EQ(b.pipeline.policy, runtime::Policy::kStaticPartition);
  EXPECT_EQ(b.pipeline.horizon_frames, 8);
  // Sessions may carry their own detect-or-track policy block; session "a"
  // without one inherits the document default (fixed).
  EXPECT_EQ(b.pipeline.frame_policy.kind, policy::PolicyKind::kHeuristic);
  EXPECT_EQ(b.pipeline.frame_policy.staleness_limit, 6);
  EXPECT_EQ(a.pipeline.frame_policy.kind, policy::PolicyKind::kFixed);
  EXPECT_EQ(b.fps, 0);
  EXPECT_DOUBLE_EQ(b.slo_ms, -1.0);
  EXPECT_FALSE(b.faults.has_value());
  EXPECT_TRUE(b.synthetic);
  EXPECT_FALSE(a.synthetic);
}

TEST(FleetRunConfig, RejectsBadFleetInput) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"scenario": "S9"}]}})", &error)
                   .has_value());
  EXPECT_NE(error.find("S9"), std::string::npos);
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"weight": 0}]}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"readmit_low_water": 0.9,
                                 "readmit_high_water": 0.5}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"device_scale": [{"delta": 1}]}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"fleet": {"sessions": [{"faults": {"loss_rate": 2}}]}})",
                   &error)
                   .has_value());
  // Unknown keys are hard errors, including keys an older schema had.
  EXPECT_FALSE(
      runtime::parse_run_config(R"({"fleet": {"shards": 2}})", &error)
          .has_value());
  EXPECT_NE(error.find("shards"), std::string::npos);
}

TEST(FleetRunConfig, DumpRoundTrips) {
  runtime::RunConfig config;
  config.scenario = "S1";
  runtime::FleetRunConfig fleet;
  fleet.slo_ms = 95.5;
  fleet.dispatch = runtime::DispatchPolicy::kWeightedPriority;
  fleet.allow_degrade = false;
  fleet.readmit_interval = 4;
  fleet.readmit_low_water = 0.55;
  fleet.readmit_high_water = 0.8;
  fleet.allow_split = true;
  fleet.device_scale.push_back({"xavier", -1});
  runtime::FleetSessionSpec spec;
  spec.name = "cam-east";
  spec.scenario = "S2";
  spec.weight = 3.0;
  spec.fps = 30;
  spec.slo_ms = 70.0;
  spec.pipeline.policy = runtime::Policy::kBalbInd;
  spec.synthetic = true;
  netsim::FaultConfig faults;
  faults.loss_rate = 0.1;
  faults.max_retries = 5;
  spec.faults = faults;
  fleet.sessions.push_back(spec);
  config.fleet = fleet;

  const auto again = runtime::parse_run_config(dump_run_config(config));
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE(again->fleet.has_value());
  EXPECT_DOUBLE_EQ(again->fleet->slo_ms, 95.5);
  EXPECT_EQ(again->fleet->dispatch,
            runtime::DispatchPolicy::kWeightedPriority);
  EXPECT_FALSE(again->fleet->allow_degrade);
  EXPECT_EQ(again->fleet->readmit_interval, 4);
  EXPECT_DOUBLE_EQ(again->fleet->readmit_low_water, 0.55);
  EXPECT_DOUBLE_EQ(again->fleet->readmit_high_water, 0.8);
  EXPECT_TRUE(again->fleet->allow_split);
  ASSERT_EQ(again->fleet->device_scale.size(), 1u);
  EXPECT_EQ(again->fleet->device_scale[0].device_class, "xavier");
  EXPECT_EQ(again->fleet->device_scale[0].delta, -1);
  ASSERT_EQ(again->fleet->sessions.size(), 1u);
  const runtime::FleetSessionSpec& s = again->fleet->sessions[0];
  EXPECT_EQ(s.name, "cam-east");
  EXPECT_EQ(s.scenario, "S2");
  EXPECT_DOUBLE_EQ(s.weight, 3.0);
  EXPECT_EQ(s.fps, 30);
  EXPECT_DOUBLE_EQ(s.slo_ms, 70.0);
  EXPECT_EQ(s.pipeline.policy, runtime::Policy::kBalbInd);
  EXPECT_TRUE(s.synthetic);
  ASSERT_TRUE(s.faults.has_value());
  EXPECT_DOUBLE_EQ(s.faults->loss_rate, 0.1);
  EXPECT_EQ(s.faults->max_retries, 5);
}

TEST(FleetRunConfig, PlainDocumentHasNoFleet) {
  const auto config = runtime::parse_run_config(R"({"scenario": "S1"})");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->fleet.has_value());
  // And a fleet-free config dumps without a fleet block.
  const auto doc = util::Json::parse(dump_run_config(*config));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("fleet"), nullptr);
}

TEST(RtRunConfig, DefaultsAreInert) {
  const auto config = runtime::parse_run_config("{}");
  ASSERT_TRUE(config.has_value());
  EXPECT_FALSE(config->rt.paced);
  EXPECT_DOUBLE_EQ(config->rt.deadline_ms, 100.0);
  EXPECT_EQ(config->rt.late_policy, runtime::LatePolicy::kSupersede);
}

TEST(RtRunConfig, ParseAndRoundTrip) {
  const auto config = runtime::parse_run_config(R"({
    "rt": {"paced": true, "frame_period_ms": 50, "deadline_ms": 80,
           "late_policy": "drop", "arrival_jitter_ms": 4.5,
           "fixed_overhead_ms": 2.0}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->rt.paced);
  EXPECT_DOUBLE_EQ(config->rt.frame_period_ms, 50.0);
  EXPECT_DOUBLE_EQ(config->rt.deadline_ms, 80.0);
  EXPECT_EQ(config->rt.late_policy, runtime::LatePolicy::kDrop);
  EXPECT_DOUBLE_EQ(config->rt.arrival_jitter_ms, 4.5);
  EXPECT_DOUBLE_EQ(config->rt.fixed_overhead_ms, 2.0);

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->rt.paced);
  EXPECT_DOUBLE_EQ(again->rt.frame_period_ms, 50.0);
  EXPECT_DOUBLE_EQ(again->rt.deadline_ms, 80.0);
  EXPECT_EQ(again->rt.late_policy, runtime::LatePolicy::kDrop);
  EXPECT_DOUBLE_EQ(again->rt.arrival_jitter_ms, 4.5);
  EXPECT_DOUBLE_EQ(again->rt.fixed_overhead_ms, 2.0);
}

TEST(RtRunConfig, UnknownKeyAndBadValuesAreHardErrors) {
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"paced": true, "deadline": 80}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown rt key"), std::string::npos);
  EXPECT_NE(error.find("deadline"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"late_policy": "yolo"}})", &error)
                   .has_value());
  EXPECT_NE(error.find("late_policy"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"rt": {"arrival_jitter_ms": -1}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(R"({"rt": 3})", &error).has_value());
}

TEST(RtRunConfig, LatePolicyNames) {
  EXPECT_EQ(runtime::parse_late_policy("drop"), runtime::LatePolicy::kDrop);
  EXPECT_EQ(runtime::parse_late_policy("Supersede"),
            runtime::LatePolicy::kSupersede);
  EXPECT_EQ(runtime::parse_late_policy("finish-late"),
            runtime::LatePolicy::kFinishLate);
  EXPECT_FALSE(runtime::parse_late_policy("never").has_value());
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kDrop), "drop");
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kSupersede),
               "supersede");
  EXPECT_STREQ(runtime::to_string(runtime::LatePolicy::kFinishLate),
               "finish-late");
}

TEST(CityRunConfig, BlockGeneratesScenarioNameAndRoundTrips) {
  const auto config = runtime::parse_run_config(R"({
    "city": {"cameras": 50, "rate_per_s": 0.04, "flash_at_s": 30,
             "day_night": true}
  })");
  ASSERT_TRUE(config.has_value());
  const auto city = sim::parse_city_name(config->scenario);
  ASSERT_TRUE(city.has_value()) << config->scenario;
  EXPECT_EQ(city->cameras, 50);
  EXPECT_DOUBLE_EQ(city->rate_per_s, 0.04);
  EXPECT_DOUBLE_EQ(city->flash_at_s, 30.0);
  EXPECT_TRUE(city->day_night);

  // Dump re-emits a "city" block plus the encoded scenario name; both
  // survive the round trip.
  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->scenario, config->scenario);
}

TEST(CityRunConfig, BareCityScenarioNameIsValid) {
  const auto config = runtime::parse_run_config(R"({"scenario": "city"})");
  ASSERT_TRUE(config.has_value());
  const auto city = sim::parse_city_name(config->scenario);
  ASSERT_TRUE(city.has_value());
  EXPECT_EQ(city->cameras, 50);
}

TEST(CityRunConfig, ConflictsAndUnknownKeysAreHardErrors) {
  std::string error;
  // An explicit non-city scenario alongside a city block is a contradiction.
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"scenario": "S1", "city": {"cameras": 10}})", &error)
                   .has_value());
  EXPECT_NE(error.find("conflicts"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"city": {"camera_count": 10}})", &error)
                   .has_value());
  EXPECT_NE(error.find("unknown city key"), std::string::npos);

  EXPECT_FALSE(runtime::parse_run_config(R"({"city": {"cameras": 0}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"city": {"block_m": -5}})", &error)
                   .has_value());
}

TEST(RunConfig, GateKeysParseAndRoundTrip) {
  const auto config = runtime::parse_run_config(R"({
    "policy": {"correlation_gate": true, "gate_threshold": 0.1,
               "gate_window": 40, "gate_hold": 25}
  })");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->pipeline.frame_policy.correlation_gate);
  EXPECT_DOUBLE_EQ(config->pipeline.frame_policy.gate_threshold, 0.1);
  EXPECT_EQ(config->pipeline.frame_policy.gate_window, 40);
  EXPECT_EQ(config->pipeline.frame_policy.gate_hold, 25);

  const auto again = runtime::parse_run_config(dump_run_config(*config));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->pipeline.frame_policy.correlation_gate);
  EXPECT_DOUBLE_EQ(again->pipeline.frame_policy.gate_threshold, 0.1);
  EXPECT_EQ(again->pipeline.frame_policy.gate_window, 40);
  EXPECT_EQ(again->pipeline.frame_policy.gate_hold, 25);

  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"gate_threshold": 1.5}})", &error)
                   .has_value());
  EXPECT_FALSE(runtime::parse_run_config(
                   R"({"policy": {"gate_window": 0}})", &error)
                   .has_value());
}

// ---- Config schema: strictness, full-document round trip, fuzz ------------

std::string full_config_text() {
  std::ifstream in(MVS_FULL_CONFIG_JSON);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every scalar member of `doc` must differ from the same member of
/// `defaults` (both dumped blocks).
void expect_all_off_default(const Json& doc, const Json& defaults,
                            const std::string& path) {
  ASSERT_TRUE(doc.is_object()) << path;
  for (const auto& [key, value] : defaults.as_object()) {
    if (value.is_object() || value.is_array()) continue;
    const Json* set = doc.find(key);
    ASSERT_NE(set, nullptr) << path << "." << key << " missing";
    EXPECT_NE(set->dump(), value.dump())
        << path << "." << key << " is left at its default";
  }
}

TEST(ConfigSchema, FullDocumentSetsEveryFieldOffDefault) {
  const auto config = runtime::parse_run_config(full_config_text());
  ASSERT_TRUE(config.has_value());
  const auto doc = Json::parse(dump_run_config(*config));
  const auto defaults = Json::parse(dump_run_config(*runtime::parse_run_config(
      R"({"scenario": "city", "fleet": {"sessions": [{"faults": {}}]}})")));
  ASSERT_TRUE(doc && defaults);
  expect_all_off_default(*doc, *defaults, "");
  for (const char* block : {"city", "pipeline", "policy", "rt", "obs", "fleet"})
    expect_all_off_default(*doc->find(block), *defaults->find(block), block);
  const Json& session = doc->find("fleet")->find("sessions")->as_array()[0];
  const Json& default_session =
      defaults->find("fleet")->find("sessions")->as_array()[0];
  expect_all_off_default(session, default_session, "session");
  ASSERT_NE(session.find("faults"), nullptr);
  expect_all_off_default(*session.find("faults"),
                         *default_session.find("faults"), "session.faults");
  EXPECT_FALSE(doc->find("fleet")->find("device_scale")->as_array().empty());
  EXPECT_FALSE(doc->find("pipeline")->find("dropouts")->as_array().empty());
}

TEST(ConfigSchema, FullDocumentRoundTripsByteIdentically) {
  const auto config = runtime::parse_run_config(full_config_text());
  ASSERT_TRUE(config.has_value());
  const std::string once = dump_run_config(*config);
  const auto again = runtime::parse_run_config(once);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(dump_run_config(*again), once);
}

TEST(ConfigSchema, StrictValuesNameTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"pipeline":{"horzion":5}})", "horzion"},
      {R"({"pipeline":{"horizon_frames":1e30}})", "horizon_frames"},
      {R"({"pipeline":{"horizon_frames":2.5}})", "horizon_frames"},
      {R"({"rt":{"deadline_ms":"80"}})", "deadline_ms"},
      {R"({"fleet":{"burn_slow_window":100000}})", "burn_slow_window"},
      {R"({"pipeline":{"seed":9007199254740993}})", "seed"},
      {R"({"frames":-5})", "frames"},
      {R"({"pipeline":{"verbose":1}})", "verbose"},
      {R"({"fleet":{"dispatch":"fifo"}})", "dispatch"},
      {R"({"fleet":{"sessions":[{"pipeline":{"bogus":1}}]}})", "bogus"},
      {R"({"fleet":{"sessions":[{"faults":{"dropouts":[{"from":2}]}}]}})",
       "camera"},
      {R"({"pipeline":{"dropouts":[{"camera":1,"to":-2}]}})", "to"},
      {R"({"obs":{"postmortem_miss_window":4,
                  "postmortem_miss_threshold":5}})",
       "postmortem_miss_threshold"},
      {R"({"fleet":{"burn_raise":1,"burn_clear":2}})", "burn_clear"},
      {R"({"rt":{"deadline_ms":1e400}})", "deadline_ms"},
  };
  for (const auto& [text, key] : cases) {
    std::string error;
    EXPECT_FALSE(runtime::parse_run_config(text, &error).has_value()) << text;
    EXPECT_NE(error.find(key), std::string::npos) << text << " -> " << error;
  }
}

TEST(ConfigSchema, LargeValuesWithoutAnUpperBoundParse) {
  const auto run = runtime::parse_run_config(
      R"({"frames":200000000,"pipeline":{"horizon_frames":1000000,
          "max_retries":5000},"rt":{"deadline_ms":1e30}})");
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->frames, 200000000);
  EXPECT_EQ(run->pipeline.horizon_frames, 1000000);
  EXPECT_EQ(run->pipeline.faults.max_retries, 5000);
  EXPECT_EQ(run->rt.deadline_ms, 1e30);
  runtime::RtConfig rt;
  std::string error;
  EXPECT_FALSE(runtime::set_config_field(&rt, "deadline_ms", "inf",
                                         "--deadline-ms", &error));
  EXPECT_NE(error.find("--deadline-ms"), std::string::npos) << error;
}

TEST(ConfigSchema, CrossFieldChecksWaitForFinalize) {
  // A learned policy without a model fails the cross-field check, but only
  // once finalized: the CLI's --policy-model may still supply the model.
  const char* text = R"({"policy":{"mode":"learned"}})";
  std::string error;
  EXPECT_FALSE(runtime::parse_run_config(text, &error).has_value());
  EXPECT_NE(error.find("policy.mode"), std::string::npos) << error;
  auto run = runtime::parse_run_config_unchecked(text, &error);
  ASSERT_TRUE(run.has_value()) << error;
  EXPECT_FALSE(runtime::finalize_run_config(&*run, &error));
  run->pipeline.frame_policy.model_path = "model.json";
  EXPECT_TRUE(runtime::finalize_run_config(&*run, &error)) << error;
}

TEST(ConfigSchema, TextSettersAreStrict) {
  runtime::PipelineConfig pc;
  std::string error;
  for (const char* bad : {"abc", "", "5x", "nan", "inf", "1e30", "2.5", "0"}) {
    EXPECT_FALSE(runtime::set_config_field(&pc, "horizon_frames", bad,
                                           "--horizon", &error))
        << bad;
    EXPECT_NE(error.find("--horizon"), std::string::npos) << error;
  }
  EXPECT_EQ(pc.horizon_frames, 10);  // untouched by every rejected value
  EXPECT_TRUE(runtime::set_config_field(&pc, "horizon_frames", "12",
                                        "--horizon", &error));
  EXPECT_EQ(pc.horizon_frames, 12);
  EXPECT_TRUE(
      runtime::set_config_field(&pc, "policy", "SP", "--policy", &error));
  EXPECT_EQ(pc.policy, runtime::Policy::kStaticPartition);
  EXPECT_FALSE(
      runtime::set_config_field(&pc, "verbose", "yes", "--verbose", &error));
}

TEST(ConfigSchema, BoolFlagsApplyOnlyWhenPresent) {
  // A config file's "verbose": true survives a command line without
  // --verbose, and flags never reach keys they do not name.
  auto run = runtime::parse_run_config(R"({"pipeline": {"verbose": true}})");
  ASSERT_TRUE(run.has_value());
  std::string section, error;
  ASSERT_TRUE(runtime::apply_schema_flag(&*run, "paired-rng", "", &section,
                                         &error));
  EXPECT_TRUE(run->pipeline.verbose);
  EXPECT_TRUE(run->pipeline.paired_rng);
  ASSERT_TRUE(runtime::apply_schema_flag(&*run, "no-tile-flow", "", &section,
                                         &error));
  EXPECT_FALSE(run->pipeline.tile_flow);
  EXPECT_FALSE(runtime::apply_schema_flag(&*run, "verbose", "false",
                                          &section, &error));
  EXPECT_FALSE(runtime::apply_schema_flag(&*run, "slo-ms", "5", &section,
                                          &error));  // no fleet block
  EXPECT_NE(error.find("--slo-ms"), std::string::npos);
}

TEST(ConfigSchema, FlagNamesAreUnique) {
  std::set<std::string> names;
  for (const runtime::CliFlag& f : runtime::schema_flags()) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
    EXPECT_FALSE(f.help.empty()) << f.name;
  }
}

/// Object keys and array indices from a document's root.
using JsonPath = std::vector<std::string>;

void collect_objects(Json& j, const JsonPath& path,
                     std::vector<std::pair<Json*, JsonPath>>* out) {
  if (j.is_object()) {
    out->emplace_back(&j, path);
    for (auto& [key, value] : j.as_object()) {
      JsonPath next = path;
      next.push_back(key);
      collect_objects(value, next, out);
    }
  } else if (j.is_array()) {
    for (std::size_t i = 0; i < j.as_array().size(); ++i) {
      JsonPath next = path;
      next.push_back(std::to_string(i));
      collect_objects(j.as_array()[i], next, out);
    }
  }
}

const Json* find_path(const Json& j, const JsonPath& path) {
  const Json* at = &j;
  for (const std::string& step : path) {
    if (at->is_array()) {
      const std::size_t i = std::stoul(step);
      if (i >= at->as_array().size()) return nullptr;
      at = &at->as_array()[i];
    } else if (!(at = at->find(step))) {
      return nullptr;
    }
  }
  return at;
}

// Seeded mutations of the full document: drop, rename, or replace a key's
// value (other JSON types, +-1e30, non-integers, negative counts, 2^53 + 1).
// Every mutant either parses into a config whose dump re-parses (so every
// field is in range), re-dumps identically and holds an injected scalar
// unchanged (no silent coercion), or fails with an error that names the
// mutated key. Run under the sanitize preset this also shows that
// no double -> int conversion is undefined.
TEST(ConfigSchema, FuzzedDocumentsParseInRangeOrNameTheKey) {
  const auto base = Json::parse(full_config_text());
  ASSERT_TRUE(base.has_value());
  const Json injected[] = {Json(1e30),  Json(-1e30), Json(2.5),
                           Json(-3),    Json(9007199254740993.0),
                           Json("x"),   Json(true),  Json(Json::Array{}),
                           Json(Json::Object{})};
  std::mt19937_64 rng(20221017);
  int parsed = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    Json doc = *base;
    std::vector<std::pair<Json*, JsonPath>> objects;
    collect_objects(doc, {}, &objects);
    const auto& [target, path] = objects[rng() % objects.size()];
    Json::Object& obj = target->as_object();
    if (obj.empty()) continue;
    const auto it =
        std::next(obj.begin(), static_cast<long>(rng() % obj.size()));
    const std::string key = it->first;
    std::string named = key;
    const Json* kept = nullptr;  // an injected scalar the dump must keep
    switch (rng() % 3) {
      case 0:
        obj.erase(it);
        break;
      case 1: {
        Json value = it->second;
        obj.erase(it);
        named = key + "_x";
        obj[named] = std::move(value);
        break;
      }
      default:
        it->second = injected[rng() % std::size(injected)];
        if (!it->second.is_array() && !it->second.is_object())
          kept = &it->second;
        break;
    }
    std::string error;
    const auto config = runtime::parse_run_config(doc.dump(), &error);
    if (config) {
      ++parsed;
      const std::string dumped = dump_run_config(*config);
      const auto again = runtime::parse_run_config(dumped, &error);
      ASSERT_TRUE(again.has_value()) << doc.dump() << " -> " << error;
      EXPECT_EQ(dump_run_config(*again), dumped);
      if (kept) {
        const auto redumped = Json::parse(dumped);
        const Json* holder = find_path(*redumped, path);
        ASSERT_NE(holder, nullptr) << doc.dump();
        ASSERT_NE(holder->find(key), nullptr) << key;
        EXPECT_EQ(holder->find(key)->dump(), kept->dump())
            << "\"" << key << "\" was coerced";
      }
    } else {
      ++rejected;
      EXPECT_NE(error.find(named), std::string::npos)
          << "mutating \"" << key << "\": " << error;
    }
  }
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace mvs
