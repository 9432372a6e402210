#include "runtime/config.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>

#include "obs/flight_recorder.hpp"
#include "policy/policy.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

namespace mvs::runtime {

namespace {

using util::Json;

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

// ---- Enum names -----------------------------------------------------------
// The transport and frame-policy lists live next to their enums (net/,
// policy/); these enums are declared in runtime/.

using util::enum_choices;
using util::enum_name;
using util::enum_value;
using util::EnumName;

template <class E>
constexpr EnumName en(const char* name, E value) {
  return util::enum_entry(name, value);
}

constexpr EnumName kPolicyNames[] = {
    en("full", Policy::kFull), en("balb-ind", Policy::kBalbInd),
    en("balb-cen", Policy::kBalbCen), en("balb", Policy::kBalb),
    en("sp", Policy::kStaticPartition), en("balbind", Policy::kBalbInd),
    en("ind", Policy::kBalbInd), en("balbcen", Policy::kBalbCen),
    en("cen", Policy::kBalbCen), en("static", Policy::kStaticPartition),
    en("static-partition", Policy::kStaticPartition)};
constexpr EnumName kLatePolicyNames[] = {
    en("drop", LatePolicy::kDrop), en("supersede", LatePolicy::kSupersede),
    en("finish-late", LatePolicy::kFinishLate),
    en("finishlate", LatePolicy::kFinishLate),
    en("late", LatePolicy::kFinishLate)};
constexpr EnumName kDispatchNames[] = {
    en("round-robin", DispatchPolicy::kRoundRobin),
    en("weighted", DispatchPolicy::kWeightedPriority),
    en("rr", DispatchPolicy::kRoundRobin),
    en("weighted-priority", DispatchPolicy::kWeightedPriority)};

// ---- Field tables ---------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Largest integer a JSON number (a double) holds exactly: 2^53 - 1.
constexpr double kMaxExact = 9007199254740991.0;

/// Inclusive bounds unless an end is marked open. Numbers must also be
/// finite, and int fields are further held to their member type and to
/// +-kMaxExact, so most fields need only a lower bound.
struct Range {
  double lo = -kInf, hi = kInf;
  bool lo_open = false, hi_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  std::string str() const {
    std::string out(lo_open || std::isinf(lo) ? "(" : "[");
    const auto end = [&out](double x) {
      if (std::isinf(x))
        out += x < 0 ? "-inf" : "inf";
      else
        out += Json(x).dump();
    };
    end(lo);
    out += ", ";
    end(hi);
    out += hi_open || std::isinf(hi) ? ")" : "]";
    return out;
  }
};

constexpr Range closed(double lo, double hi) { return {lo, hi, false, false}; }
constexpr Range at_least(double lo) { return {lo, kInf, false, false}; }
constexpr Range above(double lo, double hi = kInf) {
  return {lo, hi, true, false};
}
constexpr Range below(double lo, double hi) { return {lo, hi, false, true}; }
constexpr Range kUnit = closed(0.0, 1.0);

template <class T>
using Member =
    std::variant<int T::*, long T::*, std::uint64_t T::*, double T::*,
                 bool T::*, std::string T::*, Policy T::*,
                 policy::PolicyKind T::*, net::TransportKind T::*,
                 LatePolicy T::*, DispatchPolicy T::*>;

/// One config knob: JSON key, bound member, range (numbers) or names
/// (enums), and the CLI flag, value placeholder and help when the knob has
/// a flag. A bool flag sets the field to true.
template <class T>
struct Field {
  const char* key;
  Member<T> member;
  Range range = {};
  std::span<const EnumName> names = {};
  const char* flag = nullptr;
  const char* arg = nullptr;
  const char* help = nullptr;
};

template <class T>
struct Table {
  const char* what;     ///< block name in "unknown <what> key" errors
  const char* section;  ///< --help section of the block's flags
  std::span<const Field<T>> fields;
};

template <class T>
Table<T> table();

template <> Table<RunConfig> table() {
  using C = RunConfig;
  static const Field<C> f[] = {
      {"scenario", &C::scenario, {}, {}, "scenario", "NAME",
       "S1, S2, S3 or an encoded city name (also positional)"},
      {"frames", &C::frames, at_least(1), {}, "frames", "N",
       "evaluation frames (fleet: base frame periods)"},
  };
  return {"top-level", kCliSections[0], f};
}

template <> Table<PipelineConfig> table() {
  using C = PipelineConfig;
  static const Field<C> f[] = {
      {"policy", &C::policy, {}, kPolicyNames, "policy", nullptr,
       "scheduling policy"},
      {"horizon_frames", &C::horizon_frames, at_least(1), {}, "horizon",
       "T", "frames per scheduling horizon"},
      {"training_frames", &C::training_frames, at_least(0)},
      {"mask_cell_px", &C::mask_cell_px, at_least(1)},
      {"recall_iou", &C::recall_iou, kUnit},
      {"seed", &C::seed, at_least(0), {}, "seed", "S",
       "RNG seed (fleet session k uses seed + k)"},
      {"verbose", &C::verbose, {}, {}, "verbose", nullptr,
       "per-frame progress logging"},
      {"threads", &C::threads, at_least(0)},
      {"tight_masks", &C::tight_masks},
      {"paired_rng", &C::paired_rng, {}, {}, "paired-rng", nullptr,
       "re-seed each camera's RNG per frame (policy A/B studies)"},
      {"transport", &C::transport, {}, net::kTransportNames, "transport",
       nullptr, "link model; a network-simulation flag alone implies lossy"},
  };
  return {"pipeline", kCliSections[0], f};
}

template <> Table<netsim::FaultConfig> table() {
  using C = netsim::FaultConfig;
  static const Field<C> f[] = {
      {"loss_rate", &C::loss_rate, below(0, 1), {}, "loss-rate", "P",
       "per-attempt message loss probability"},
      {"jitter_ms", &C::jitter_ms, at_least(0), {}, "jitter-ms", "J",
       "mean exponential per-message jitter (ms)"},
      {"retry_timeout_ms", &C::retry_timeout_ms, above(0), {},
       "retry-timeout-ms", "T", "sender retransmit timeout (ms)"},
      {"max_retries", &C::max_retries, at_least(0), {}, "max-retries",
       "R", "retransmissions per message"},
  };
  return {"faults", kCliSections[6], f};
}

template <> Table<netsim::DropoutWindow> table() {
  using C = netsim::DropoutWindow;
  static const Field<C> f[] = {
      {"camera", &C::camera, at_least(0)},
      {"from", &C::from_frame, at_least(0)},
      {"to", &C::to_frame, at_least(-1)},
  };
  return {"dropout", kCliSections[6], f};
}

template <> Table<policy::PolicyConfig> table() {
  using C = policy::PolicyConfig;
  static const Field<C> f[] = {
      {"mode", &C::kind, {}, policy::kPolicyKindNames, "frame-policy",
       nullptr,
       "per-camera detect-or-track decision (fixed = detect every frame)"},
      {"staleness_limit", &C::staleness_limit, at_least(0), {},
       "policy-staleness", "N", "force a detect after N frames without one"},
      {"min_track_frames", &C::min_track_frames, at_least(0)},
      {"drift_px", &C::drift_px, above(0), {}, "policy-drift-px", "X",
       "heuristic trigger: accumulated track drift (px)"},
      {"conf_floor", &C::conf_floor, kUnit},
      {"motion_frac", &C::motion_frac, kUnit},
      {"churn_hi", &C::churn_hi, at_least(0)},
      {"hysteresis", &C::hysteresis, kUnit},
      {"model", &C::model_path, {}, {}, "policy-model", "FILE",
       "learned-policy model JSON; implies --frame-policy learned"},
      {"model_json", &C::model_json},
      {"threshold", &C::threshold, below(0, 1), {}, "policy-threshold", "X",
       "learned decision threshold override (0 = the model's)"},
      {"expected_detect_ratio", &C::expected_detect_ratio, above(0, 1)},
      {"feature_trace", &C::feature_trace, {}, {}, "policy-feature-trace",
       "FILE", "record policy features + labels as JSONL for policy_train"},
      {"correlation_gate", &C::correlation_gate, {}, {}, "correlation-gate",
       nullptr, "skip detection on cameras no tracked object can reach"},
      {"gate_threshold", &C::gate_threshold, kUnit},
      {"gate_window", &C::gate_window, at_least(1)},
      {"gate_hold", &C::gate_hold, at_least(0), {}, "gate-hold", "N",
       "frames a camera stays hot after its trigger goes away"},
  };
  return {"policy", kCliSections[1], f};
}

template <> Table<RtConfig> table() {
  using C = RtConfig;
  static const Field<C> f[] = {
      {"paced", &C::paced, {}, {}, "paced", nullptr,
       "virtual wall clock + deadlines (implied by this section's flags)"},
      {"frame_period_ms", &C::frame_period_ms, {}, {}, "frame-period-ms", "X",
       "arrival period (<= 0: the scenario's fps)"},
      {"deadline_ms", &C::deadline_ms, {}, {}, "deadline-ms", "X",
       "per-frame budget past capture (<= 0: infinite)"},
      {"late_policy", &C::late_policy, {}, kLatePolicyNames, "late-policy",
       nullptr, "fate of a frame already past its budget"},
      {"arrival_jitter_ms", &C::arrival_jitter_ms, at_least(0), {},
       "arrival-jitter-ms", "X", "mean exponential per-camera capture jitter"},
      {"fixed_overhead_ms", &C::fixed_overhead_ms, at_least(0), {},
       "rt-overhead-ms", "X", "fixed per-frame service overhead"},
      {"miss_budget", &C::miss_budget, kUnit},
  };
  return {"rt", kCliSections[3], f};
}

template <> Table<sim::CityConfig> table() {
  using C = sim::CityConfig;
  static const Field<C> f[] = {
      {"cameras", &C::cameras, closed(1, 1000)},
      {"block_m", &C::block_m, above(0)},
      {"rate_per_s", &C::rate_per_s, at_least(0)},
      {"camera_depth_m", &C::camera_depth_m, above(0)},
      {"flash_at_s", &C::flash_at_s},
      {"flash_duration_s", &C::flash_duration_s, above(0)},
      {"flash_multiplier", &C::flash_multiplier, above(0)},
      {"day_night", &C::day_night},
      {"night_period_s", &C::night_period_s, above(0)},
      {"night_miss_boost", &C::night_miss_boost, kUnit},
  };
  return {"city", kCliSections[4], f};
}

template <> Table<ObsConfig> table() {
  using C = ObsConfig;
  constexpr double kWindow = obs::FlightRecorder::kMissWindowMax;
  static const Field<C> f[] = {
      {"enabled", &C::enabled},
      {"chrome_trace", &C::chrome_trace, {}, {}, "chrome-trace", "FILE",
       "write a Chrome trace of the spans; implies instrumentation"},
      {"metrics_json", &C::metrics_json, {}, {}, "metrics-json", "FILE",
       "write the metrics snapshot; implies instrumentation, --attribution"},
      {"attribution", &C::attribution, {}, {}, "attribution", nullptr,
       "critical-path latency attribution per frame"},
      {"postmortem_dir", &C::postmortem_dir, {}, {}, "postmortem-dir", "DIR",
       "write deadline-miss postmortems here; implies --attribution"},
      {"postmortem_miss_window", &C::postmortem_miss_window,
       closed(1, kWindow)},
      {"postmortem_miss_threshold", &C::postmortem_miss_threshold,
       closed(0, kWindow)},
  };
  return {"obs", kCliSections[5], f};
}

template <> Table<FleetConfig> table() {
  using C = FleetConfig;
  static const Field<C> f[] = {
      {"slo_ms", &C::slo_ms, at_least(0), {}, "slo-ms", "X",
       "per-tick GPU latency SLO for admission and deferral (0 = off)"},
      {"frame_period_ms", &C::frame_period_ms, above(0)},
      {"dispatch", &C::dispatch, {}, kDispatchNames, "dispatch", nullptr,
       "dispatch order under SLO pressure"},
      {"threads", &C::threads, at_least(0)},
      {"allow_degrade", &C::allow_degrade},
      {"assumed_tasks_per_camera", &C::assumed_tasks_per_camera, at_least(0)},
      {"readmit_interval", &C::readmit_interval, at_least(0), {},
       "readmit-interval", "N", "ticks between re-admission scans (0 = off)"},
      {"readmit_low_water", &C::readmit_low_water, at_least(0)},
      {"readmit_high_water", &C::readmit_high_water, at_least(0)},
      {"allow_split", &C::allow_split, {}, {}, "split-batches", nullptr,
       "let the arbiter split an over-full batch across two ticks"},
      {"dispatch_overhead_ms", &C::dispatch_overhead_ms, at_least(0), {},
       "dispatch-overhead-ms", "X", "fixed per-batch dispatch cost (ms)"},
      {"burn_error_budget", &C::burn_error_budget, kUnit},
      {"burn_fast_window", &C::burn_fast_window, closed(1, kMaxBurnWindow)},
      {"burn_slow_window", &C::burn_slow_window, closed(1, kMaxBurnWindow)},
      {"burn_raise", &C::burn_raise, above(0)},
      {"burn_clear", &C::burn_clear, above(0)},
      {"burn_degrade", &C::burn_degrade},
  };
  return {"fleet", kCliSections[2], f};
}

template <> Table<FleetSessionSpec> table() {
  using C = FleetSessionSpec;
  static const Field<C> f[] = {
      {"name", &C::name},
      {"scenario", &C::scenario},
      {"weight", &C::weight, above(0)},
      {"fps", &C::fps, at_least(0)},
      {"slo_ms", &C::slo_ms},
      {"synthetic", &C::synthetic},
  };
  return {"session", kCliSections[2], f};
}

template <> Table<FleetDeviceScale> table() {
  using C = FleetDeviceScale;
  static const Field<C> f[] = {
      {"class", &C::device_class},
      {"delta", &C::delta, {}},
  };
  return {"device_scale", kCliSections[2], f};
}

// ---- The engine -----------------------------------------------------------

template <class T>
const Field<T>* find_field(const std::string& name, bool by_flag = false) {
  for (const Field<T>& f : table<T>().fields)
    if (by_flag ? f.flag && name == f.flag : name == f.key) return &f;
  return nullptr;
}

/// Strict conversion of `v` into the field: the JSON type must match, an
/// int must be integral and fit its member type, a number must sit inside
/// the field's range, an enum must name a value. `label` names the value in
/// *error.
template <class T>
bool read_field(const Field<T>& f, const Json& v, T* obj,
                const std::string& label, std::string* error) {
  return std::visit(
      [&](auto member) {
        using M = std::remove_reference_t<decltype(obj->*member)>;
        const auto wrong = [&](const std::string& expected) {
          return fail(error,
                      label + ": expected " + expected + ", got " + v.dump());
        };
        if constexpr (std::is_same_v<M, bool>) {
          if (!v.is_bool()) return wrong("true or false");
          obj->*member = v.as_bool();
        } else if constexpr (std::is_same_v<M, std::string>) {
          if (!v.is_string()) return wrong("a string");
          obj->*member = v.as_string();
        } else if constexpr (std::is_enum_v<M>) {
          const auto value =
              v.is_string() ? enum_value<M>(f.names, v.as_string())
                            : std::nullopt;
          if (!value) return wrong(enum_choices(f.names));
          obj->*member = *value;
        } else {
          if (!v.is_number()) return wrong("a number");
          const double x = v.as_number();
          if (!std::isfinite(x)) return wrong("a finite number");
          Range range = f.range;
          if constexpr (std::is_integral_v<M>) {
            if (!(x == std::floor(x))) return wrong("an integer");
            using Limits = std::numeric_limits<M>;
            range.lo = std::max({range.lo, -kMaxExact, double(Limits::min())});
            range.hi = std::min({range.hi, kMaxExact, double(Limits::max())});
          }
          if (!range.contains(x))
            return fail(error, label + ": " + v.dump() + " out of range " +
                                   range.str());
          obj->*member = static_cast<M>(x);
        }
        return true;
      },
      f.member);
}

// GCC 12 inlines the visit into callers with a local block and then warns
// that the alternatives the block does not have read uninitialized memory.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
template <class T>
Json write_field(const Field<T>& f, const T& obj) {
  return std::visit(
      [&](auto member) -> Json {
        using M = std::remove_cvref_t<decltype(obj.*member)>;
        if constexpr (std::is_same_v<M, bool> || std::is_same_v<M, std::string>)
          return Json(obj.*member);
        else if constexpr (std::is_enum_v<M>)
          return Json(enum_name(f.names, static_cast<int>(obj.*member)));
        else
          return Json(static_cast<double>(obj.*member));
      },
      f.member);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Command-line text to the JSON value read_field expects: numbers must be
/// fully consumed by strtod, bools are "true"/"false"; anything else stays a
/// string so read_field reports it.
template <class T>
Json text_value(const Field<T>& f, const std::string& text) {
  if (std::holds_alternative<bool T::*>(f.member))
    return text == "true" || text == "false" ? Json(text == "true")
                                             : Json(text);
  if (std::holds_alternative<std::string T::*>(f.member) || !f.names.empty())
    return Json(text);
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() ? Json(x)
                                                            : Json(text);
}

std::string join_key(const std::string& path, const std::string& key) {
  return path.empty() ? key : path + "." + key;
}

using KeyFilter = std::function<bool(const std::string&)>;

KeyFilter keys(std::initializer_list<const char*> names) {
  return [list = std::vector<std::string>(names.begin(), names.end())](
             const std::string& key) {
    return std::find(list.begin(), list.end(), key) != list.end();
  };
}

/// Read every key of object `j` into `obj` through T's table. Keys the
/// table does not know are an error unless `nested` claims them (sub-blocks
/// the caller parses itself).
template <class T>
bool parse_block(const Json& j, const std::string& path, T* obj,
                 std::string* error, const KeyFilter& nested = nullptr) {
  if (!j.is_object()) return fail(error, "\"" + path + "\" must be an object");
  for (const auto& [key, value] : j.as_object()) {
    if (const Field<T>* f = find_field<T>(key)) {
      if (!read_field(*f, value, obj, join_key(path, key), error)) return false;
    } else if (!nested || !nested(key)) {
      return fail(error, std::string("unknown ") + table<T>().what +
                             " key: \"" + join_key(path, key) + "\"");
    }
  }
  return true;
}

template <class T>
Json::Object dump_block(const T& obj) {
  Json::Object out;
  for (const Field<T>& f : table<T>().fields) out[f.key] = write_field(f, obj);
  return out;
}

// ---- Block parsers and dumpers --------------------------------------------

/// Parse the array `key` of `parent` into `out` (replacing it), one entry
/// at a time through `parse_entry`.
template <class T>
using EntryParser = std::function<bool(const Json&, const std::string&, T*)>;

template <class T>
bool parse_list(const Json& parent, const char* key, const std::string& path,
                std::vector<T>* out, std::string* error,
                const EntryParser<T>& parse_entry) {
  const Json* list = parent.find(key);
  if (!list) return true;
  const std::string list_path = join_key(path, key);
  if (!list->is_array())
    return fail(error, "\"" + list_path + "\" must be an array");
  out->assign(list->as_array().size(), T{});
  for (std::size_t i = 0; i < out->size(); ++i)
    if (!parse_entry(list->as_array()[i],
                     list_path + "[" + std::to_string(i) + "]", &(*out)[i]))
      return false;
  return true;
}

/// A fault object: the FaultConfig table plus a "dropouts" list.
bool parse_faults(const Json& j, const std::string& path,
                  netsim::FaultConfig* faults, std::string* error,
                  const KeyFilter& nested) {
  if (!parse_block(j, path, faults, error, [&](const std::string& key) {
        return key == "dropouts" || (nested && nested(key));
      }))
    return false;
  return parse_list<netsim::DropoutWindow>(
      j, "dropouts", path, &faults->dropouts, error,
      [&](const Json& e, const std::string& p, netsim::DropoutWindow* w) {
        return parse_block(e, p, w, error) &&
               (e.find("camera") || fail(error, p + ": missing \"camera\""));
      });
}

/// A "pipeline" object: the PipelineConfig table with the fault keys
/// flattened into it.
bool parse_pipeline(const Json& j, const std::string& path,
                    PipelineConfig* pc, std::string* error) {
  return parse_block(j, path, pc, error,
                     [](const std::string& key) {
                       return key == "dropouts" ||
                              find_field<netsim::FaultConfig>(key);
                     }) &&
         parse_faults(j, path, &pc->faults, error, [](const std::string& key) {
           return find_field<PipelineConfig>(key) != nullptr;
         });
}

bool parse_fleet(const Json& j, const RunConfig& base, FleetRunConfig* fleet,
                 std::string* error) {
  if (!parse_block<FleetConfig>(j, "fleet", fleet, error,
                                keys({"device_scale", "sessions"})))
    return false;
  if (!parse_list<FleetDeviceScale>(
          j, "device_scale", "fleet", &fleet->device_scale, error,
          [&](const Json& e, const std::string& p, FleetDeviceScale* ds) {
            return parse_block(e, p, ds, error);
          }))
    return false;
  return parse_list<FleetSessionSpec>(
      j, "sessions", "fleet", &fleet->sessions, error,
      [&](const Json& e, const std::string& p, FleetSessionSpec* spec) {
        // Sessions inherit the document's scenario and pipeline.
        spec->scenario = base.scenario;
        spec->pipeline = base.pipeline;
        if (!parse_block(e, p, spec, error,
                         keys({"pipeline", "policy", "faults"})))
          return false;
        const Json* pj = e.find("pipeline");
        if (pj && !parse_pipeline(*pj, p + ".pipeline", &spec->pipeline, error))
          return false;
        const Json* pol = e.find("policy");
        if (pol && !parse_block(*pol, p + ".policy",
                                &spec->pipeline.frame_policy, error))
          return false;
        const Json* fj = e.find("faults");
        if (!fj) return true;
        spec->faults.emplace();
        return parse_faults(*fj, p + ".faults", &*spec->faults, error, nullptr);
      });
}

Json dump_faults(const netsim::FaultConfig& faults, Json::Object out = {}) {
  out.merge(dump_block(faults));
  Json::Array dropouts;
  for (const netsim::DropoutWindow& w : faults.dropouts)
    dropouts.push_back(Json(dump_block(w)));
  out["dropouts"] = Json(std::move(dropouts));
  return Json(std::move(out));
}

Json dump_pipeline(const PipelineConfig& pc) {
  return dump_faults(pc.faults, dump_block(pc));
}

Json dump_fleet(const FleetRunConfig& fleet) {
  Json::Object f = dump_block<FleetConfig>(fleet);
  Json::Array scale, sessions;
  for (const FleetDeviceScale& ds : fleet.device_scale)
    scale.push_back(Json(dump_block(ds)));
  for (const FleetSessionSpec& spec : fleet.sessions) {
    Json::Object s = dump_block(spec);
    s["pipeline"] = dump_pipeline(spec.pipeline);
    s["policy"] = Json(dump_block(spec.pipeline.frame_policy));
    if (spec.faults) s["faults"] = dump_faults(*spec.faults);
    sessions.push_back(Json(std::move(s)));
  }
  f["device_scale"] = Json(std::move(scale));
  f["sessions"] = Json(std::move(sessions));
  return Json(std::move(f));
}

// ---- Cross-field checks ---------------------------------------------------

bool valid_scenario(const std::string& name) {
  return name == "S1" || name == "S2" || name == "S3" ||
         sim::parse_city_name(name).has_value();
}

bool check_policy(const policy::PolicyConfig& pc, const std::string& path,
                  std::string* error) {
  if (pc.staleness_limit > 0 && pc.min_track_frames >= pc.staleness_limit)
    return fail(error, path + ".min_track_frames: must be < staleness_limit");
  if (pc.kind == policy::PolicyKind::kLearned && pc.model_path.empty() &&
      pc.model_json.empty())
    return fail(error, path + ".mode: learned needs \"model\" or "
                              "\"model_json\" (--policy-model FILE)");
  return true;
}

bool check_fleet(const FleetRunConfig& f, std::string* error) {
  if (f.readmit_low_water > f.readmit_high_water)
    return fail(error,
                "fleet.readmit_low_water: must be <= readmit_high_water");
  if (f.burn_fast_window > f.burn_slow_window)
    return fail(error, "fleet.burn_fast_window: must be <= burn_slow_window");
  if (f.burn_clear > f.burn_raise)
    return fail(error, "fleet.burn_clear: must be <= burn_raise");
  for (std::size_t i = 0; i < f.device_scale.size(); ++i)
    if (f.device_scale[i].device_class.empty())
      return fail(error, "fleet.device_scale[" + std::to_string(i) +
                             "].class: missing device class");
  for (std::size_t i = 0; i < f.sessions.size(); ++i) {
    const FleetSessionSpec& s = f.sessions[i];
    const std::string path = "fleet.sessions[" + std::to_string(i) + "]";
    if (!valid_scenario(s.scenario))
      return fail(error, path + ".scenario: unknown scenario: " + s.scenario);
    if (!check_policy(s.pipeline.frame_policy, path + ".policy", error))
      return false;
  }
  return true;
}

/// The blocks that own CLI flags, pointing into `run` (the fleet block is
/// null outside fleet mode).
std::array<ConfigBlock, 7> flag_blocks(RunConfig* run) {
  return {run, &run->pipeline, &run->pipeline.frame_policy, &run->rt,
          &run->obs, &run->pipeline.faults,
          run->fleet ? &*run->fleet : static_cast<FleetConfig*>(nullptr)};
}

}  // namespace

// ---- Public API -----------------------------------------------------------

std::optional<Policy> parse_policy(std::string name) {
  return enum_value<Policy>(kPolicyNames, std::move(name));
}

const char* to_string(LatePolicy policy) {
  return enum_name(kLatePolicyNames, static_cast<int>(policy));
}

std::optional<DispatchPolicy> parse_dispatch(std::string name) {
  return enum_value<DispatchPolicy>(kDispatchNames, std::move(name));
}

const char* to_string(DispatchPolicy policy) {
  return enum_name(kDispatchNames, static_cast<int>(policy));
}

bool finalize_run_config(RunConfig* config, std::string* error) {
  if (!valid_scenario(config->scenario))
    return fail(error, "unknown scenario: " + config->scenario);
  // One spelling per city (the bare name "city" included), so a dumped
  // config re-parses to the same document.
  if (const auto city = sim::parse_city_name(config->scenario))
    config->scenario = sim::city_scenario_name(*city);
  if (!check_policy(config->pipeline.frame_policy, "policy", error))
    return false;
  ObsConfig& obs = config->obs;
  if (obs.postmortem_miss_threshold > obs.postmortem_miss_window)
    return fail(error, "obs.postmortem_miss_threshold: must be <= "
                       "postmortem_miss_window");
  // A metrics export carries the attribution block; a postmortem dir needs
  // frames in the recorder — both imply attribution.
  if (!obs.metrics_json.empty() || !obs.postmortem_dir.empty())
    obs.attribution = true;
  return !config->fleet || check_fleet(*config->fleet, error);
}

std::optional<RunConfig> parse_run_config_unchecked(
    const std::string& json_text, std::string* error) {
  const auto doc = Json::parse(json_text, error);
  if (!doc) return std::nullopt;
  RunConfig config;
  const auto parse = [&]() -> bool {
    if (!doc->is_object()) return fail(error, "config root must be an object");
    if (!parse_block(
            *doc, "", &config, error,
            keys({"pipeline", "policy", "rt", "city", "obs", "fleet"})))
      return false;
    if (const Json* c = doc->find("city")) {
      // A "city" block generates the scenario; an explicit non-city
      // scenario name alongside it is a contradiction, not a tiebreak.
      const std::string declared =
          doc->find("scenario") ? config.scenario : "city";
      if (declared.rfind("city", 0) != 0)
        return fail(error,
                    "\"city\" block conflicts with scenario: " + declared);
      sim::CityConfig city =
          sim::parse_city_name(declared).value_or(sim::CityConfig{});
      if (!parse_block(*c, "city", &city, error)) return false;
      config.scenario = sim::city_scenario_name(city);
    }
    const Json* p = doc->find("pipeline");
    if (p && !parse_pipeline(*p, "pipeline", &config.pipeline, error))
      return false;
    // Detect-or-track layer ("pipeline.policy" already names the scheduling
    // policy, so the frame policy is its own top-level block).
    p = doc->find("policy");
    if (p && !parse_block(*p, "policy", &config.pipeline.frame_policy, error))
      return false;
    p = doc->find("obs");
    if (p && !parse_block(*p, "obs", &config.obs, error)) return false;
    p = doc->find("rt");
    if (p && !parse_block(*p, "rt", &config.rt, error)) return false;
    if ((p = doc->find("fleet"))) {
      config.fleet.emplace();
      if (!parse_fleet(*p, config, &*config.fleet, error)) return false;
    }
    return true;
  };
  if (!parse()) return std::nullopt;
  return config;
}

std::optional<RunConfig> parse_run_config(const std::string& json_text,
                                          std::string* error) {
  auto config = parse_run_config_unchecked(json_text, error);
  if (config && !finalize_run_config(&*config, error)) return std::nullopt;
  return config;
}

std::string dump_run_config(const RunConfig& config) {
  Json::Object root = dump_block(config);
  if (const auto city = sim::parse_city_name(config.scenario))
    root["city"] = Json(dump_block(*city));
  root["pipeline"] = dump_pipeline(config.pipeline);
  root["policy"] = Json(dump_block(config.pipeline.frame_policy));
  root["rt"] = Json(dump_block(config.rt));
  root["obs"] = Json(dump_block(config.obs));
  if (config.fleet) root["fleet"] = dump_fleet(*config.fleet);
  return Json(std::move(root)).dump();
}

bool set_config_field(ConfigBlock block, const std::string& key,
                      const std::string& text, const std::string& label,
                      std::string* error) {
  return std::visit(
      [&](auto* obj) {
        using T = std::remove_pointer_t<decltype(obj)>;
        const Field<T>* f = find_field<T>(key);
        if (!f) return fail(error, label + ": no config key \"" + key + "\"");
        return read_field(*f, text_value(*f, text), obj, label, error);
      },
      block);
}

const std::vector<CliFlag>& schema_flags() {
  static const std::vector<CliFlag> flags = [] {
    std::vector<CliFlag> out;
    RunConfig defaults;
    defaults.fleet.emplace();
    for (const ConfigBlock& block : flag_blocks(&defaults)) {
      std::visit(
          [&](auto* obj) {
            using T = std::remove_pointer_t<decltype(obj)>;
            for (const Field<T>& f : table<T>().fields) {
              if (!f.flag) continue;
              CliFlag& flag = out.emplace_back(
                  CliFlag{f.flag, "", f.help, table<T>().section});
              if (std::holds_alternative<bool T::*>(f.member)) continue;
              flag.arg = f.arg ? f.arg : enum_choices(f.names);
              const Json def = write_field(f, *obj);
              const std::string shown =
                  def.is_string() ? def.as_string() : def.dump();
              if (!shown.empty()) flag.help += " (default " + shown + ")";
            }
          },
          block);
    }
    return out;
  }();
  return flags;
}

bool apply_schema_flag(RunConfig* run, const std::string& name,
                       const std::string& value, std::string* section,
                       std::string* error) {
  const std::string label = "--" + name;
  for (const ConfigBlock& block : flag_blocks(run)) {
    const std::optional<bool> applied = std::visit(
        [&](auto* obj) -> std::optional<bool> {
          using T = std::remove_pointer_t<decltype(obj)>;
          const Field<T>* f = find_field<T>(name, /*by_flag=*/true);
          if (!f) return std::nullopt;
          if (section) *section = table<T>().section;
          if (!obj)
            return fail(error, label + " needs fleet mode (--fleet or a "
                                       "config \"fleet\" block)");
          if (!std::holds_alternative<bool T::*>(f->member))
            return read_field(*f, text_value(*f, value), obj, label, error);
          if (!value.empty()) return fail(error, label + " takes no value");
          return read_field(*f, Json(true), obj, label, error);
        },
        block);
    if (applied) return *applied;
  }
  return fail(error, "unknown flag " + label);
}

}  // namespace mvs::runtime
