#pragma once
// JSON run configuration for the pipeline and the fleet — what a deployment
// would ship in /etc: scenario, policy, horizon, seeds, and (optionally) a
// whole multi-session fleet. Round-trips through util::Json.
//
// tests/data/full_config.json is an example document that sets every key.
//
// Session entries inherit the document's top-level scenario and pipeline
// unless they override them; a session "faults" object builds a per-session
// netsim::FaultConfig and implies the lossy transport (the self-contained
// session API — prefer it over reaching into pipeline.faults).

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "runtime/pipeline.hpp"

namespace mvs::sim {
struct CityConfig;
}  // namespace mvs::sim

namespace mvs::runtime {

/// Self-contained per-session serving spec. mvs::fleet aliases this as
/// fleet::SessionSpec; everything a hosted session needs lives here —
/// deployment, QoS declaration (fps + SLO override), dispatch weight, and
/// an optional private transport fault profile.
struct FleetSessionSpec {
  std::string name;
  std::string scenario = "S2";
  PipelineConfig pipeline;
  /// Weighted-priority dispatch share; higher = deferred later, and batch
  /// splits shed lower-weight tasks first.
  double weight = 1.0;
  /// Native frame rate (fps). 0 = the fleet's base rate
  /// (1000 / frame_period_ms). Rates that do not divide the current tick
  /// wheel grow it to the least common multiple.
  int fps = 0;
  /// Per-session latency SLO override (ms) for violation accounting;
  /// < 0 = the fleet-wide SLO.
  double slo_ms = -1.0;
  /// Per-session transport fault profile. When set it replaces
  /// pipeline.faults and, unless fault-free, implies the lossy transport.
  /// Preferred over mutating pipeline.faults directly (deprecated for
  /// hosted sessions).
  std::optional<netsim::FaultConfig> faults;
  /// Serve a deterministic synthetic GPU-load generator instead of a real
  /// pipeline: the session submits seeded partial-frame task multisets on
  /// the scenario's device classes but runs no vision stack (no scenario
  /// playback, no association training). This is what makes 1k-10k-session
  /// fleets constructible; scheduling, batching, and attribution behave
  /// exactly as for real sessions (see fleet::SyntheticSource).
  bool synthetic = false;
};

/// Runtime device-pool adjustment applied after admission
/// (Fleet::scale_devices).
struct FleetDeviceScale {
  std::string device_class;
  int delta = 0;
};

/// Dispatch order under SLO pressure (the "fleet.dispatch" key).
/// mvs::fleet aliases this as fleet::DispatchPolicy.
enum class DispatchPolicy {
  kRoundRobin,        ///< rotate deferral burden fairly across sessions
  kWeightedPriority,  ///< defer lowest-weight sessions first under pressure
};

const char* to_string(DispatchPolicy policy);
/// Parse "rr" | "round-robin" | "weighted", case-insensitive.
std::optional<DispatchPolicy> parse_dispatch(std::string name);

/// Fleet-wide serving knobs. mvs::fleet aliases this as fleet::FleetConfig;
/// the config file's "fleet" block is this plus the device_scale and
/// sessions lists (FleetRunConfig).
struct FleetConfig {
  /// Per-tick GPU latency deadline (ms). 0 disables admission control
  /// and dispatch deferral: every session is admitted and runs every tick.
  double slo_ms = 0.0;
  /// Base tick length; the paper's scenarios stream at 10 fps. Sessions
  /// with a different native fps grow the wheel (see wheel_hz()).
  double frame_period_ms = 100.0;
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
  /// Shared worker pool width (0 = hardware concurrency). All sessions'
  /// per-camera parallelism runs on this one pool.
  int threads = 0;
  /// Allow the admission controller to degrade instead of rejecting.
  bool allow_degrade = true;
  /// Admission estimator: assumed steady-state partial-frame tasks per
  /// camera per regular frame (coarse planning constant; see DESIGN.md §8).
  double assumed_tasks_per_camera = 4.0;
  /// Ticks between re-admission scans (reverse degrade ladder); 0 keeps
  /// degradation sticky for a session's lifetime.
  int readmit_interval = 10;
  /// Hysteresis band as fractions of the SLO: a scan only restores when
  /// the windowed mean busy sits below low water AND the projection after
  /// restoring stays below high water (prevents admit/degrade oscillation).
  double readmit_low_water = 0.7;
  double readmit_high_water = 0.9;
  /// Let the arbiter split an over-full merged batch across two tick slots
  /// when a top-weight session would miss the SLO.
  bool allow_split = false;
  /// Fixed per-batch dispatch cost (ms) charged by the device pools; see
  /// TickContext::dispatch_overhead_ms. 0 = ideal overhead-free arbiter.
  double dispatch_overhead_ms = 0.0;
  /// SLO burn-rate monitoring (DESIGN.md §14): tolerated per-tick
  /// SLO-violation ratio. 0 disables the per-session and plane monitors.
  double burn_error_budget = 0.0;
  int burn_fast_window = 16;   ///< ticks; acute-burn window
  int burn_slow_window = 64;   ///< ticks; confirmation window
  double burn_raise = 2.0;     ///< raise at fast AND slow burn >= this
  double burn_clear = 1.0;     ///< clear at fast burn < this (hysteresis)
  /// A plane-level raise edge immediately applies one degrade rung to the
  /// heaviest restorable session (alerting coupled to mitigation).
  bool burn_degrade = false;
};

/// Largest burn-rate window (ticks) a fleet::BurnWindow ring holds.
inline constexpr int kMaxBurnWindow = 256;

/// The "fleet" block of a run config: fleet-wide knobs plus the runtime
/// pool adjustments and the session roster.
struct FleetRunConfig : FleetConfig {
  std::vector<FleetDeviceScale> device_scale;
  std::vector<FleetSessionSpec> sessions;
};

/// The "obs" block of a run config: observability (mvs::obs) switches. When
/// `enabled`, the runner turns the global metrics/span instrumentation on and
/// exports to the given paths after the run (empty path = no file export; the
/// CLI flags --chrome-trace/--metrics-json override and imply enabled).
struct ObsConfig {
  bool enabled = false;
  std::string chrome_trace;  ///< Chrome trace-event JSON output path
  std::string metrics_json;  ///< MetricsRegistry snapshot output path
  /// Critical-path attribution (obs::critical_path(), DESIGN.md §14).
  /// Independent of `enabled`; a non-empty metrics_json implies it so the
  /// export carries the attribution block.
  bool attribution = false;
  /// Flight-recorder postmortem directory; non-empty implies attribution.
  /// Empty = dumps stay in memory only (obs::recorder().last_dump()).
  std::string postmortem_dir;
  /// Deadline-miss burst trigger: dump when >= miss_threshold of the last
  /// miss_window frames missed. threshold 0 disables automatic dumps.
  int postmortem_miss_window = 32;
  int postmortem_miss_threshold = 8;
};

/// What the paced runtime (mvs::rt) does with a frame that cannot meet its
/// deadline. Lives here (not in src/rt/) so the config layer and CLI can
/// name policies without depending on mvs_rt.
enum class LatePolicy {
  kDrop,        ///< stale frame is dropped at its would-be start (miss)
  kSupersede,   ///< newest-wins: a fresh arrival displaces queued stale work
  kFinishLate,  ///< never drop; a late emission still counts as a miss
};

/// nullopt on unknown names ("drop", "supersede", "finish-late").
std::optional<LatePolicy> parse_late_policy(std::string name);
const char* to_string(LatePolicy policy);

/// The "rt" block of a run config: streaming-perception pacing (mvs::rt).
/// Defaults leave the classic unpaced runner untouched.
struct RtConfig {
  /// Run under the paced runtime (virtual wall clock + deadlines) instead of
  /// the as-fast-as-possible stepper.
  bool paced = false;
  /// Frame arrival period (ms); <= 0 derives it from the scenario's fps.
  double frame_period_ms = 0.0;
  /// Per-frame deadline budget past capture (ms); <= 0 = infinite (with
  /// kFinishLate this makes the paced run bit-identical to the unpaced
  /// pipeline — the "rt-of-one" guard).
  double deadline_ms = 100.0;
  LatePolicy late_policy = LatePolicy::kSupersede;
  /// Mean exponential arrival jitter per camera (ms); a multi-frame arrives
  /// when its slowest camera's capture lands. 0 = jitter-free.
  double arrival_jitter_ms = 0.0;
  /// Fixed per-frame service overhead (ms) added to the simulated
  /// inference + transport time (models decode/preprocess).
  double fixed_overhead_ms = 0.0;
  /// Deadline-miss error budget (tolerated miss ratio) for the runner's SLO
  /// burn-rate monitor; 0 disables it (no alert events).
  double miss_budget = 0.0;
};

struct RunConfig {
  std::string scenario = "S1";
  int frames = 200;
  PipelineConfig pipeline;
  ObsConfig obs;
  /// Streaming-perception pacing; rt.paced == false (default) means the
  /// block is inert and the classic runner is used.
  RtConfig rt;
  /// Present when the document carries a "fleet" block: run a multi-session
  /// fleet instead of a standalone pipeline.
  std::optional<FleetRunConfig> fleet;
};

/// Parse a policy name ("full", "balb-ind", "balb-cen", "balb", "sp"),
/// case-insensitive. nullopt on unknown names.
std::optional<Policy> parse_policy(std::string name);

/// Parse a config document; nullopt (with *error naming the offending key)
/// on malformed JSON, an unknown key, a value of the wrong JSON type, a
/// non-integral or out-of-range number, or a failed cross-field check.
std::optional<RunConfig> parse_run_config(const std::string& json_text,
                                          std::string* error = nullptr);

/// parse_run_config without finalize_run_config: for a caller that changes
/// the config further (the CLI applies its flags) and then finalizes once.
std::optional<RunConfig> parse_run_config_unchecked(
    const std::string& json_text, std::string* error = nullptr);

/// Serialize back to JSON (round-trips through parse_run_config, fleet
/// block included).
std::string dump_run_config(const RunConfig& config);

/// The cross-field checks of every block (readmit water marks, burn
/// windows and thresholds, policy refractory vs staleness, postmortem
/// trigger, scenario names, required entry keys) plus the one obs
/// implication (a metrics export or postmortem dir turns attribution on).
/// parse_run_config runs it; the CLI runs it once, after the file and its
/// flags.
bool finalize_run_config(RunConfig* config, std::string* error);

// ---- Config schema --------------------------------------------------------
// Every block (top level, pipeline, faults, policy, rt, city, obs, fleet,
// fleet sessions, device_scale and dropout entries) is one field table in
// config.cpp: JSON key, bound member, type, inclusive range, optional CLI
// flag and help. The JSON parser, the dumper, the CLI flag path and --help
// all walk those tables, so a knob is declared exactly once.

/// A block the schema can set fields of (FleetRunConfig* binds as its
/// FleetConfig part).
using ConfigBlock =
    std::variant<RunConfig*, PipelineConfig*, netsim::FaultConfig*,
                 netsim::DropoutWindow*, policy::PolicyConfig*, RtConfig*,
                 sim::CityConfig*, ObsConfig*, FleetConfig*, FleetSessionSpec*,
                 FleetDeviceScale*>;

/// Set the table field `key` of `block` from its text form ("12", "0.5",
/// "true", "weighted", ...) with the JSON parser's strict conversion and
/// range check. `label` names the value in *error.
bool set_config_field(ConfigBlock block, const std::string& key,
                      const std::string& text, const std::string& label,
                      std::string* error);

/// A command-line flag and its --help entry.
struct CliFlag {
  std::string name;     ///< without the leading "--"
  std::string arg;      ///< value placeholder; empty for a switch
  std::string help;     ///< one sentence; the default is appended for fields
  std::string section;  ///< --help section heading (kCliSections)
};

/// --help section headings, in print order.
inline constexpr const char* kCliSections[] = {
    "run options", "detect-or-track policy (mvs::policy)",
    "fleet serving (mvs::fleet)", "streaming perception (mvs::rt)",
    "city-scale scenarios (mvs::sim)", "observability (mvs::obs)",
    "network simulation (mvs::netsim)"};

/// Every table field that has a CLI flag, in table order.
const std::vector<CliFlag>& schema_flags();

/// Apply schema flag `name` (from schema_flags()) with its command-line
/// value: switches take no value, everything else goes through
/// set_config_field. *section receives the flag's section so the caller can
/// apply its implication rules. Fleet flags need run->fleet to be set.
bool apply_schema_flag(RunConfig* run, const std::string& name,
                       const std::string& value, std::string* section,
                       std::string* error);

}  // namespace mvs::runtime
