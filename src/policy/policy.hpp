#pragma once
// mvs::policy — online detect-or-track scheduling layer.
//
// BALB's regular frames run every camera through partial-frame DETECTION on
// a fixed cadence, but the latency objective is dominated by GPU demand and
// a camera whose tracks are stable can coast on optical-flow TRACKING for
// several frames with negligible recall loss (cf. "Detect or Track:
// Towards Cost-Effective Video Object Detection/Tracking"). A FramePolicy
// makes that call per camera per regular frame from the online features of
// features.hpp; track-only cameras contribute ZERO GPU slices that frame.
//
// Three implementations behind one config switch:
//   fixed     — today's behavior: detect every regular frame. Selecting it
//               is bit-identical to the pre-policy pipeline (guarded by
//               test_runtime's determinism and fleet-of-one tests).
//   heuristic — staleness / drift / confidence-decay / unexplained-motion
//               thresholds with hysteresis (a trigger that fired must drop
//               below its low-water mark before it can fire again, and a
//               fresh detect opens a short refractory window), so a signal
//               hovering at the threshold cannot oscillate the decision.
//   learned   — an mvs::ml logistic or decision-tree scorer trained from
//               recorded feature traces (train.hpp / tools/policy_train),
//               loaded from model.hpp JSON. The staleness cap still applies
//               as a safety net so a mis-trained model can only defer a
//               detect, never starve one.
//
// Determinism: decide() for camera i reads and writes only camera i's slot,
// so the pipeline may call it from its parallel per-camera step; decisions
// depend only on the camera's own feature stream, never on call order.

#include <memory>
#include <optional>
#include <string>

#include "policy/features.hpp"
#include "policy/model.hpp"
#include "util/enum_names.hpp"

namespace mvs::policy {

enum class PolicyKind { kFixed, kHeuristic, kLearned };

/// Config and CLI spellings.
inline constexpr util::EnumName kPolicyKindNames[] = {
    util::enum_entry("fixed", PolicyKind::kFixed),
    util::enum_entry("heuristic", PolicyKind::kHeuristic),
    util::enum_entry("learned", PolicyKind::kLearned)};

const char* to_string(PolicyKind kind);
/// Parse "fixed" | "heuristic" | "learned", case-insensitive.
std::optional<PolicyKind> parse_policy_kind(std::string name);

/// Config-facing knobs (the `policy {}` table of runtime/config.cpp, which
/// also binds their CLI flags).
struct PolicyConfig {
  PolicyKind kind = PolicyKind::kFixed;
  /// Force a detect once a camera has gone this many regular frames
  /// without one (upper bound on staleness; applies to heuristic AND
  /// learned — the safety net that bounds recall loss). Defaults tuned on
  /// S2 multi-seed paired-RNG sweeps (bench/ablation_policy): with
  /// per-track slice gating a cadence cap of 3 keeps mean recall at the
  /// fixed baseline while the gating carries the GPU cut; larger values let
  /// stale tracks outlive their objects.
  int staleness_limit = 3;
  /// Fresh-detect refractory window: triggers other than staleness are
  /// ignored for this many frames after an inspection.
  int min_track_frames = 1;
  /// Heuristic trigger: accumulated track drift (logical px) since detect.
  double drift_px = 4.0;
  /// Heuristic trigger: decayed detection confidence floor.
  double conf_floor = 0.45;
  /// Heuristic trigger: unexplained-motion block fraction.
  double motion_frac = 0.006;
  /// Heuristic trigger: churn (adds + drops per track at last detect).
  double churn_hi = 0.34;
  /// Hysteresis width: a fired trigger re-arms only after its signal drops
  /// below (1 - hysteresis) x its threshold.
  double hysteresis = 0.3;
  /// Learned-model source: a JSON file path, or the document inline
  /// (model_json wins when both are set; inline is what tests use).
  std::string model_path;
  std::string model_json;
  /// Learned decision threshold override; <= 0 keeps the model's own.
  double threshold = 0.0;
  /// Admission-estimator planning constant: expected fraction of regular
  /// camera-frames that still run detection under this policy (see
  /// demand_factor and DESIGN.md §10). Matches the tuned heuristic's
  /// measured cadence on S2 (~0.49 detect frames per regular camera-frame).
  double expected_detect_ratio = 0.5;
  /// When non-empty, the pipeline appends one JSONL feature row per
  /// camera per detect frame ({"f": [...], "label": 0|1}) for training.
  std::string feature_trace;
  /// ReXCam-style cross-camera correlation gate (correlation.hpp): skip
  /// detection entirely — key-frame full inspections included — in cameras
  /// no tracked object can reach. Orthogonal to `kind` (composes with the
  /// fixed cadence too); off by default, preserving bit-identity.
  bool correlation_gate = false;
  /// Minimum learned transition probability for a reachability edge.
  double gate_threshold = 0.05;
  /// Transition lookahead window (frames) used when fitting the table.
  int gate_window = 80;
  /// Hot-set hold-down (frames) covering blind gaps between cameras.
  int gate_hold = 80;
};

/// One decision. `score` is the policy's detect propensity (1.0 for forced
/// detects, the model probability for learned) — exported to obs.
struct Decision {
  bool detect = true;
  double score = 1.0;
};

class FramePolicy {
 public:
  virtual ~FramePolicy() = default;

  PolicyKind kind() const { return kind_; }

  /// Decide for one camera's regular frame. Thread-safe across DISTINCT
  /// cameras (per-camera state only); deterministic in the camera's own
  /// feature stream.
  virtual Decision decide(int camera, const CameraFeatures& f) = 0;

  /// Forget camera state (key frame ran a full inspection / camera rejoin).
  virtual void reset(int camera) { (void)camera; }

 protected:
  explicit FramePolicy(PolicyKind kind) : kind_(kind) {}

 private:
  PolicyKind kind_;
};

/// Build the configured policy for `cameras` cameras. Throws
/// std::runtime_error on an invalid learned-model document or a missing
/// model file.
std::unique_ptr<FramePolicy> make_policy(const PolicyConfig& config,
                                         std::size_t cameras);

/// Admission-estimator scaling for the partial-frame (regular-frame) GPU
/// demand term: 1.0 under the fixed cadence, the configured
/// expected_detect_ratio (clamped to [0.05, 1]) otherwise. Full-frame key
/// inspections are unaffected — the policy never skips key frames.
double demand_factor(const PolicyConfig& config);

}  // namespace mvs::policy
