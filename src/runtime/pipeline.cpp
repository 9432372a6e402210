#include "runtime/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "assoc/association.hpp"
#include "core/baselines.hpp"
#include "core/central_balb.hpp"
#include "core/distributed.hpp"
#include "detect/simulated_detector.hpp"
#include "geometry/size_class.hpp"
#include "gpu/batch_planner.hpp"
#include "metrics/metrics.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "netsim/sim_transport.hpp"
#include "obs/obs.hpp"
#include "policy/correlation.hpp"
#include "policy/features.hpp"
#include "policy/policy.hpp"
#include "runtime/oracles.hpp"
#include "sim/dataset.hpp"
#include "track/flow_tracker.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/stopwatch.hpp"
#include "vision/regions.hpp"
#include "vision/renderer.hpp"

namespace mvs::runtime {

namespace {

/// An object this camera can see but is NOT assigned to track. Its box is
/// kept alive by free optical-flow projection so the camera can (a) avoid
/// re-detecting it as "new" and (b) take over its tracking if it leaves the
/// assigned camera's view (distributed-stage case 2).
struct Ghost {
  std::uint64_t key = 0;
  geom::BBox box;
  int assigned_cam = -1;
};

/// The timing scope of one pipeline stage (DESIGN.md §9 stage table): its
/// obs span, and a stopwatch added into the stage's FrameStats field (if it
/// has one) at scope exit. Stages sharing a field accumulate into it.
class StageScope {
 public:
  explicit StageScope(const char* span, double* ms = nullptr)
      : span_(span), ms_(ms) {}
  ~StageScope() {
    if (ms_ != nullptr) *ms_ += watch_.elapsed_ms();
  }

 private:
  obs::Span span_;
  util::Stopwatch watch_;
  double* ms_;
};

/// Has `box` left a `w` x `h` frame (clamping keeps under 30% of its area)?
/// Retires tracks, lost-track searches and ghosts alike.
bool left_frame(const geom::BBox& box, double w, double h) {
  return box.area() <= 0.0 || box.clamped(w, h).area() < 0.3 * box.area();
}

/// Mean score of an inspection's detections; 1.0 when it found nothing.
double mean_score(const std::vector<detect::Detection>& dets) {
  if (dets.empty()) return 1.0;
  double acc = 0.0;
  for (const detect::Detection& d : dets) acc += d.score;
  return acc / static_cast<double>(dets.size());
}

/// Greedy IoU non-maximum suppression; overlapping partial-frame ROIs can
/// yield duplicate detections of one object. Sorts `dets` in place and
/// fills `kept` (cleared first) so warm calls reuse both buffers.
void nms_into(std::vector<detect::Detection>& dets, double iou_threshold,
              std::vector<detect::Detection>& kept) {
  std::sort(dets.begin(), dets.end(),
            [](const detect::Detection& a, const detect::Detection& b) {
              return a.score > b.score;
            });
  kept.clear();
  for (const detect::Detection& d : dets) {
    bool suppressed = false;
    for (const detect::Detection& k : kept) {
      if (geom::iou(d.box, k.box) >= iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
}

struct CameraNode {
  int index = 0;
  gpu::DeviceProfile device;
  double frame_w = 0.0, frame_h = 0.0;
  double render_scale = 4.0;
  vision::Renderer renderer;
  vision::OpticalFlow flow_engine;
  track::FlowTracker tracker;
  /// Per-camera frame/pyramid/flow scratch: the current frame is rendered
  /// into `scratch`, whose previous-frame pyramid persists across frames so
  /// each regular frame builds exactly one pyramid and reallocates nothing.
  vision::FlowScratch scratch;
  vision::FlowField flow;
  std::vector<Ghost> ghosts;
  util::Rng rng;
  std::vector<std::uint8_t> batch_buffer;
  std::vector<vision::RenderObject> render_objs;
  /// Detect-or-track feature accumulator (only touched when the policy
  /// layer or feature-trace recording is enabled; see Impl::features_on).
  policy::CameraFeatureState pstate;

  /// A recently dropped track awaiting re-acquisition. Under a
  /// detect-or-track policy a track can die while its object is still in
  /// frame (a few sparse inspections miss); with no live track there is no
  /// ROI slice, so the camera goes blind until the next key frame. The lost
  /// list keeps the dead track's last box coasting on its velocity estimate
  /// and seeds detection slices from it; an unmatched detection landing on a
  /// lost box is re-adopted directly (it is a re-acquisition of an object
  /// already planned to this camera, not a new-object adoption). Populated
  /// only in policy mode — the fixed pipeline never touches it.
  struct LostTrack {
    geom::BBox box;
    geom::Vec2 velocity{0.0, 0.0};
    int ttl = 0;  ///< frames of search left (a key frame re-plans anyway)
  };
  std::vector<LostTrack> lost;

  /// Per-camera regular-frame working memory (DESIGN.md §11): every
  /// container the regular-frame stages fill lives here, so a warm regular
  /// frame reuses capacity instead of allocating. Owned by the camera (not
  /// thread_local) because cameras run on arbitrary pool workers and the
  /// buffers' sizes track THIS camera's load.
  struct StepScratch {
    std::vector<long> inspected_ids;                    ///< policy mode
    std::vector<std::pair<long, geom::BBox>> inspect;   ///< policy mode
    /// Fixed-mode slice input, then the feature trace's label baseline.
    std::vector<std::pair<long, geom::BBox>> predicted;
    std::vector<geom::BBox> track_boxes;  ///< policy features
    std::vector<track::Track> pre_update;  ///< policy mode: lost-list source
    std::vector<vision::SliceRegion> slices;
    std::vector<geom::BBox> explained;
    std::vector<geom::BBox> fresh;
    vision::RegionScratch regions;
    std::vector<int> batch_counts;
    gpu::BatchPlan plan;
    std::vector<detect::Detection> dets;
    std::vector<detect::Detection> nms_kept;
    track::FlowTracker::UpdateResult update;
    std::vector<Ghost> ghosts_kept;  ///< takeover_pass survivor buffer
    std::vector<int> visible;        ///< takeover_pass successor electorate
  };
  StepScratch step;
};

}  // namespace

struct Pipeline::Impl {
  Impl(const std::string& scenario_name, const PipelineConfig& config,
       util::ThreadPool* shared_pool)
      : cfg(config),
        player(sim::make_scenario(scenario_name, config.seed),
               /*warmup_s=*/45.0),
        owned_pool(shared_pool
                       ? nullptr
                       : std::make_unique<util::ThreadPool>(
                             static_cast<std::size_t>(
                                 std::max(0, config.threads)))),
        pool(shared_pool ? *shared_pool : *owned_pool),
        recall(config.recall_iou) {
    scenario_name_ = scenario_name;
    const sim::Scenario& sc = player.scenario();
    const std::size_t m = sc.cameras.size();

    std::vector<std::pair<double, double>> frame_sizes;
    for (const sim::ScenarioCamera& cam : sc.cameras)
      frame_sizes.emplace_back(cam.model.width(), cam.model.height());

    util::Rng root(cfg.seed ^ 0xABCDEF12ULL);
    for (std::size_t i = 0; i < m; ++i) {
      CameraNode node;
      node.index = static_cast<int>(i);
      node.device = sc.cameras[i].device;
      node.frame_w = static_cast<double>(sc.cameras[i].model.width());
      node.frame_h = static_cast<double>(sc.cameras[i].model.height());
      node.render_scale = sc.render_scale;
      vision::Renderer::Config rc;
      rc.width = static_cast<int>(node.frame_w / sc.render_scale);
      rc.height = static_cast<int>(node.frame_h / sc.render_scale);
      node.renderer = vision::Renderer(rc);
      node.tracker = track::FlowTracker(track::FlowTracker::Config{}, sizes);
      node.rng = root.fork();
      cameras.push_back(std::move(node));
    }
    active.assign(m, 1);
    gpu_work.resize(m);
    key_dets_.resize(m);
    tile_flow = m < pool.thread_count();

    // Detect-or-track layer. The fixed kind is fast-pathed: no policy
    // object, no feature bookkeeping, no extra obs signals — the pipeline
    // stays bit-identical to its pre-policy behavior.
    if (cfg.frame_policy.kind != policy::PolicyKind::kFixed)
      frame_policy = policy::make_policy(cfg.frame_policy, m);
    if (!cfg.frame_policy.feature_trace.empty()) {
      feature_trace.open(cfg.frame_policy.feature_trace, std::ios::trunc);
      if (!feature_trace)
        throw std::runtime_error("policy: cannot open feature trace " +
                                 cfg.frame_policy.feature_trace);
    }
    features_on = frame_policy != nullptr || feature_trace.is_open();

    if (cfg.transport == net::TransportKind::kLossy) {
      netsim::SimTransport::Config tc;
      tc.faults = cfg.faults;
      transport = std::make_unique<netsim::SimTransport>(tc, m, cfg.seed);
    } else {
      transport = std::make_unique<net::IdealTransport>(m);
    }

    // Train the cross-camera models on the first split. All policies consume
    // the training frames so every policy evaluates the identical segment.
    const std::vector<sim::MultiFrame> training =
        player.take(cfg.training_frames);
    if (needs_association()) {
      associator = std::make_unique<assoc::CrossCameraAssociator>(frame_sizes);
      associator->train(training);
      build_cell_cache(frame_sizes);
    }

    // ReXCam-style correlation gate: learn entry cameras and pairwise
    // reachability from the same training split (ground-truth identities —
    // the gate trains on the sim the way the associator does).
    if (cfg.frame_policy.correlation_gate) {
      policy::CorrelationGateConfig gc;
      gc.enabled = true;
      gc.threshold = cfg.frame_policy.gate_threshold;
      gc.window = cfg.frame_policy.gate_window;
      gc.hold = cfg.frame_policy.gate_hold;
      corr_gate = std::make_unique<policy::CorrelationGate>(gc, m);
      std::vector<policy::CameraSightings> sightings;
      sightings.reserve(training.size());
      for (const sim::MultiFrame& tf : training) {
        policy::CameraSightings frame(m);
        for (std::size_t i = 0; i < m && i < tf.per_camera.size(); ++i)
          for (const detect::GroundTruthObject& o : tf.per_camera[i])
            frame[i].push_back(o.id);
        sightings.push_back(std::move(frame));
      }
      corr_gate->fit(sightings);
      gate_cold_.assign(m, 0);
      gate_activity_.assign(m, 0);
    }

    // Day/night detection-quality schedule (city scenarios): precompute the
    // night detector so phase flips are a plain value swap.
    quality_ = player.scenario().quality;
    if (quality_.enabled) {
      detect::SimulatedDetector::Config nc = detector.config();
      nc.base_miss_rate =
          std::min(0.95, nc.base_miss_rate + quality_.night_miss_boost);
      nc.score_mean = std::max(0.05, nc.score_mean - quality_.night_score_drop);
      night_detector_ = detect::SimulatedDetector(nc);
      day_detector_ = detector;
    }
  }

  bool needs_association() const {
    return cfg.policy == Policy::kBalb || cfg.policy == Policy::kBalbCen ||
           cfg.policy == Policy::kStaticPartition;
  }

  /// Static per-deployment cell oracles: cell coverage sets and region keys
  /// depend only on camera poses, so they are computed once from the trained
  /// models and reused by every horizon's mask construction.
  void build_cell_cache(
      const std::vector<std::pair<double, double>>& frame_sizes) {
    const core::CellCoverageFn cov = make_coverage_oracle(*associator);
    const core::RegionKeyFn key = make_region_key_oracle(*associator);
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      CellCache cache{geom::Grid(static_cast<int>(frame_sizes[i].first),
                                 static_cast<int>(frame_sizes[i].second),
                                 cfg.mask_cell_px),
                      {},
                      {}};
      cache.coverage.resize(cache.grid.cell_count());
      cache.region_key.resize(cache.grid.cell_count());
      for (int r = 0; r < cache.grid.rows(); ++r) {
        for (int c = 0; c < cache.grid.cols(); ++c) {
          const geom::CellIndex cell{c, r};
          const geom::Vec2 center = cache.grid.cell_box(cell).center();
          cache.coverage[cache.grid.flat(cell)] =
              cov(static_cast<int>(i), center);
          cache.region_key[cache.grid.flat(cell)] =
              key(static_cast<int>(i), center);
        }
      }
      cell_cache.push_back(std::move(cache));
    }
  }

  core::CellCoverageFn cached_coverage() const {
    return [this](int cam, geom::Vec2 center) {
      const CellCache& cache = cell_cache[static_cast<std::size_t>(cam)];
      return cache.coverage[cache.grid.flat(cache.grid.cell_at(center))];
    };
  }

  core::RegionKeyFn cached_region_key() const {
    return [this](int cam, geom::Vec2 center) {
      const CellCache& cache = cell_cache[static_cast<std::size_t>(cam)];
      return cache.region_key[cache.grid.flat(cache.grid.cell_at(center))];
    };
  }

  std::vector<std::pair<int, int>> frame_dims() const {
    std::vector<std::pair<int, int>> dims;
    for (const CameraNode& node : cameras)
      dims.emplace_back(static_cast<int>(node.frame_w),
                        static_cast<int>(node.frame_h));
    return dims;
  }

  std::vector<gpu::DeviceProfile> devices() const {
    std::vector<gpu::DeviceProfile> out;
    for (const CameraNode& node : cameras) out.push_back(node.device);
    return out;
  }

  /// Advance one evaluation frame (body of Pipeline::run_frame). Returns a
  /// reference to stats_, overwritten by the next call.
  const FrameStats& run_frame();

  /// May camera `cam` adopt a NEW object at `box` (Fig. 8)? BALB adopts
  /// inside its priority masks, static partition inside its own cells,
  /// BALB-Ind anywhere, BALB-Cen and Full never. The tight_masks degraded
  /// mode also requires solo coverage (no other camera could pick the
  /// object up) wherever a cell cache exists.
  bool may_adopt(int cam, const geom::BBox& box) const {
    if (cfg.tight_masks && !cell_cache.empty()) {
      const CellCache& cache = cell_cache[static_cast<std::size_t>(cam)];
      if (cache.coverage[cache.grid.flat(cache.grid.cell_at(box.center()))]
              .size() > 1)
        return false;
    }
    if (cfg.policy == Policy::kBalb)
      return distributed.valid() && distributed.should_adopt_new(cam, box);
    if (cfg.policy == Policy::kStaticPartition)
      return sp_masks_ready && sp_masks.owns(cam, box.center());
    return cfg.policy == Policy::kBalbInd;
  }

  /// Apply the transport's dropout schedule to the camera fleet. A camera
  /// going offline dies immediately — tracks and ghost bookkeeping with it;
  /// it rejoins only at a key frame (`may_rejoin`), where the full
  /// inspection and a fresh central plan fold it back into the schedule.
  void refresh_active(long eval_frame, long trace_frame, bool may_rejoin) {
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      const bool online =
          transport->camera_online(static_cast<int>(i), eval_frame);
      if (active[i] && !online) {
        active[i] = 0;
        cameras[i].tracker.reset_from_detections({});
        cameras[i].ghosts.clear();
        cameras[i].pstate = {};  // policy features die with the device
        emit(trace, {trace_frame, static_cast<int>(i),
                     TraceEventType::kCameraDown, 0, 0.0});
      } else if (!active[i] && online && may_rejoin) {
        active[i] = 1;
        emit(trace, {trace_frame, static_cast<int>(i),
                     TraceEventType::kCameraRejoin, 0, 0.0});
      }
    }
  }

  /// Correlation gate (sequential, before the parallel section): a camera is
  /// hot when it is an entry point, has live tracks, is reachable from a
  /// camera that does, or is inside its cooldown hold. Cold cameras skip
  /// detection entirely this frame.
  void refresh_gate() {
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      const CameraNode& cam = cameras[i];
      gate_activity_[i] =
          active[i] ? static_cast<int>(cam.tracker.tracks().size() +
                                       cam.ghosts.size() + cam.lost.size())
                    : 0;
    }
    corr_gate->refresh(gate_activity_);
    int cold = 0;
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      gate_cold_[i] =
          (active[i] && !corr_gate->hot(static_cast<int>(i))) ? 1 : 0;
      cold += gate_cold_[i];
    }
    if (obs::enabled() && !cameras.empty())
      obs::metrics()
          .histogram("policy.gate_cold_frac")
          .record(static_cast<double>(cold) /
                  static_cast<double>(cameras.size()));
  }

  /// Run fn(i) for every online camera i across the pool; a dropped-out
  /// device runs nothing. Cameras are independent (own renderer, flow
  /// scratch, tracker, RNG) and share only the const frame, so this mirrors
  /// the real deployment where each smart camera is a separate device.
  template <typename Fn>
  void for_each_online_camera(Fn&& fn) {
    pool.parallel_for_each(cameras.size(), [&](std::size_t i) {
      if (active[i]) fn(i);
    });
  }

  // ---- stages (DESIGN.md §9 stage table) --------------------------------

  /// Stage `pipeline.render` (per online camera): render the ground truth
  /// into scratch.cur_frame(); on a key frame also `rebase` flow on it so
  /// the next frame has a reference.
  void render_stage(CameraNode& cam, const sim::MultiFrame& mf, bool rebase) {
    StageScope stage("pipeline.render");
    const double scale = cam.render_scale;
    cam.render_objs.clear();
    for (const detect::GroundTruthObject& o :
         mf.per_camera[static_cast<std::size_t>(cam.index)])
      cam.render_objs.push_back({o.id, geom::BBox{o.box.x / scale,
                                                  o.box.y / scale,
                                                  o.box.w / scale,
                                                  o.box.h / scale}});
    cam.renderer.render_into(
        cam.render_objs, mf.frame_index,
        0x5EED0000ULL + static_cast<std::uint64_t>(cam.index),
        cam.scratch.cur_frame());
    if (rebase) cam.flow_engine.rebase(cam.scratch);
  }

  /// Stage `pipeline.inspect` (one scope per online camera, serial): full
  /// inspection into key_dets_ (key frames, and every frame under Full),
  /// plus the uplink of each list to the central stage when `uplink`.
  /// Offline and gated-cold cameras contribute nothing; a cold camera still
  /// renders, so flow has a reference when it heats up. Serial on purpose:
  /// it costs ~2 us per camera and feeds the shared transport and
  /// camera_infer_ms in camera order.
  void inspect_stage(const sim::MultiFrame& mf, long eval_frame, bool uplink,
                     FrameStats& stats,
                     std::vector<std::vector<geom::BBox>>& reported) {
    for (CameraNode& cam : cameras) {
      const auto i = static_cast<std::size_t>(cam.index);
      std::vector<detect::Detection>& dets = key_dets_[i];
      dets.clear();
      if (!active[i] || gate_cold(i)) {
        stats.camera_infer_ms.push_back(0.0);
        continue;
      }
      StageScope stage("pipeline.inspect");
      dets = detector.detect_full(mf.per_camera[i], cam.frame_w, cam.frame_h,
                                  cam.rng);
      stats.camera_infer_ms.push_back(cam.device.full_frame_ms());
      gpu_work[i].full_frame = true;
      for (const detect::Detection& d : dets) reported[i].push_back(d.box);
      if (!uplink) continue;
      net::DetectionListMsg msg{static_cast<std::uint32_t>(cam.index),
                                static_cast<std::uint64_t>(mf.frame_index),
                                dets};
      transport->send_uplink(eval_frame, cam.index, msg.encode().size());
    }
  }

  /// One key frame's central plan, as the cameras adopt it.
  struct HorizonPlan {
    std::vector<assoc::AssociatedObject> objects;
    core::Assignment assignment;
    /// received[i] != 0 iff camera i's uplink and downlink both arrived.
    std::vector<char> received;
  };

  /// A key frame: serial inspection and uplinks, the central stages, serial
  /// adoption, then the per-camera render and flow rebase on the pool.
  void key_frame_step(const sim::MultiFrame& mf, long eval_frame,
                      FrameStats& stats,
                      std::vector<std::vector<geom::BBox>>& reported) {
    MVS_SPAN("pipeline.key_frame");
    const bool central = cfg.policy != Policy::kBalbInd;
    inspect_stage(mf, eval_frame, /*uplink=*/central, stats, reported);
    if (!central) {
      adopt_stage(nullptr);
    } else {
      // The central stage only sees the detection lists the transport
      // actually delivered — a lost uplink drops that camera out of this
      // horizon's plan and BALB re-plans over the survivors.
      const net::UplinkReport uplinks = transport->run_uplinks(eval_frame);
      HorizonPlan plan;
      plan.received.assign(cameras.size(), 0);
      std::vector<std::vector<detect::Detection>> sched_dets(cameras.size());
      for (std::size_t i = 0; i < cameras.size(); ++i) {
        if (!active[i] || i >= uplinks.delivered.size() ||
            !uplinks.delivered[i])
          continue;
        plan.received[i] = 1;
        sched_dets[i] = key_dets_[i];
      }
      plan.objects = associate_stage(sched_dets, stats);
      plan.assignment = central_stage(plan.objects, stats);
      exchange_stage(mf.frame_index, eval_frame, plan, stats);
      adopt_stage(&plan);
    }

    // The costliest key-frame stage: per camera on the pool, as on a
    // regular frame.
    for_each_online_camera([&](std::size_t i) {
      render_stage(cameras[i], mf, /*rebase=*/true);
    });
  }

  /// Stage `pipeline.associate` (central): cross-camera association of the
  /// delivered detection lists into objects.
  std::vector<assoc::AssociatedObject> associate_stage(
      const std::vector<std::vector<detect::Detection>>& lists,
      FrameStats& stats) {
    StageScope stage("pipeline.associate", &stats.central_ms);
    return associator->associate(lists);
  }

  /// Stage `pipeline.central` (central): build the MVS problem, solve it
  /// with BALB or the static partition, and rebuild that policy's masks.
  core::Assignment central_stage(
      const std::vector<assoc::AssociatedObject>& objects,
      FrameStats& stats) {
    StageScope stage("pipeline.central", &stats.central_ms);
    const std::size_t m = cameras.size();
    core::MvsProblem problem;
    problem.cameras = devices();
    for (std::size_t j = 0; j < objects.size(); ++j) {
      core::ObjectSpec spec;
      spec.key = j;
      spec.size_class.assign(m, 0);
      for (std::size_t i = 0; i < m; ++i) {
        if (objects[j].det_index[i] < 0) continue;
        spec.coverage.push_back(static_cast<int>(i));
        spec.size_class[i] = sizes.quantize(objects[j].boxes[i]);
      }
      problem.objects.push_back(std::move(spec));
    }

    core::Assignment assignment;
    if (cfg.policy == Policy::kStaticPartition) {
      const core::RegionKeyFn region_key = cached_region_key();
      std::vector<int> owner(problem.objects.size(), 0);
      for (std::size_t j = 0; j < problem.objects.size(); ++j) {
        const int canonical = problem.objects[j].coverage.front();
        owner[j] = core::power_weighted_owner(
            problem.objects[j].coverage, problem.cameras,
            region_key(canonical,
                       objects[j].boxes[static_cast<std::size_t>(canonical)]
                           .center()));
      }
      assignment = core::static_partition_assignment(problem, owner);
      if (!sp_masks_ready) {
        sp_masks = core::build_power_weighted_masks(
            frame_dims(), cfg.mask_cell_px, cached_coverage(),
            cached_region_key(), problem.cameras);
        sp_masks_ready = true;
      }
    } else {
      assignment = core::central_balb(problem);
      if (cfg.policy == Policy::kBalb) {
        // Offline cameras are cut from the priority order, so their mask
        // cells fall to surviving cameras and takeover elections never
        // pick a dead device.
        std::vector<int> priority;
        for (int c : assignment.priority_order())
          if (active[static_cast<std::size_t>(c)]) priority.push_back(c);
        distributed = core::DistributedStage(
            core::build_priority_masks(frame_dims(), cfg.mask_cell_px,
                                       cached_coverage(), priority),
            priority);
      }
    }
    return assignment;
  }

  /// Stage `pipeline.exchange` (central): trace the plan, downlink each
  /// online camera's slice and close the transport cycle (netsim's
  /// `net.cycle` nests here) with its comm, queueing and fault accounting.
  /// A camera whose downlink was lost did not receive the plan.
  void exchange_stage(long frame_index, long eval_frame, HorizonPlan& plan,
                      FrameStats& stats) {
    StageScope stage("pipeline.exchange");
    emit(trace, {frame_index, -1, TraceEventType::kKeyFrame, 0,
                 plan.assignment.system_latency()});
    for (std::size_t i = 0; i < cameras.size(); ++i)
      for (std::size_t j = 0; j < plan.objects.size(); ++j)
        if (plan.assignment.x[i][j])
          emit(trace, {frame_index, static_cast<int>(i),
                       TraceEventType::kAssignment, j, 0.0});
    for (std::size_t i = 0; i < cameras.size(); ++i) {
      if (!active[i]) continue;
      net::AssignmentMsg msg;
      msg.camera_id = static_cast<std::uint32_t>(i);
      msg.frame_index = static_cast<std::uint64_t>(frame_index);
      for (std::size_t j = 0; j < plan.objects.size(); ++j)
        if (plan.assignment.x[i][j]) msg.assigned_keys.push_back(j);
      transport->send_downlink(eval_frame, static_cast<int>(i),
                               msg.encode().size());
    }
    const net::CycleReport report = transport->finish_cycle(eval_frame);
    for (std::size_t i = 0; i < cameras.size(); ++i)
      if (i >= report.downlink_delivered.size() ||
          !report.downlink_delivered[i])
        plan.received[i] = 0;
    stats.comm_ms = report.comm_ms;
    stats.queue_ms = report.queue_ms;
    stats.retries = report.retries;
    stats.dropped_msgs = report.dropped_msgs;
    for (const net::MessageEvent& e : report.events)
      emit(trace, {frame_index, e.camera,
                   e.kind == net::MessageEvent::Kind::kRetry
                       ? TraceEventType::kNetRetry
                       : TraceEventType::kNetDrop,
                   static_cast<std::uint64_t>(e.uplink ? 1 : 0), e.time_ms});
  }

  /// Stage `pipeline.adopt`: every online camera takes up the new horizon.
  /// Without a central plan (`plan` null: BALB-Ind) a camera tracks what it
  /// detected itself. With one, it tracks its assigned slice and keeps the
  /// covered-but-unassigned objects as ghosts (BALB). A camera that never
  /// received the plan keeps its previous tracks and ghosts for another
  /// horizon instead of resetting to an empty (and wrong) slice. Serial:
  /// it costs ~15 us in total, less than a pool dispatch buys back.
  void adopt_stage(const HorizonPlan* plan) {
    StageScope stage("pipeline.adopt");
    // Each object's tracking camera, looked up by the ghosts that shadow it.
    std::vector<int> tracker_cam;
    if (plan && cfg.policy == Policy::kBalb) {
      tracker_cam.assign(plan->objects.size(), -1);
      for (std::size_t j = 0; j < plan->objects.size(); ++j)
        for (std::size_t i = 0; i < cameras.size(); ++i)
          if (plan->assignment.x[i][j]) tracker_cam[j] = static_cast<int>(i);
    }
    for (CameraNode& cam : cameras) {
      const auto i = static_cast<std::size_t>(cam.index);
      if (!active[i]) continue;
      if (!plan) {
        cam.tracker.reset_from_detections(key_dets_[i]);
      } else if (plan->received[i]) {
        std::vector<detect::Detection> mine;
        cam.ghosts.clear();
        for (std::size_t j = 0; j < plan->objects.size(); ++j) {
          const int det_index = plan->objects[j].det_index[i];
          if (det_index < 0) continue;
          if (plan->assignment.x[i][j]) {
            mine.push_back(key_dets_[i][static_cast<std::size_t>(det_index)]);
          } else if (cfg.policy == Policy::kBalb) {
            cam.ghosts.push_back(
                Ghost{j, plan->objects[j].boxes[i], tracker_cam[j]});
          }
        }
        cam.tracker.reset_from_detections(mine);
      }
      // The full inspection restarts this camera's detect-or-track clock:
      // staleness, drift and confidence all count from here.
      if (!features_on || gate_cold(i)) continue;
      const int tracks = static_cast<int>(cam.tracker.tracks().size());
      cam.pstate.note_detect(mean_score(key_dets_[i]), 0, tracks);
      cam.pstate.reset_baseline(tracks);
      cam.lost.clear();  // the full inspection just re-planned everything
      if (frame_policy) frame_policy->reset(cam.index);
    }
  }

  // ---- regular frame -----------------------------------------------------

  /// Per-camera regular-frame outcome, reduced into FrameStats afterwards so
  /// the parallel per-camera execution stays deterministic.
  struct CamFrameResult {
    double infer_ms = 0.0;
    double tracking_ms = 0.0;
    double distributed_ms = 0.0;
    double batching_ms = 0.0;
    // Detect-or-track outcome (policy layer active only). Reduced
    // sequentially in regular_frame_step so obs signals and the feature
    // trace are deterministic regardless of per-camera execution order.
    bool policy_decided = false;
    bool policy_detect = true;
    double drift_at_decide = 0.0;
    // Feature-trace row for this camera (recording only; empty otherwise).
    std::vector<double> trace_features;
    int trace_label = 0;
  };

  void regular_frame_step(const sim::MultiFrame& mf, FrameStats& stats,
                          std::vector<std::vector<geom::BBox>>& reported) {
    std::vector<CamFrameResult>& results = results_;
    results.assign(cameras.size(), CamFrameResult{});
    for_each_online_camera([&](std::size_t i) {
      regular_camera_step(cameras[i], mf, reported[i], results[i]);
    });
    int decided = 0, detects = 0;
    for (const CamFrameResult& r : results) {
      stats.camera_infer_ms.push_back(r.infer_ms);
      stats.tracking_ms = std::max(stats.tracking_ms, r.tracking_ms);
      stats.distributed_ms = std::max(stats.distributed_ms, r.distributed_ms);
      stats.batching_ms = std::max(stats.batching_ms, r.batching_ms);
      if (r.policy_decided) {
        ++decided;
        detects += r.policy_detect ? 1 : 0;
      }
    }
    if (frame_policy && obs::enabled() && decided > 0) {
      obs::MetricsRegistry& m = obs::metrics();
      m.counter("policy.decisions").add(static_cast<long>(decided));
      m.counter("policy.detects").add(static_cast<long>(detects));
      m.histogram("policy.detect_ratio")
          .record(static_cast<double>(detects) / static_cast<double>(decided));
      for (const CamFrameResult& r : results)
        if (r.policy_decided && r.policy_detect)
          m.histogram("policy.drift_at_detect").record(r.drift_at_decide);
    }
    if (feature_trace.is_open()) {
      // Camera-order flush keeps the trace byte-identical across thread
      // counts (rows were produced in parallel).
      std::ostringstream rows;
      rows.precision(17);
      for (const CamFrameResult& r : results) {
        if (r.trace_features.empty()) continue;
        rows << "{\"f\":[";
        for (std::size_t d = 0; d < r.trace_features.size(); ++d)
          rows << (d ? "," : "") << r.trace_features[d];
        rows << "],\"label\":" << r.trace_label << "}\n";
      }
      feature_trace << rows.str();
    }
  }

  /// One camera's regular frame: render, flow, tracking, and — unless the
  /// camera coasts track-only — batch, detect and the distributed stage.
  void regular_camera_step(CameraNode& cam, const sim::MultiFrame& mf,
                           std::vector<geom::BBox>& cam_reported,
                           CamFrameResult& result) {
    MVS_SPAN("pipeline.camera");
    render_stage(cam, mf, /*rebase=*/false);
    flow_stage(cam, result);
    policy::CameraFeatures feats;
    if (tracking_stage(cam, mf.frame_index, feats, result)) {
      batch_stage(cam, result);
      detect_stage(cam, mf);
      const int churn_events =
          distributed_stage(cam, mf.frame_index, result) +
          static_cast<int>(cam.step.update.removed_track_ids.size());
      if (features_on) note_inspection(cam, feats, churn_events, result);
    }
    cam.scratch.advance();  // this frame becomes the next flow reference
    for (const track::Track& t : cam.tracker.tracks())
      cam_reported.push_back(t.box);
  }

  /// Stage `pipeline.flow` (per camera): block optical flow from the
  /// previous frame, tiled across idle pool workers when the cameras are
  /// fewer than the pool threads.
  void flow_stage(CameraNode& cam, CamFrameResult& result) {
    StageScope stage("pipeline.flow", &result.tracking_ms);
    cam.flow_engine.compute(cam.scratch, cam.flow,
                            tile_flow ? &pool : nullptr);
  }

  /// Stage `pipeline.tracking` (per camera): project along the flow, decide
  /// detect-or-track and, on a detect frame, pick the slices and search for
  /// new regions. Returns false for a track-only frame: no slices, no batch
  /// plan, no detector RNG draws, zero GPU time (gpu_work stays empty).
  bool tracking_stage(CameraNode& cam, long frame_index,
                      policy::CameraFeatures& feats, CamFrameResult& result) {
    StageScope stage("pipeline.tracking", &result.tracking_ms);
    project_tracks(cam, frame_index);
    if (!decide_detect(cam, frame_index, feats, result)) return false;
    select_slices(cam);
    // BALB-Cen never adopts between key frames, so it never searches.
    if (cfg.policy != Policy::kBalbCen) search_new_regions(cam);
    return true;
  }

  /// Move tracks, lost-track search boxes (policy mode) and ghosts along
  /// the flow; retire what left the frame.
  void project_tracks(CameraNode& cam, long frame_index) {
    const vision::FlowField& flow = cam.flow;
    // Velocity-fallback coasting only under an active policy layer: the
    // fixed pipeline (frame_policy == nullptr, even when recording a
    // feature trace) keeps the flow-only prediction bit-identical.
    cam.tracker.predict(flow, cam.render_scale, frame_policy != nullptr);
    if (frame_policy) {
      // Lost-track search boxes coast on their last velocity and expire
      // when they time out or leave the frame.
      for (auto it = cam.lost.begin(); it != cam.lost.end();) {
        it->box = it->box.shifted(it->velocity);
        if (--it->ttl <= 0 || left_frame(it->box, cam.frame_w, cam.frame_h))
          it = cam.lost.erase(it);
        else
          ++it;
      }
    }
    std::vector<track::Track>& tracks = cam.tracker.tracks();
    for (auto it = tracks.begin(); it != tracks.end();) {
      if (!left_frame(it->box, cam.frame_w, cam.frame_h)) {
        ++it;
        continue;
      }
      if (features_on) cam.pstate.note_departure();
      emit(trace, {frame_index, cam.index, TraceEventType::kTrackDrop,
                   static_cast<std::uint64_t>(it->id), 0.0});
      it = tracks.erase(it);
    }
    for (Ghost& g : cam.ghosts) {
      const geom::BBox fb{g.box.x / cam.render_scale,
                          g.box.y / cam.render_scale,
                          g.box.w / cam.render_scale,
                          g.box.h / cam.render_scale};
      const geom::Vec2 motion = vision::median_flow_in(flow, fb);
      g.box = g.box.shifted(
          {motion.x * cam.render_scale, motion.y * cam.render_scale});
    }
  }

  /// Detect-or-track decision (mvs::policy). The fixed kind skips the
  /// feature bookkeeping (frame_policy is null, features_on false) and
  /// detects every frame, so the pre-policy pipeline runs untouched.
  bool decide_detect(CameraNode& cam, long frame_index,
                     policy::CameraFeatures& feats, CamFrameResult& result) {
    const vision::FlowField& flow = cam.flow;
    bool do_detect = true;
    if (features_on) {
      ++cam.pstate.frames_since_detect;
      std::vector<geom::BBox>& boxes = cam.step.track_boxes;
      boxes.clear();
      for (const track::Track& t : cam.tracker.tracks())
        boxes.push_back(t.box);
      cam.pstate.add_drift(
          policy::mean_track_motion_px(flow, boxes, cam.render_scale));
      // Unexplained motion reads track and ghost boxes in flow coordinates.
      for (const Ghost& g : cam.ghosts) boxes.push_back(g.box);
      const double inv = 1.0 / cam.render_scale;
      for (geom::BBox& b : boxes)
        b = {b.x * inv, b.y * inv, b.w * inv, b.h * inv};
      feats = cam.pstate.features(
          cam.tracker.tracks().size(), policy::normalized_residual(flow),
          policy::unexplained_motion_fraction(flow, boxes));
    }
    if (frame_policy) {
      MVS_SPAN("policy.decide");
      const policy::Decision decision =
          frame_policy->decide(cam.index, feats);
      do_detect = decision.detect;
      // The very next frame is a key frame: its full inspection re-plans
      // every track, so a partial-frame correction now is paid for in full
      // but useful for exactly one frame. Always coast into a key frame.
      if (cfg.horizon_frames > 0 &&
          (frame_index + 1) % cfg.horizon_frames == 0)
        do_detect = false;
      result.policy_decided = true;
      result.policy_detect = decision.detect;
      result.drift_at_decide = feats.drift_px;
    }
    // Correlation-gated cold camera: coast track-only regardless of the
    // frame policy. The gate only cools views with zero activity, so this
    // frame is pure render + flow — no slices, no new-region search.
    if (gate_cold(static_cast<std::size_t>(cam.index))) do_detect = false;
    return do_detect;
  }

  /// Inspection slices of a detect frame. Fixed slicing keeps the exact
  /// predicted box of every track (bit-identity). Policy mode inspects only
  /// the tracks that need correction — coasted two or more frames, carrying
  /// a miss, or too young for a velocity estimate — so a burst of detect
  /// frames pays for the needy track (or lost-track search), not the whole
  /// camera. The search region grows with coast length (capped so a healthy
  /// box does not spill into the next size class).
  void select_slices(CameraNode& cam) {
    constexpr double kCoastSlackPx = 1.5;
    constexpr double kCoastSlackCapPx = 6.0;
    cam.step.inspected_ids.clear();
    if (!frame_policy) {
      cam.tracker.predicted_boxes_into(cam.step.predicted);
      vision::slice_regions_into(cam.step.predicted, sizes, cam.frame_w,
                                 cam.frame_h, /*margin=*/8.0, cam.step.slices);
      return;
    }
    std::vector<std::pair<long, geom::BBox>>& inspect = cam.step.inspect;
    inspect.clear();
    for (const track::Track& t : cam.tracker.tracks()) {
      if (t.frames_since_correct < 2 && t.missed == 0 && t.has_velocity)
        continue;
      const double slack = std::min(kCoastSlackCapPx,
                                    kCoastSlackPx * t.frames_since_correct);
      inspect.emplace_back(t.id, t.box.expanded(slack));
      cam.step.inspected_ids.push_back(t.id);
    }
    // Seed search slices from the lost list so a camera whose tracks all
    // died is not blind until the next key frame.
    for (const CameraNode::LostTrack& l : cam.lost)
      inspect.emplace_back(-1L, l.box.expanded(2.0 * kCoastSlackPx));
    vision::slice_regions_into(inspect, sizes, cam.frame_w, cam.frame_h,
                               /*margin=*/8.0, cam.step.slices);
  }

  /// New-object search: moving pixels no track or ghost explains become
  /// new regions, appended to the slices.
  void search_new_regions(CameraNode& cam) {
    std::vector<geom::BBox>& explained = cam.step.explained;
    explained.clear();
    for (const track::Track& t : cam.tracker.tracks())
      explained.push_back(t.box);
    for (const Ghost& g : cam.ghosts) explained.push_back(g.box);
    std::vector<geom::BBox>& fresh = cam.step.fresh;
    vision::extract_new_regions_into(cam.flow, explained, cam.render_scale,
                                     {}, cam.step.regions, fresh);
    // Fig. 8 policy applied at inspection time: a camera only searches for
    // new objects inside cells it owns — inspecting a region whose tracking
    // it would never adopt is wasted GPU time.
    std::erase_if(fresh, [&](const geom::BBox& box) {
      return !may_adopt(cam.index, box);
    });
    // A merged moving cluster (e.g. a queue released by a green light) can
    // span far more than one object; tile it into 256-class slices, which
    // batch far cheaper than serial 512-class inspections.
    constexpr double kTile = 240.0;  // 240 + 2x8 margin -> class 256
    for (const geom::BBox& box : fresh) {
      const int tiles_x =
          std::max(1, static_cast<int>(std::ceil(box.w / kTile)));
      const int tiles_y =
          std::max(1, static_cast<int>(std::ceil(box.h / kTile)));
      for (int ty = 0; ty < tiles_y; ++ty) {
        for (int tx = 0; tx < tiles_x; ++tx) {
          const geom::BBox tile{box.x + tx * box.w / tiles_x,
                                box.y + ty * box.h / tiles_y,
                                box.w / tiles_x, box.h / tiles_y};
          vision::SliceRegion region;
          region.track_id = -1;
          region.size_class = sizes.quantize(tile);
          region.roi = sizes.expand_to_class(tile, region.size_class)
                           .clamped(cam.frame_w, cam.frame_h);
          if (!region.roi.empty()) cam.step.slices.push_back(region);
        }
      }
    }
  }

  /// Stage `gpu.batch` (per camera): plan this frame's GPU batches and
  /// assemble their input tensors. The plan's simulated latency is the
  /// camera's inference time this frame.
  void batch_stage(CameraNode& cam, CamFrameResult& result) {
    StageScope stage("gpu.batch", &result.batching_ms);
    const std::vector<vision::SliceRegion>& slices = cam.step.slices;
    // Built directly in the fleet-facing demand slot: run_frame cleared it,
    // and writing in place keeps its capacity frame over frame.
    std::vector<geom::SizeClassId>& tasks =
        gpu_work[static_cast<std::size_t>(cam.index)].tasks;
    tasks.reserve(slices.size());
    for (const vision::SliceRegion& s : slices) tasks.push_back(s.size_class);
    gpu::plan_batches_into(tasks, cam.device, cam.step.batch_counts,
                           cam.step.plan);
    const gpu::BatchPlan& plan = cam.step.plan;
    assemble_batches(cam, cam.scratch.cur_frame(), slices);
    MVS_COUNT("gpu.tasks", tasks.size());
    MVS_COUNT("gpu.batches", plan.batches.size());
    MVS_HIST("gpu.plan_latency_ms", plan.actual_latency_ms);
    result.infer_ms = plan.actual_latency_ms;
  }

  /// Copy every slice's pixels (at render resolution) into a contiguous
  /// batch buffer — the real data-movement cost behind GPU batching, which
  /// is what the paper's "Batching" overhead column measures.
  void assemble_batches(CameraNode& cam, const vision::Image& frame,
                        const std::vector<vision::SliceRegion>& slices) {
    std::size_t offset = 0;
    for (const vision::SliceRegion& s : slices) {
      const int side = std::max(
          1, static_cast<int>(sizes.size_of(s.size_class) / cam.render_scale));
      const std::size_t end = offset + static_cast<std::size_t>(side) *
                                           static_cast<std::size_t>(side);
      if (cam.batch_buffer.size() < end) cam.batch_buffer.resize(end);
      const int x0 = static_cast<int>(s.roi.x / cam.render_scale);
      const int y0 = static_cast<int>(s.roi.y / cam.render_scale);
      for (int y = 0; y < side; ++y)
        for (int x = 0; x < side; ++x)
          cam.batch_buffer[offset++] = frame.at_clamped(x0 + x, y0 + y);
    }
    cam.batch_buffer.resize(offset);
  }

  /// Stage `pipeline.detect` (per camera): partial-frame inspection of the
  /// slices, NMS and the tracker update. Tracks the update drops are
  /// emitted and, in policy mode, enter the lost list.
  void detect_stage(CameraNode& cam, const sim::MultiFrame& mf) {
    StageScope stage("pipeline.detect");
    const auto& gt = mf.per_camera[static_cast<std::size_t>(cam.index)];
    std::vector<detect::Detection>& dets = cam.step.dets;
    dets.clear();
    for (const vision::SliceRegion& s : cam.step.slices)
      detector.detect_roi_append(gt, s.roi, sizes.size_of(s.size_class),
                                 cam.rng, dets);
    nms_into(dets, 0.6, cam.step.nms_kept);
    // Post-NMS survivors become `dets`; the raw buffer becomes next frame's
    // NMS scratch.
    dets.swap(cam.step.nms_kept);

    // Trace-label baseline: what the tracker believed before the detections
    // corrected it (recording only).
    if (feature_trace.is_open())
      cam.tracker.predicted_boxes_into(cam.step.predicted);
    // Snapshot so tracks removed by update_into() can enter the lost list with
    // their final box and velocity (policy mode only).
    if (frame_policy) cam.step.pre_update = cam.tracker.tracks();

    cam.tracker.update_into(dets,
                            frame_policy ? &cam.step.inspected_ids : nullptr,
                            cam.step.update);
    // Searching past the next key frame is pointless — it re-plans.
    constexpr int kLostSearchTtl = 10;
    for (long removed : cam.step.update.removed_track_ids) {
      emit(trace, {mf.frame_index, cam.index, TraceEventType::kTrackDrop,
                   static_cast<std::uint64_t>(removed), 0.0});
      if (!frame_policy) continue;
      for (const track::Track& t : cam.step.pre_update) {
        if (t.id != removed) continue;
        cam.lost.push_back({t.box, t.velocity, kLostSearchTtl});
        break;
      }
    }
  }

  /// Stage `pipeline.distributed` (per camera): the BALB distributed stage.
  /// Unmatched detections are re-acquired, left to the ghost that owns
  /// them, or adopted as new objects where the camera may adopt; then
  /// orphaned ghosts are taken over. Returns tracks added (policy churn).
  int distributed_stage(CameraNode& cam, long frame_index,
                        CamFrameResult& result) {
    StageScope stage("pipeline.distributed", &result.distributed_ms);
    int added = 0;
    for (std::size_t d : cam.step.update.unmatched_detections) {
      const detect::Detection& det = cam.step.dets[d];
      // Re-acquisition first: a detection landing on a lost-track search box
      // recovers an object this camera was already responsible for, so it
      // bypasses the new-object gates below (policy mode only — the lost
      // list is empty otherwise).
      const auto lost = std::find_if(
          cam.lost.begin(), cam.lost.end(),
          [&](const CameraNode::LostTrack& l) {
            return geom::iou(det.box, l.box) > 0.1;
          });
      if (lost != cam.lost.end()) {
        cam.lost.erase(lost);
      } else {
        // Detections overlapping a ghost belong to an object tracked
        // elsewhere; never adopt those as new.
        const bool ghost_owned =
            std::any_of(cam.ghosts.begin(), cam.ghosts.end(),
                        [&](const Ghost& g) {
                          return geom::iou(det.box, g.box) > 0.25;
                        });
        if (ghost_owned) continue;
        // Under a detect-or-track policy, sparse inspection orphans objects
        // far more often (the assigned camera's track dies between its
        // inspections). This detection is already paid for and no ghost
        // claims it — no camera anywhere is tracking the object — so the
        // spatial-ownership gate (which exists to avoid wasted SEARCH, not
        // to discard hits in hand) must not drop it. Fixed mode keeps the
        // strict gate: its every-frame correction makes orphaning a
        // non-event, and bit-identity is contractual.
        if (!frame_policy && !may_adopt(cam.index, det.box)) continue;
      }
      const long id = cam.tracker.add_track(det);
      ++added;
      emit(trace, {frame_index, cam.index, TraceEventType::kAdoptNew,
                   static_cast<std::uint64_t>(id), 0.0});
    }
    if (cfg.policy == Policy::kBalb && distributed.valid())
      added += takeover_pass(cam, frame_index);
    return added;
  }

  /// Distributed-stage case 2: ghosts whose assigned camera lost sight of
  /// them are taken over by the highest-priority camera that still sees
  /// them — decided locally from the shared models, no communication.
  /// Returns the number of takeovers (policy churn bookkeeping).
  int takeover_pass(CameraNode& cam, long frame_index) {
    int takeovers = 0;
    const auto i = static_cast<std::size_t>(cam.index);
    std::vector<Ghost>& kept = cam.step.ghosts_kept;
    kept.clear();
    for (Ghost& g : cam.ghosts) {
      if (left_frame(g.box, cam.frame_w, cam.frame_h))
        continue;  // left my view too; drop
      // A dropped-out assigned camera definitely lost the object — the
      // model prediction only matters while the device is alive.
      const bool assigned_sees =
          g.assigned_cam >= 0 &&
          active[static_cast<std::size_t>(g.assigned_cam)] &&
          (g.assigned_cam == cam.index ||
           associator->predict_present(i,
                                       static_cast<std::size_t>(g.assigned_cam),
                                       g.box));
      if (assigned_sees) {
        kept.push_back(g);
        continue;
      }
      // The assigned camera (apparently) lost it; elect a successor among
      // the cameras still online.
      std::vector<int>& visible = cam.step.visible;
      visible.clear();
      visible.push_back(cam.index);
      for (std::size_t i2 = 0; i2 < cameras.size(); ++i2) {
        if (i2 == i || !active[i2]) continue;
        if (associator->predict_present(i, i2, g.box))
          visible.push_back(static_cast<int>(i2));
      }
      const int successor = distributed.takeover_camera(visible);
      if (successor == cam.index) {
        detect::Detection det;
        det.box = g.box;
        det.score = 0.5;
        cam.tracker.add_track(det);  // inspected from the next frame on
        ++takeovers;
        emit(trace, {frame_index, cam.index, TraceEventType::kTakeover, g.key,
                     0.0});
      } else {
        g.assigned_cam = successor;
        kept.push_back(g);
      }
    }
    // Swap, don't move: the retired ghost buffer becomes next frame's
    // survivor scratch.
    cam.ghosts.swap(kept);
    return takeovers;
  }

  /// A detect frame's outcome for the policy features: churn (tracks added
  /// and dropped) and the mean detection confidence, which decays until the
  /// next detect. When recording, also this camera's feature-trace row.
  void note_inspection(CameraNode& cam, const policy::CameraFeatures& feats,
                       int churn_events, CamFrameResult& result) {
    if (feature_trace.is_open()) {
      // Counterfactual label: did this inspection change anything the
      // coasting tracker would have gotten wrong? New/lost tracks, or a
      // matched track whose corrected box disagrees with the flow
      // prediction.
      constexpr double kLabelIou = 0.85;
      bool corrected = false;
      for (long id : cam.step.update.matched_track_ids) {
        const track::Track* now = cam.tracker.find(id);
        if (!now) continue;
        for (const auto& [pid, pbox] : cam.step.predicted) {
          if (pid != id) continue;
          if (geom::iou(pbox, now->box) < kLabelIou) corrected = true;
          break;
        }
        if (corrected) break;
      }
      result.trace_features = feats.to_vector();
      result.trace_label = (churn_events > 0 || corrected) ? 1 : 0;
    }
    cam.pstate.note_detect(mean_score(cam.step.dets), churn_events,
                           static_cast<int>(cam.tracker.tracks().size()));
  }

  /// See Pipeline::skip_frame(): advance the player and frame counter (key
  /// cadence and dropout schedules stay frame-indexed) without processing.
  /// gpu_work is cleared so last_gpu_work() reports zero demand.
  void skip_frame() {
    ++frames_run;
    player.next_into(mf_);
    for (CameraGpuWork& w : gpu_work) {
      w.full_frame = false;
      w.tasks.clear();
    }
  }

  /// Snapshot of the frames run from `first` on, with the aggregate recall
  /// over everything run so far.
  PipelineResult snapshot(std::size_t first) const {
    PipelineResult result;
    result.scenario = scenario_name_;
    result.policy = cfg.policy;
    result.frames.assign(
        all_frames.begin() + static_cast<std::ptrdiff_t>(first),
        all_frames.end());
    result.object_recall = recall.recall();
    return result;
  }

  // ---- members -----------------------------------------------------------

  PipelineConfig cfg;
  sim::ScenarioPlayer player;
  std::string scenario_name_;
  geom::SizeClassSet sizes;
  detect::SimulatedDetector detector;
  std::unique_ptr<assoc::CrossCameraAssociator> associator;
  std::vector<CameraNode> cameras;
  std::unique_ptr<net::Transport> transport;
  /// active[i] != 0 iff camera i currently participates in the schedule;
  /// mutated only between frames (refresh_active), read by parallel steps.
  std::vector<char> active;

  struct CellCache {
    geom::Grid grid;
    std::vector<std::vector<int>> coverage;
    std::vector<std::uint64_t> region_key;
  };
  std::vector<CellCache> cell_cache;

  core::DistributedStage distributed;
  TraceRecorder* trace = nullptr;
  /// Detect-or-track layer; null when PolicyConfig::kind is kFixed (the
  /// bit-identical fast path).
  std::unique_ptr<policy::FramePolicy> frame_policy;
  /// JSONL training-trace sink ({"f": [...], "label": 0|1} per camera per
  /// detect frame); closed when PolicyConfig::feature_trace is empty.
  std::ofstream feature_trace;
  /// Per-camera feature bookkeeping runs (policy active OR recording).
  bool features_on = false;
  /// Owned when no shared pool was injected; `pool` is the one in use.
  std::unique_ptr<util::ThreadPool> owned_pool;
  util::ThreadPool& pool;
  /// Tile flow rows across idle workers (fleet smaller than the pool).
  bool tile_flow = false;
  /// Per-camera GPU demand of the most recent frame (fleet arbiter input).
  std::vector<CameraGpuWork> gpu_work;
  /// Evaluation frames run so far; key-frame cadence and transport/dropout
  /// schedules are indexed by this counter.
  long frames_run = 0;
  /// Every frame's stats since construction (result() / run() snapshots);
  /// not grown when cfg.keep_history is off.
  std::vector<FrameStats> all_frames;
  core::CameraMasks sp_masks;
  bool sp_masks_ready = false;
  metrics::ObjectRecall recall;
  /// Run totals of FrameStats::retries / dropped_msgs (history-independent).
  long retries_total = 0;
  long dropped_msgs_total = 0;

  // Frame-scope working memory, reused tick over tick (DESIGN.md §11): the
  // current multi-frame, the stats record run_frame_ref hands out, the
  // per-camera reported boxes fed to the recall metric, the per-camera
  // regular-frame results reduced into stats, and the per-camera detections
  // of the last full inspection.
  sim::MultiFrame mf_;
  FrameStats stats_;
  std::vector<std::vector<geom::BBox>> reported_;
  std::vector<CamFrameResult> results_;
  std::vector<std::vector<detect::Detection>> key_dets_;

  /// ReXCam-style correlation gate; null unless
  /// PolicyConfig::correlation_gate (the bit-identical default).
  std::unique_ptr<policy::CorrelationGate> corr_gate;
  std::vector<int> gate_activity_;
  /// gate_cold_[i] != 0 → camera i is online but gated cold this frame: key
  /// frames skip its full inspection, regular frames coast track-only.
  /// Empty when no gate is configured.
  std::vector<char> gate_cold_;
  bool gate_cold(std::size_t i) const {
    return !gate_cold_.empty() && gate_cold_[i] != 0;
  }

  /// Day/night detection-quality schedule (city scenarios); disabled for the
  /// classic scenarios, where `detector` never changes.
  sim::QualitySchedule quality_;
  detect::SimulatedDetector day_detector_;
  detect::SimulatedDetector night_detector_;
  bool is_night_ = false;
};

const FrameStats& Pipeline::Impl::run_frame() {
  MVS_SPAN("pipeline.frame");
  const long f = frames_run++;
  player.next_into(mf_);
  const sim::MultiFrame& mf = mf_;
  if (quality_.enabled) {
    // Day/night phase flip: swap in the precomputed night (or day) detector.
    // The detector is stateless (config only), so this is a value copy.
    const bool night = quality_.is_night(mf.time_s);
    if (night != is_night_) {
      is_night_ = night;
      detector = night ? night_detector_ : day_detector_;
    }
  }
  if (cfg.paired_rng) {
    // Common random numbers (see PipelineConfig::paired_rng): every
    // camera's detector stream restarts from a (seed, camera, frame) hash,
    // decoupling draw outcomes from how many draws earlier frames made.
    for (CameraNode& cam : cameras) {
      std::uint64_t h = cfg.seed;
      h ^= 0x9E3779B97F4A7C15ULL *
           (static_cast<std::uint64_t>(cam.index) + 1);
      h ^= 0xBF58476D1CE4E5B9ULL *
           (static_cast<std::uint64_t>(mf.frame_index) + 1);
      h ^= h >> 31;
      cam.rng = util::Rng(h);
    }
  }
  // Reset the reusable stats record: salvage the per-camera vector's
  // capacity, default-construct everything else.
  {
    std::vector<double> infer = std::move(stats_.camera_infer_ms);
    infer.clear();
    stats_ = FrameStats{};
    stats_.camera_infer_ms = std::move(infer);
  }
  FrameStats& stats = stats_;
  stats.frame = mf.frame_index;
  stats.key_frame = (f % cfg.horizon_frames == 0);

  // The frame's GPU demand is rebuilt from scratch each frame.
  for (CameraGpuWork& w : gpu_work) {
    w.full_frame = false;
    w.tasks.clear();
  }

  // Dropout transitions apply before the frame runs; a camera may rejoin
  // wherever a full inspection happens (key frames, or any frame under
  // the Full policy).
  refresh_active(f, mf.frame_index,
                 stats.key_frame || cfg.policy == Policy::kFull);
  for (char a : active) stats.cameras_online += (a != 0);
  if (corr_gate) refresh_gate();

  std::vector<std::vector<geom::BBox>>& reported = reported_;
  reported.resize(cameras.size());
  for (std::vector<geom::BBox>& r : reported) r.clear();
  if (cfg.policy == Policy::kFull) {
    inspect_stage(mf, f, /*uplink=*/false, stats, reported);
  } else if (stats.key_frame) {
    key_frame_step(mf, f, stats, reported);
  } else {
    regular_frame_step(mf, stats, reported);
  }

  stats.slowest_infer_ms = 0.0;
  for (double v : stats.camera_infer_ms)
    stats.slowest_infer_ms = std::max(stats.slowest_infer_ms, v);

  // Per-camera GPU demand share (policy feature, one-frame lag): computed
  // sequentially after the parallel section so it is deterministic.
  if (features_on && stats.camera_infer_ms.size() == cameras.size()) {
    double total = 0.0;
    for (double v : stats.camera_infer_ms) total += v;
    for (std::size_t i = 0; i < cameras.size(); ++i)
      cameras[i].pstate.demand_share =
          total > 0.0 ? stats.camera_infer_ms[i] / total : 0.0;
  }

  stats.frame_recall = recall.add_frame(mf.per_camera, reported);
  std::size_t gt = 0;
  for (const auto& cam_gt : mf.per_camera) gt += cam_gt.size();
  stats.gt_objects = gt;
  for (const CameraNode& cam : cameras)
    stats.tracked_objects += cam.tracker.tracks().size();

  if (obs::enabled()) {
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("pipeline.frames").add(1);
    if (stats.key_frame) m.counter("pipeline.key_frames").add(1);
    const bool central_ran = stats.key_frame && cfg.policy != Policy::kFull &&
                             cfg.policy != Policy::kBalbInd;
    if (central_ran) {
      // Wall-clock stage time: fingerprinted by count only (durations vary
      // run to run); comm/queue are simulated (netsim) and deterministic.
      m.histogram("pipeline.central_wall_ms").record(stats.central_ms);
      m.histogram("pipeline.comm_ms").record(stats.comm_ms);
      m.histogram("pipeline.queue_ms").record(stats.queue_ms);
    } else if (!stats.key_frame && cfg.policy != Policy::kFull) {
      m.histogram("pipeline.tracking_wall_ms").record(stats.tracking_ms);
      m.histogram("pipeline.batching_wall_ms").record(stats.batching_ms);
      m.histogram("pipeline.distributed_wall_ms").record(stats.distributed_ms);
    }
    m.histogram("pipeline.infer_ms").record(stats.slowest_infer_ms);
    // Histograms, not gauges: fleet sessions run frames on pool threads, and
    // histogram merges are order-independent (gauge last-writer-wins is not).
    m.histogram("pipeline.recall").record(stats.frame_recall);
    m.histogram("pipeline.cameras_online").record(stats.cameras_online);
  }
  retries_total += stats.retries;
  dropped_msgs_total += stats.dropped_msgs;
  if (cfg.keep_history) all_frames.push_back(stats);
  if (cfg.verbose && f % 50 == 0)
    util::log_info("frame ", f, " recall=", stats.frame_recall,
                   " slowest=", stats.slowest_infer_ms, "ms");
  return stats;
}

Pipeline::Pipeline(const std::string& scenario_name,
                   const PipelineConfig& config, util::ThreadPool* shared_pool)
    : config_(config),
      impl_(std::make_unique<Impl>(scenario_name, config, shared_pool)) {}

Pipeline::~Pipeline() = default;

void Pipeline::attach_trace(TraceRecorder* trace) { impl_->trace = trace; }

void Pipeline::set_tight_masks(bool tight) {
  config_.tight_masks = tight;
  impl_->cfg.tight_masks = tight;
}

const FrameStats& Pipeline::run_frame_ref() { return impl_->run_frame(); }

void Pipeline::skip_frame() { impl_->skip_frame(); }

const sim::MultiFrame& Pipeline::current_frame() const { return impl_->mf_; }

const std::vector<std::vector<geom::BBox>>& Pipeline::last_reported() const {
  return impl_->reported_;
}

const std::vector<CameraGpuWork>& Pipeline::last_gpu_work() const {
  return impl_->gpu_work;
}

std::size_t Pipeline::camera_count() const { return impl_->cameras.size(); }

std::vector<gpu::DeviceProfile> Pipeline::devices() const {
  return impl_->devices();
}

const sim::Scenario& Pipeline::scenario() const {
  return impl_->player.scenario();
}

PipelineResult Pipeline::result() const { return impl_->snapshot(0); }

double Pipeline::object_recall() const { return impl_->recall.recall(); }

long Pipeline::total_retries() const { return impl_->retries_total; }

long Pipeline::total_dropped_msgs() const {
  return impl_->dropped_msgs_total;
}

PipelineResult Pipeline::run(int frames) {
  const std::size_t start = impl_->all_frames.size();
  for (int f = 0; f < frames; ++f) impl_->run_frame();
  return impl_->snapshot(start);
}

namespace {
double mean_over_frames(const std::vector<FrameStats>& frames,
                        double FrameStats::*member) {
  if (frames.empty()) return 0.0;
  double acc = 0.0;
  for (const FrameStats& f : frames) acc += f.*member;
  return acc / static_cast<double>(frames.size());
}
}  // namespace

double PipelineResult::mean_slowest_infer_ms() const {
  return mean_over_frames(frames, &FrameStats::slowest_infer_ms);
}
double PipelineResult::mean_central_ms() const {
  return mean_over_frames(frames, &FrameStats::central_ms);
}
double PipelineResult::mean_tracking_ms() const {
  return mean_over_frames(frames, &FrameStats::tracking_ms);
}
double PipelineResult::mean_distributed_ms() const {
  return mean_over_frames(frames, &FrameStats::distributed_ms);
}
double PipelineResult::mean_batching_ms() const {
  return mean_over_frames(frames, &FrameStats::batching_ms);
}
double PipelineResult::mean_comm_ms() const {
  return mean_over_frames(frames, &FrameStats::comm_ms);
}
double PipelineResult::mean_queue_ms() const {
  return mean_over_frames(frames, &FrameStats::queue_ms);
}
long PipelineResult::total_retries() const {
  long n = 0;
  for (const FrameStats& f : frames) n += f.retries;
  return n;
}
long PipelineResult::total_dropped_msgs() const {
  long n = 0;
  for (const FrameStats& f : frames) n += f.dropped_msgs;
  return n;
}

}  // namespace mvs::runtime
