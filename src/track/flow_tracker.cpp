#include "track/flow_tracker.hpp"

#include <algorithm>
#include <cmath>

namespace mvs::track {

const Track* FlowTracker::find(long id) const {
  for (const Track& t : tracks_)
    if (t.id == id) return &t;
  return nullptr;
}

void FlowTracker::reset_from_detections(
    const std::vector<detect::Detection>& dets) {
  tracks_.clear();
  for (const detect::Detection& det : dets) add_track(det);
}

void FlowTracker::predict(const vision::FlowField& flow, double scale,
                          bool use_velocity) {
  // A box smaller than ~a flow block sees mostly background in its median
  // (flow reads near zero); one spanning a block or two reads a diluted
  // fraction of its true motion. Whenever the measured flow step falls well
  // short of the detection-derived velocity, trust the velocity — the EMA
  // self-corrects within a couple of matches if the object really slowed.
  constexpr double kFlowTrustFrac = 0.6;
  for (Track& t : tracks_) {
    const geom::BBox flow_box{t.box.x / scale, t.box.y / scale,
                              t.box.w / scale, t.box.h / scale};
    const geom::Vec2 motion = vision::median_flow_in(flow, flow_box);
    geom::Vec2 step{motion.x * scale, motion.y * scale};
    if (use_velocity && t.has_velocity &&
        std::hypot(step.x, step.y) <
            kFlowTrustFrac * std::hypot(t.velocity.x, t.velocity.y)) {
      step = t.velocity;
    }
    t.box = t.box.shifted(step);
    ++t.age;
    ++t.frames_since_correct;
  }
}

void FlowTracker::update_into(const std::vector<detect::Detection>& dets,
                              const std::vector<long>* miss_scope,
                              UpdateResult& result) {
  result.matched_track_ids.clear();
  result.unmatched_detections.clear();
  result.removed_track_ids.clear();

  std::vector<geom::BBox>& track_boxes = track_boxes_scratch_;
  track_boxes.clear();
  track_boxes.reserve(tracks_.size());
  for (const Track& t : tracks_) track_boxes.push_back(t.box);
  std::vector<geom::BBox>& det_boxes = det_boxes_scratch_;
  det_boxes.clear();
  det_boxes.reserve(dets.size());
  for (const detect::Detection& d : dets) det_boxes.push_back(d.box);

  matching::match_boxes_into(track_boxes, det_boxes, cfg_.match_min_iou,
                             match_work_, match_scratch_);
  const matching::BoxMatchResult& match = match_scratch_;

  matched_scratch_.assign(tracks_.size(), 0);
  std::vector<char>& track_matched = matched_scratch_;
  for (const matching::BoxMatch& m : match.matches) {
    Track& t = tracks_[static_cast<std::size_t>(m.a)];
    const detect::Detection& d = dets[static_cast<std::size_t>(m.b)];
    // Velocity observation from detection-corrected centers: mean per-frame
    // displacement since the last match, EMA-blended against detector
    // localization noise.
    const geom::Vec2 c{d.box.x + d.box.w / 2.0, d.box.y + d.box.h / 2.0};
    if (t.frames_since_correct > 0) {
      const double inv = 1.0 / static_cast<double>(t.frames_since_correct);
      const geom::Vec2 obs{(c.x - t.corrected_center.x) * inv,
                           (c.y - t.corrected_center.y) * inv};
      t.velocity = t.has_velocity
                       ? geom::Vec2{0.5 * (t.velocity.x + obs.x),
                                    0.5 * (t.velocity.y + obs.y)}
                       : obs;
      t.has_velocity = true;
    }
    t.corrected_center = c;
    t.frames_since_correct = 0;
    t.box = d.box;
    t.missed = 0;
    t.last_truth_id = d.truth_id;
    // Size class is fixed within a horizon; if the object outgrew its class
    // the paper keeps the class and downsizes the crop, so no upgrade here.
    track_matched[static_cast<std::size_t>(m.a)] = 1;
    result.matched_track_ids.push_back(t.id);
  }
  for (int b : match.unmatched_b)
    result.unmatched_detections.push_back(static_cast<std::size_t>(b));

  std::vector<Track>& survivors = survivors_scratch_;
  survivors.clear();
  survivors.reserve(tracks_.size());
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    Track& t = tracks_[i];
    const bool inspected =
        !miss_scope || std::find(miss_scope->begin(), miss_scope->end(),
                                 t.id) != miss_scope->end();
    if (!track_matched[i] && inspected) ++t.missed;
    if (t.missed > cfg_.max_missed) {
      result.removed_track_ids.push_back(t.id);
    } else {
      survivors.push_back(t);
    }
  }
  // Swap, not move: tracks_ keeps the survivor set, the old buffer becomes
  // next frame's survivors scratch.
  tracks_.swap(survivors);
}

long FlowTracker::add_track(const detect::Detection& det) {
  Track t;
  t.id = next_id_++;
  t.box = det.box;
  t.size_class = sizes_.quantize(det.box);
  t.last_truth_id = det.truth_id;
  t.corrected_center = {det.box.x + det.box.w / 2.0,
                        det.box.y + det.box.h / 2.0};
  tracks_.push_back(t);
  return t.id;
}

void FlowTracker::predicted_boxes_into(
    std::vector<std::pair<long, geom::BBox>>& out) const {
  out.clear();
  out.reserve(tracks_.size());
  for (const Track& t : tracks_) out.emplace_back(t.id, t.box);
}

}  // namespace mvs::track
