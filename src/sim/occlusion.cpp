#include "sim/occlusion.hpp"

#include <algorithm>

#include "geometry/bbox.hpp"

namespace mvs::sim {

std::vector<OcclusionEvent> occlusion_events(
    const std::vector<detect::GroundTruthObject>& objects,
    const OcclusionConfig& cfg) {
  std::vector<OcclusionEvent> events;
  if (!cfg.enabled) return events;
  for (const detect::GroundTruthObject& victim : objects) {
    double covered = 0.0;
    const detect::GroundTruthObject* occluder = nullptr;
    for (const detect::GroundTruthObject& other : objects) {
      if (other.id == victim.id) continue;
      if (other.distance_m >= victim.distance_m) continue;  // not closer
      const double c = geom::coverage(victim.box, other.box);
      if (c > covered) {
        covered = c;
        occluder = &other;
      }
    }
    if (occluder && covered >= cfg.cover_threshold)
      events.push_back({victim.id, occluder->id, covered});
  }
  return events;
}

void apply_occlusion_inplace(std::vector<detect::GroundTruthObject>& objects,
                             const OcclusionConfig& cfg) {
  if (!cfg.enabled) return;
  const std::vector<OcclusionEvent> events = occlusion_events(objects, cfg);
  std::erase_if(objects, [&](const detect::GroundTruthObject& obj) {
    return std::any_of(
        events.begin(), events.end(),
        [&](const OcclusionEvent& e) { return e.occluded_id == obj.id; });
  });
}

}  // namespace mvs::sim
