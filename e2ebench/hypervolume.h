// Search-quality indicator of the end-to-end benchmark: the 2-D hypervolume
// of a search's feasible accuracy x log10(outputs_per_second) front.
//
// A speed-up that changes the search trajectory is scored on what the
// search found, not only on how fast it ran.  Both objectives are
// maximized; the area is measured against a fixed reference point, so two
// searches (or two commits) compare on one scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "evo/engine.h"

namespace ecad::e2ebench {

struct ObjectivePoint {
  double x = 0.0;
  double y = 0.0;
};

/// Reference point of front_hypervolume(): accuracy 0, one output per second.
inline constexpr ObjectivePoint kHypervolumeReference{0.0, 0.0};

/// Area dominated by `points` (both coordinates maximized) and bounded below
/// by `reference`.  Dominated and duplicate points add nothing; points that
/// do not strictly dominate the reference are ignored; an empty set gives 0.
inline double hypervolume_2d(std::vector<ObjectivePoint> points, ObjectivePoint reference) {
  points.erase(std::remove_if(points.begin(), points.end(),
                              [&](const ObjectivePoint& p) {
                                return !(p.x > reference.x && p.y > reference.y);
                              }),
               points.end());
  // Sweep from the largest x down: each point that raises the best y seen so
  // far adds the strip [reference.x, x] x [best_y, y].
  std::sort(points.begin(), points.end(), [](const ObjectivePoint& a, const ObjectivePoint& b) {
    return a.x != b.x ? a.x > b.x : a.y > b.y;
  });
  double area = 0.0;
  double best_y = reference.y;
  for (const ObjectivePoint& p : points) {
    if (p.y <= best_y) continue;
    area += (p.x - reference.x) * (p.y - best_y);
    best_y = p.y;
  }
  return area;
}

/// Hypervolume of every feasible evaluated candidate's (accuracy,
/// log10(outputs_per_second)) against kHypervolumeReference.  Infeasible
/// candidates are excluded: a design that does not fit the device is not on
/// the front however good its numbers look.
inline double front_hypervolume(const std::vector<evo::Candidate>& history) {
  std::vector<ObjectivePoint> points;
  points.reserve(history.size());
  for (const evo::Candidate& candidate : history) {
    const evo::EvalResult& r = candidate.result;
    if (!r.feasible || !(r.outputs_per_second > 0.0)) continue;
    points.push_back({r.accuracy, std::log10(r.outputs_per_second)});
  }
  return hypervolume_2d(std::move(points), kHypervolumeReference);
}

}  // namespace ecad::e2ebench
