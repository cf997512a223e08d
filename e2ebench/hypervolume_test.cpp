// Unit test of the benchmark's hypervolume helper against hand-computed
// fronts.  Self-contained (no test framework): prints each failure and exits
// non-zero if any check fails.
//
//   .bench_build/e2ebench/ecad_e2e_hypervolume_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "hypervolume.h"

namespace {

using ecad::e2ebench::front_hypervolume;
using ecad::e2ebench::hypervolume_2d;
using ecad::e2ebench::ObjectivePoint;

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  } else {
    std::printf("ok   %s = %g\n", what, got);
  }
}

ecad::evo::Candidate candidate(double accuracy, double outputs_per_second, bool feasible) {
  ecad::evo::Candidate c;
  c.result.accuracy = accuracy;
  c.result.outputs_per_second = outputs_per_second;
  c.result.feasible = feasible;
  return c;
}

}  // namespace

int main() {
  const ObjectivePoint origin{0.0, 0.0};

  expect_near("empty front", hypervolume_2d({}, origin), 0.0);
  expect_near("single point", hypervolume_2d({{2.0, 3.0}}, origin), 6.0);
  // (1,3) and (3,1): 1*3 + 3*1 - 1*1 overlap.
  expect_near("two-point front", hypervolume_2d({{1.0, 3.0}, {3.0, 1.0}}, origin), 5.0);
  // (1,1) is dominated by both and adds nothing.
  expect_near("dominated point", hypervolume_2d({{1.0, 3.0}, {1.0, 1.0}, {3.0, 1.0}}, origin),
              5.0);
  expect_near("duplicate points",
              hypervolume_2d({{3.0, 1.0}, {1.0, 3.0}, {3.0, 1.0}, {1.0, 3.0}}, origin), 5.0);
  // Staircase (1,4), (2,2), (4,1): strips 4*1 + 2*(2-1) + 1*(4-2) = 8.
  expect_near("three-step staircase", hypervolume_2d({{2.0, 2.0}, {4.0, 1.0}, {1.0, 4.0}}, origin),
              8.0);
  // Against reference (1,1): (3,2) gives 2*1; (0.5,5) does not dominate it.
  expect_near("shifted reference", hypervolume_2d({{3.0, 2.0}, {0.5, 5.0}}, {1.0, 1.0}), 2.0);

  // Candidates: (accuracy, log10 outputs/s).  1e3 -> 3, 1e1 -> 1.
  expect_near("candidate front",
              front_hypervolume({candidate(0.5, 1e3, true), candidate(0.75, 1e1, true)}),
              0.5 * 3.0 + 0.25 * 1.0);
  // The infeasible (0.9, 1e4) would dominate everything; it must be excluded.
  expect_near("infeasible excluded",
              front_hypervolume({candidate(0.5, 1e3, true), candidate(0.9, 1e4, false)}), 1.5);
  expect_near("all infeasible", front_hypervolume({candidate(0.9, 1e4, false)}), 0.0);
  expect_near("no candidates", front_hypervolume({}), 0.0);

  if (failures != 0) {
    std::printf("%d hypervolume check(s) failed\n", failures);
    return 1;
  }
  std::printf("all hypervolume checks passed\n");
  return 0;
}
